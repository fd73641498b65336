#include "transport/cluster_spec.h"

#include <set>

#include "common/json.h"

namespace helios::transport {

std::vector<uint16_t> ClusterSpec::ports(int shard) const {
  std::vector<uint16_t> out;
  out.reserve(datacenters.size());
  for (int dc = 0; dc < num_datacenters(); ++dc) {
    out.push_back(PortOf(dc, shard));
  }
  return out;
}

uint16_t ClusterSpec::PortOf(int dc, int shard) const {
  return static_cast<uint16_t>(
      datacenters[static_cast<size_t>(dc)].port +
      static_cast<uint32_t>(shard) *
          static_cast<uint32_t>(num_datacenters()));
}

std::string ClusterSpec::WalPathFor(int dc, int shard) const {
  const std::string& base = datacenters[static_cast<size_t>(dc)].wal_path;
  if (shards <= 1 || base.empty()) return base;
  return base + ".s" + std::to_string(shard);
}

core::HeliosConfig ClusterSpec::MakeConfig() const {
  core::HeliosConfig config;
  config.num_datacenters = num_datacenters();
  config.fault_tolerance = fault_tolerance;
  config.grace_time = grace_time;
  config.log_interval = log_interval;
  config.health_enabled = health_enabled;
  return config;
}

Status ClusterSpec::Validate() const {
  if (datacenters.empty()) {
    return Status::InvalidArgument("cluster spec has no datacenters");
  }
  if (shards < 1) {
    return Status::InvalidArgument("shards must be >= 1 (got " +
                                   std::to_string(shards) + ")");
  }
  // Every (dc, shard) cell listens on its own derived port; a collision
  // between planes (e.g. contiguous base ports with a stride that folds
  // shard 1 of dc 0 onto shard 0 of dc 1) must fail here, not as a
  // mysterious bind error at launch.
  std::set<uint32_t> seen;
  for (size_t i = 0; i < datacenters.size(); ++i) {
    const DatacenterSpec& dc = datacenters[i];
    if (dc.port == 0) {
      return Status::InvalidArgument("datacenter " + std::to_string(i) +
                                     ": port must be nonzero");
    }
    for (int s = 0; s < shards; ++s) {
      const uint32_t port =
          dc.port + static_cast<uint32_t>(s) *
                        static_cast<uint32_t>(datacenters.size());
      if (port > 65535) {
        return Status::InvalidArgument(
            "datacenter " + std::to_string(i) + " shard " +
            std::to_string(s) + ": derived port " + std::to_string(port) +
            " exceeds 65535");
      }
      if (!seen.insert(port).second) {
        return Status::InvalidArgument(
            "datacenter " + std::to_string(i) + " shard " +
            std::to_string(s) + ": derived port " + std::to_string(port) +
            " collides with another (datacenter, shard) cell");
      }
    }
  }
  if (fault_tolerance < 0 ||
      fault_tolerance >= static_cast<int>(datacenters.size())) {
    return Status::InvalidArgument("fault_tolerance out of range");
  }
  if (grace_time <= 0) {
    return Status::InvalidArgument("grace_time_ms must be positive");
  }
  if (log_interval <= 0) {
    return Status::InvalidArgument("log_interval_ms must be positive");
  }
  if (inbound_delay < 0) {
    return Status::InvalidArgument("inbound_delay_ms must be non-negative");
  }
  if (wal_options.group_commit_interval.count() < 0) {
    return Status::InvalidArgument("group_commit_us must be non-negative");
  }
  return Status::Ok();
}

std::string ClusterSpec::ToJson() const {
  std::string dcs = "[";
  for (size_t i = 0; i < datacenters.size(); ++i) {
    if (i > 0) dcs += ',';
    std::string row;
    json::ObjectWriter w(&row);
    w.Field("port", static_cast<uint64_t>(datacenters[i].port));
    w.Field("wal", datacenters[i].wal_path);
    w.Close();
    dcs += row;
  }
  dcs += ']';

  std::string out;
  json::ObjectWriter w(&out);
  w.Raw("datacenters", dcs);
  w.Field("fault_tolerance", static_cast<int64_t>(fault_tolerance));
  w.Field("fsync", std::string(wal::SyncPolicyName(wal_options.policy)));
  w.Field("grace_time_ms", static_cast<int64_t>(grace_time / 1000));
  w.Field("group_commit_us",
          static_cast<int64_t>(wal_options.group_commit_interval.count()));
  if (health_enabled) w.Field("health_enabled", true);
  w.Field("inbound_delay_ms", static_cast<int64_t>(inbound_delay / 1000));
  w.Field("log_interval_ms", static_cast<int64_t>(log_interval / 1000));
  if (shards != 1) w.Field("shards", static_cast<int64_t>(shards));
  w.Close();
  return out;
}

namespace {

Status ParseDatacenter(const json::Value& v, DatacenterSpec* out) {
  if (v.kind != json::Value::Kind::kObject) {
    return Status::InvalidArgument("datacenters entries must be objects");
  }
  for (const auto& [key, value] : v.members) {
    if (key == "port") {
      int64_t port = 0;
      Status s = json::ReadInt64(key, value, &port);
      if (!s.ok()) return s;
      if (port <= 0 || port > 65535) {
        return Status::InvalidArgument("port out of range");
      }
      out->port = static_cast<uint16_t>(port);
    } else if (key == "wal") {
      Status s = json::ReadString(key, value, &out->wal_path);
      if (!s.ok()) return s;
    } else {
      return Status::InvalidArgument("unknown datacenter key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ReadMillis(const std::string& key, const json::Value& v,
                  Duration* out) {
  int64_t ms = 0;
  Status s = json::ReadInt64(key, v, &ms);
  if (!s.ok()) return s;
  *out = Millis(ms);
  return Status::Ok();
}

}  // namespace

Result<ClusterSpec> ClusterSpec::FromJson(const std::string& text) {
  auto parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const json::Value& root = parsed.value();
  if (root.kind != json::Value::Kind::kObject) {
    return Status::InvalidArgument("cluster spec must be a JSON object");
  }
  ClusterSpec spec;
  for (const auto& [key, value] : root.members) {
    if (key == "datacenters") {
      if (value.kind != json::Value::Kind::kArray) {
        return json::WrongType(key, "array");
      }
      for (const json::Value& item : value.items) {
        DatacenterSpec dc;
        Status s = ParseDatacenter(item, &dc);
        if (!s.ok()) return s;
        spec.datacenters.push_back(std::move(dc));
      }
    } else if (key == "fault_tolerance") {
      Status s = json::ReadInt(key, value, &spec.fault_tolerance);
      if (!s.ok()) return s;
    } else if (key == "fsync") {
      std::string name;
      Status s = json::ReadString(key, value, &name);
      if (!s.ok()) return s;
      auto policy = wal::ParseSyncPolicy(name);
      if (!policy.ok()) return policy.status();
      spec.wal_options.policy = policy.value();
    } else if (key == "grace_time_ms") {
      Status s = ReadMillis(key, value, &spec.grace_time);
      if (!s.ok()) return s;
    } else if (key == "group_commit_us") {
      int64_t us = 0;
      Status s = json::ReadInt64(key, value, &us);
      if (!s.ok()) return s;
      spec.wal_options.group_commit_interval = std::chrono::microseconds(us);
    } else if (key == "health_enabled") {
      Status s = json::ReadBool(key, value, &spec.health_enabled);
      if (!s.ok()) return s;
    } else if (key == "inbound_delay_ms") {
      Status s = ReadMillis(key, value, &spec.inbound_delay);
      if (!s.ok()) return s;
    } else if (key == "log_interval_ms") {
      Status s = ReadMillis(key, value, &spec.log_interval);
      if (!s.ok()) return s;
    } else if (key == "shards") {
      Status s = json::ReadInt(key, value, &spec.shards);
      if (!s.ok()) return s;
    } else {
      return Status::InvalidArgument("unknown cluster spec key '" + key +
                                     "'");
    }
  }
  return spec;
}

}  // namespace helios::transport
