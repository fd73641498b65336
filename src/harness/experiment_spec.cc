#include "harness/experiment_spec.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "common/json.h"
#include "core/config_validation.h"

namespace helios::harness {

const char* ProtocolToken(Protocol p) {
  switch (p) {
    case Protocol::kHelios0:
      return "helios0";
    case Protocol::kHelios1:
      return "helios1";
    case Protocol::kHelios2:
      return "helios2";
    case Protocol::kHeliosB:
      return "heliosb";
    case Protocol::kMessageFutures:
      return "mf";
    case Protocol::kReplicatedCommit:
      return "rc";
    case Protocol::kTwoPcPaxos:
      return "2pc";
  }
  return "?";
}

Result<Protocol> ParseProtocolToken(const std::string& token) {
  for (Protocol p :
       {Protocol::kHelios0, Protocol::kHelios1, Protocol::kHelios2,
        Protocol::kHeliosB, Protocol::kMessageFutures,
        Protocol::kReplicatedCommit, Protocol::kTwoPcPaxos}) {
    if (token == ProtocolToken(p) || token == ProtocolName(p)) return p;
  }
  return Status::InvalidArgument(
      "unknown protocol '" + token +
      "' (expected helios0|helios1|helios2|heliosb|mf|rc|2pc)");
}

uint64_t DeriveSeed(uint64_t base_seed, uint64_t index) {
  // splitmix64 of (base + index): decorrelates neighbouring grid entries.
  uint64_t z = base_seed + index * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string ExperimentSpec::DisplayName() const {
  if (!label.empty()) return label;
  return std::string(ProtocolToken(protocol)) + "/c" +
         std::to_string(clients) + "/s" + std::to_string(seed);
}

Topology ExperimentSpec::BuildTopology() const {
  if (topology == "example3") return PaperExampleTopology();
  if (topology == "uniform") {
    return UniformTopology(uniform_dcs, uniform_rtt_ms, uniform_stddev_ms);
  }
  return Table2Topology();
}

Status ExperimentSpec::Validate() const {
  if (topology != "table2" && topology != "example3" &&
      topology != "uniform") {
    return Status::InvalidArgument("unknown topology '" + topology +
                                   "' (expected table2|example3|uniform)");
  }
  if (topology == "uniform") {
    if (uniform_dcs < 2) {
      return Status::InvalidArgument("uniform topology needs >= 2 DCs");
    }
    if (uniform_rtt_ms < 0.0 || uniform_stddev_ms < 0.0) {
      return Status::InvalidArgument(
          "uniform RTT and stddev must be >= 0 ms");
    }
  }
  if (clients <= 0) {
    return Status::InvalidArgument("clients must be positive (got " +
                                   std::to_string(clients) + ")");
  }
  if (measure <= 0) {
    return Status::InvalidArgument("measure window must be positive");
  }
  if (warmup < 0 || drain < 0) {
    return Status::InvalidArgument("warmup and drain must be >= 0");
  }
  if (ops_per_txn <= 0) {
    return Status::InvalidArgument("ops_per_txn must be positive");
  }
  if (num_keys == 0) {
    return Status::InvalidArgument("num_keys must be positive");
  }
  if (static_cast<uint64_t>(ops_per_txn) > num_keys) {
    return Status::InvalidArgument(
        "ops_per_txn exceeds num_keys: transactions need distinct keys");
  }
  if (key_partitions < 1) {
    return Status::InvalidArgument("key_partitions must be >= 1 (got " +
                                   std::to_string(key_partitions) + ")");
  }
  if (static_cast<uint64_t>(ops_per_txn) * static_cast<uint64_t>(key_partitions) >
      num_keys) {
    return Status::InvalidArgument(
        "key_partitions too fine: each of the " +
        std::to_string(key_partitions) + " partitions must hold at least "
        "ops_per_txn distinct keys");
  }
  if (write_fraction < 0.0 || write_fraction > 1.0 ||
      read_only_fraction < 0.0 || read_only_fraction > 1.0) {
    return Status::InvalidArgument(
        "write_fraction and read_only_fraction must be in [0, 1]");
  }
  if (zipf_theta < 0.0 || zipf_theta >= 1.0) {
    return Status::InvalidArgument("zipf_theta must be in [0, 1)");
  }
  if (value_size < 0) {
    return Status::InvalidArgument("value_size must be >= 0");
  }

  const Topology topo = BuildTopology();
  const int n = topo.size();
  if (rtt_estimate_ms.has_value() && rtt_estimate_ms->size() != n) {
    return Status::InvalidArgument(
        "rtt_estimate_ms is " + std::to_string(rtt_estimate_ms->size()) +
        "x" + std::to_string(rtt_estimate_ms->size()) + " but the topology has " +
        std::to_string(n) + " datacenters");
  }
  if (two_pc_coordinator < 0 || two_pc_coordinator >= n) {
    return Status::InvalidArgument("two_pc_coordinator out of range");
  }
  if (shards < 1) {
    return Status::InvalidArgument("shards must be >= 1 (got " +
                                   std::to_string(shards) + ")");
  }
  if (shard_by != "hash" && shard_by != "range") {
    return Status::InvalidArgument("shard_by must be hash|range (got '" +
                                   shard_by + "')");
  }
  if (shards > 1 &&
      (protocol == Protocol::kMessageFutures ||
       protocol == Protocol::kReplicatedCommit ||
       protocol == Protocol::kTwoPcPaxos)) {
    return Status::InvalidArgument(
        "shards > 1 requires a Helios protocol (helios0|helios1|helios2|"
        "heliosb): the cross-shard wait-base coupling leans on Rule 2");
  }
  if (client_timeout < 0) {
    return Status::InvalidArgument("client_timeout must be >= 0");
  }
  if (client_retries < 0) {
    return Status::InvalidArgument("client_retries must be >= 0");
  }
  if (!fault_plan.empty()) {
    if (Status st = fault_plan.Validate(n); !st.ok()) {
      return Status::InvalidArgument("fault_plan: " + st.ToString());
    }
  }

  // Deployment-level checks: build the HeliosConfig this spec implies and
  // reuse the operator-facing validator, so a spec that would start an
  // unsafe or impossible cluster is rejected here with the same message.
  core::HeliosConfig hc;
  hc.num_datacenters = n;
  hc.grace_time = grace_time;
  hc.log_interval = log_interval;
  hc.client_link_one_way = client_link_one_way;
  hc.clock_offsets = clock_offsets;
  switch (protocol) {
    case Protocol::kHelios1:
      hc.fault_tolerance = 1;
      break;
    case Protocol::kHelios2:
      hc.fault_tolerance = 2;
      break;
    default:
      hc.fault_tolerance = 0;
  }
  if (protocol == Protocol::kHelios0 || protocol == Protocol::kHelios1 ||
      protocol == Protocol::kHelios2) {
    const lp::RttMatrix& rtt =
        rtt_estimate_ms.has_value() ? *rtt_estimate_ms : topo.rtt_ms;
    auto mao = lp::SolveMao(rtt);
    if (!mao.ok()) {
      return Status::InvalidArgument("commit-offset planning failed: " +
                                     mao.status().ToString());
    }
    hc.commit_offsets = PlanCommitOffsets(topo, rtt_estimate_ms);
  }
  return core::ValidateHeliosConfig(hc);
}

Result<ExperimentConfig> ExperimentSpec::ToConfig() const {
  Status st = Validate();
  if (!st.ok()) return st;
  ExperimentConfig cfg;
  cfg.topology = BuildTopology();
  cfg.protocol = protocol;
  cfg.total_clients = clients;
  cfg.warmup = warmup;
  cfg.measure = measure;
  cfg.drain = drain;
  cfg.seed = seed;
  cfg.workload.ops_per_txn = ops_per_txn;
  cfg.workload.write_fraction = write_fraction;
  cfg.workload.num_keys = num_keys;
  cfg.workload.zipf_theta = zipf_theta;
  cfg.workload.value_size = value_size;
  cfg.workload.read_only_fraction = read_only_fraction;
  cfg.workload.key_partitions = key_partitions;
  cfg.log_interval = log_interval;
  cfg.grace_time = grace_time;
  cfg.client_link_one_way = client_link_one_way;
  cfg.clock_offsets = clock_offsets;
  cfg.rtt_estimate_ms = rtt_estimate_ms;
  cfg.two_pc_coordinator = two_pc_coordinator;
  cfg.shards = shards;
  cfg.shard_by = shard_by;
  cfg.preload = preload;
  cfg.check_serializability = check_serializability;
  cfg.fault_plan = fault_plan;
  cfg.client_commit_timeout = client_timeout;
  cfg.client_max_retries = client_retries;
  cfg.trace.enabled = trace_enabled;
  if (trace_ring_capacity > 0) cfg.trace.ring_capacity = trace_ring_capacity;
  cfg.health_enabled = health_enabled;
  return cfg;
}

std::string ExperimentSpec::ToJson() const {
  std::string out;
  json::ObjectWriter w(&out);
  // Keys in alphabetical order — the deterministic-JSON contract.
  w.Field("check_serializability", check_serializability);
  w.Field("client_link_one_way_us", static_cast<int64_t>(client_link_one_way));
  // Omitted at their defaults so pre-timeout specs (and their sweep JSON)
  // stay byte-identical.
  if (client_retries != 3) {
    w.Field("client_retries", static_cast<int64_t>(client_retries));
  }
  if (client_timeout != 0) {
    w.Field("client_timeout_us", static_cast<int64_t>(client_timeout));
  }
  w.Field("clients", static_cast<int64_t>(clients));
  if (!clock_offsets.empty()) {
    w.Key("clock_offsets_us");
    out += '[';
    for (size_t i = 0; i < clock_offsets.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(clock_offsets[i]);
    }
    out += ']';
  }
  w.Field("drain_us", static_cast<int64_t>(drain));
  // Omitted when empty so pre-chaos specs (and their sweep JSON) stay
  // byte-identical.
  if (!fault_plan.empty()) w.Raw("fault_plan", fault_plan.ToJson());
  w.Field("grace_time_us", static_cast<int64_t>(grace_time));
  // Omitted at its default so pre-health specs stay byte-identical.
  if (health_enabled) w.Field("health_enabled", health_enabled);
  // Omitted at its default so pre-partitioning specs stay byte-identical.
  if (key_partitions != 1) {
    w.Field("key_partitions", static_cast<int64_t>(key_partitions));
  }
  if (!label.empty()) w.Field("label", label);
  w.Field("log_interval_us", static_cast<int64_t>(log_interval));
  w.Field("measure_us", static_cast<int64_t>(measure));
  w.Field("num_keys", num_keys);
  w.Field("ops_per_txn", static_cast<int64_t>(ops_per_txn));
  w.Field("preload", preload);
  w.Field("protocol", std::string(ProtocolToken(protocol)));
  w.Field("read_only_fraction", read_only_fraction);
  if (rtt_estimate_ms.has_value()) {
    w.Key("rtt_estimate_ms");
    out += '[';
    const int n = rtt_estimate_ms->size();
    for (int a = 0; a < n; ++a) {
      if (a > 0) out += ',';
      out += '[';
      for (int b = 0; b < n; ++b) {
        if (b > 0) out += ',';
        json::AppendDouble(&out, a == b ? 0.0 : rtt_estimate_ms->Get(a, b));
      }
      out += ']';
    }
    out += ']';
  }
  w.Field("seed", seed);
  // Omitted at their defaults so pre-sharding specs stay byte-identical.
  if (shard_by != "hash") w.Field("shard_by", shard_by);
  if (shards != 1) w.Field("shards", static_cast<int64_t>(shards));
  w.Field("topology", topology);
  // Omitted at their defaults so pre-tracing specs stay byte-identical.
  if (trace_enabled) w.Field("trace", trace_enabled);
  if (trace_ring_capacity != 0) {
    w.Field("trace_ring_capacity",
            static_cast<uint64_t>(trace_ring_capacity));
  }
  w.Field("two_pc_coordinator", static_cast<int64_t>(two_pc_coordinator));
  w.Field("uniform_dcs", static_cast<int64_t>(uniform_dcs));
  w.Field("uniform_rtt_ms", uniform_rtt_ms);
  w.Field("uniform_stddev_ms", uniform_stddev_ms);
  w.Field("value_size", static_cast<int64_t>(value_size));
  w.Field("warmup_us", static_cast<int64_t>(warmup));
  w.Field("write_fraction", write_fraction);
  w.Field("zipf_theta", zipf_theta);
  w.Close();
  return out;
}

Result<ExperimentSpec> ExperimentSpec::FromJson(const std::string& json) {
  auto parsed = json::Parse(json);
  if (!parsed.ok()) return parsed.status();
  const json::Value& root = parsed.value();
  if (root.kind != json::Value::Kind::kObject) {
    return Status::InvalidArgument("spec JSON must be an object");
  }

  ExperimentSpec spec;
  for (const auto& [key, v] : root.members) {
    Status st;
    if (key == "check_serializability") {
      st = json::ReadBool(key, v, &spec.check_serializability);
    } else if (key == "client_link_one_way_us") {
      st = json::ReadInt64(key, v, &spec.client_link_one_way);
    } else if (key == "client_retries") {
      st = json::ReadInt(key, v, &spec.client_retries);
    } else if (key == "client_timeout_us") {
      st = json::ReadInt64(key, v, &spec.client_timeout);
    } else if (key == "clients") {
      st = json::ReadInt(key, v, &spec.clients);
    } else if (key == "clock_offsets_us") {
      if (v.kind != json::Value::Kind::kArray) {
        st = json::WrongType(key, "an array");
      } else {
        spec.clock_offsets.clear();
        for (const json::Value& item : v.items) {
          Duration d = 0;
          st = json::ReadInt64(key, item, &d);
          if (!st.ok()) break;
          spec.clock_offsets.push_back(d);
        }
      }
    } else if (key == "drain_us") {
      st = json::ReadInt64(key, v, &spec.drain);
    } else if (key == "fault_plan") {
      auto plan = sim::FaultPlan::FromJsonValue(v);
      if (!plan.ok()) return plan.status();
      spec.fault_plan = std::move(plan).value();
    } else if (key == "grace_time_us") {
      st = json::ReadInt64(key, v, &spec.grace_time);
    } else if (key == "health_enabled") {
      st = json::ReadBool(key, v, &spec.health_enabled);
    } else if (key == "key_partitions") {
      st = json::ReadInt(key, v, &spec.key_partitions);
    } else if (key == "label") {
      st = json::ReadString(key, v, &spec.label);
    } else if (key == "log_interval_us") {
      st = json::ReadInt64(key, v, &spec.log_interval);
    } else if (key == "measure_us") {
      st = json::ReadInt64(key, v, &spec.measure);
    } else if (key == "num_keys") {
      st = json::ReadUint64(key, v, &spec.num_keys);
    } else if (key == "ops_per_txn") {
      st = json::ReadInt(key, v, &spec.ops_per_txn);
    } else if (key == "preload") {
      st = json::ReadBool(key, v, &spec.preload);
    } else if (key == "protocol") {
      std::string token;
      st = json::ReadString(key, v, &token);
      if (st.ok()) {
        auto p = ParseProtocolToken(token);
        if (!p.ok()) return p.status();
        spec.protocol = p.value();
      }
    } else if (key == "read_only_fraction") {
      st = json::ReadDouble(key, v, &spec.read_only_fraction);
    } else if (key == "rtt_estimate_ms") {
      if (v.kind != json::Value::Kind::kArray || v.items.empty()) {
        st = json::WrongType(key, "a non-empty array of arrays");
      } else {
        const int n = static_cast<int>(v.items.size());
        lp::RttMatrix m(n);
        for (int a = 0; a < n && st.ok(); ++a) {
          const json::Value& row = v.items[static_cast<size_t>(a)];
          if (row.kind != json::Value::Kind::kArray ||
              static_cast<int>(row.items.size()) != n) {
            st = json::WrongType(key, "a square matrix");
            break;
          }
          for (int b = a + 1; b < n && st.ok(); ++b) {
            double rtt = 0.0;
            st = json::ReadDouble(key, row.items[static_cast<size_t>(b)], &rtt);
            if (st.ok()) {
              if (rtt < 0.0) {
                st = json::WrongType(key, "a matrix of non-negative RTTs");
              } else {
                m.Set(a, b, rtt);
              }
            }
          }
        }
        if (st.ok()) spec.rtt_estimate_ms = std::move(m);
      }
    } else if (key == "seed") {
      st = json::ReadUint64(key, v, &spec.seed);
    } else if (key == "shard_by") {
      st = json::ReadString(key, v, &spec.shard_by);
    } else if (key == "shards") {
      st = json::ReadInt(key, v, &spec.shards);
    } else if (key == "topology") {
      st = json::ReadString(key, v, &spec.topology);
    } else if (key == "trace") {
      st = json::ReadBool(key, v, &spec.trace_enabled);
    } else if (key == "trace_ring_capacity") {
      uint64_t cap = 0;
      st = json::ReadUint64(key, v, &cap);
      if (st.ok()) spec.trace_ring_capacity = static_cast<size_t>(cap);
    } else if (key == "two_pc_coordinator") {
      st = json::ReadInt(key, v, &spec.two_pc_coordinator);
    } else if (key == "uniform_dcs") {
      st = json::ReadInt(key, v, &spec.uniform_dcs);
    } else if (key == "uniform_rtt_ms") {
      st = json::ReadDouble(key, v, &spec.uniform_rtt_ms);
    } else if (key == "uniform_stddev_ms") {
      st = json::ReadDouble(key, v, &spec.uniform_stddev_ms);
    } else if (key == "value_size") {
      st = json::ReadInt(key, v, &spec.value_size);
    } else if (key == "warmup_us") {
      st = json::ReadInt64(key, v, &spec.warmup);
    } else if (key == "write_fraction") {
      st = json::ReadDouble(key, v, &spec.write_fraction);
    } else if (key == "zipf_theta") {
      st = json::ReadDouble(key, v, &spec.zipf_theta);
    } else {
      return Status::InvalidArgument("unknown spec field '" + key + "'");
    }
    if (!st.ok()) return st;
  }
  return spec;
}

bool operator==(const ExperimentSpec& a, const ExperimentSpec& b) {
  auto estimates_equal = [&] {
    if (a.rtt_estimate_ms.has_value() != b.rtt_estimate_ms.has_value()) {
      return false;
    }
    if (!a.rtt_estimate_ms.has_value()) return true;
    if (a.rtt_estimate_ms->size() != b.rtt_estimate_ms->size()) return false;
    for (int i = 0; i < a.rtt_estimate_ms->size(); ++i) {
      for (int j = i + 1; j < a.rtt_estimate_ms->size(); ++j) {
        if (a.rtt_estimate_ms->Get(i, j) != b.rtt_estimate_ms->Get(i, j)) {
          return false;
        }
      }
    }
    return true;
  };
  return a.label == b.label && a.protocol == b.protocol &&
         a.topology == b.topology && a.uniform_dcs == b.uniform_dcs &&
         a.uniform_rtt_ms == b.uniform_rtt_ms &&
         a.uniform_stddev_ms == b.uniform_stddev_ms &&
         a.clients == b.clients && a.warmup == b.warmup &&
         a.measure == b.measure && a.drain == b.drain && a.seed == b.seed &&
         a.ops_per_txn == b.ops_per_txn &&
         a.write_fraction == b.write_fraction && a.num_keys == b.num_keys &&
         a.zipf_theta == b.zipf_theta && a.value_size == b.value_size &&
         a.read_only_fraction == b.read_only_fraction &&
         a.log_interval == b.log_interval && a.grace_time == b.grace_time &&
         a.client_link_one_way == b.client_link_one_way &&
         a.clock_offsets == b.clock_offsets &&
         a.two_pc_coordinator == b.two_pc_coordinator &&
         a.shards == b.shards && a.shard_by == b.shard_by &&
         a.preload == b.preload &&
         a.check_serializability == b.check_serializability &&
         a.fault_plan == b.fault_plan &&
         a.client_timeout == b.client_timeout &&
         a.client_retries == b.client_retries &&
         a.trace_enabled == b.trace_enabled &&
         a.trace_ring_capacity == b.trace_ring_capacity &&
         a.health_enabled == b.health_enabled && estimates_equal();
}

}  // namespace helios::harness
