// Tests for the live-deployment cluster spec: JSON round trip, strict
// unknown-key rejection, and validation.

#include <gtest/gtest.h>

#include <string>

#include "transport/cluster_spec.h"

namespace helios::transport {
namespace {

ClusterSpec MakeSpec() {
  ClusterSpec spec;
  spec.datacenters = {{7101, "/tmp/dc0.wal"}, {7102, ""}, {7103, "/t/2.wal"}};
  spec.fault_tolerance = 1;
  spec.grace_time = Millis(500);
  spec.log_interval = Millis(5);
  spec.inbound_delay = Millis(12);
  spec.wal_options.policy = wal::SyncPolicy::kEveryRecord;
  spec.wal_options.group_commit_interval = std::chrono::microseconds(2500);
  return spec;
}

TEST(ClusterSpecTest, JsonRoundTrip) {
  const ClusterSpec spec = MakeSpec();
  ASSERT_TRUE(spec.Validate().ok());
  const std::string json = spec.ToJson();
  auto parsed = ClusterSpec::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClusterSpec& got = parsed.value();
  ASSERT_EQ(got.num_datacenters(), 3);
  EXPECT_EQ(got.datacenters[0].port, 7101);
  EXPECT_EQ(got.datacenters[0].wal_path, "/tmp/dc0.wal");
  EXPECT_EQ(got.datacenters[1].wal_path, "");
  EXPECT_EQ(got.fault_tolerance, 1);
  EXPECT_EQ(got.grace_time, Millis(500));
  EXPECT_EQ(got.log_interval, Millis(5));
  EXPECT_EQ(got.inbound_delay, Millis(12));
  EXPECT_EQ(got.wal_options.policy, wal::SyncPolicy::kEveryRecord);
  EXPECT_EQ(got.wal_options.group_commit_interval.count(), 2500);
  // Determinism: re-emission is byte-identical.
  EXPECT_EQ(got.ToJson(), json);
}

TEST(ClusterSpecTest, MakeConfigMirrorsSpec) {
  const core::HeliosConfig config = MakeSpec().MakeConfig();
  EXPECT_EQ(config.num_datacenters, 3);
  EXPECT_EQ(config.fault_tolerance, 1);
  EXPECT_EQ(config.grace_time, Millis(500));
  EXPECT_EQ(config.log_interval, Millis(5));
  EXPECT_TRUE(config.commit_offsets.empty());
}

TEST(ClusterSpecTest, HealthEnabledRoundTripsAndReachesConfig) {
  // Default off: the key is omitted, old spec files stay byte-identical.
  const ClusterSpec plain = MakeSpec();
  EXPECT_EQ(plain.ToJson().find("health_enabled"), std::string::npos);
  EXPECT_FALSE(plain.MakeConfig().health_enabled);

  ClusterSpec armed = MakeSpec();
  armed.health_enabled = true;
  const std::string json = armed.ToJson();
  EXPECT_NE(json.find("\"health_enabled\":true"), std::string::npos);
  auto parsed = ClusterSpec::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().health_enabled);
  EXPECT_TRUE(parsed.value().MakeConfig().health_enabled);
  EXPECT_EQ(parsed.value().ToJson(), json);
}

TEST(ClusterSpecTest, PortsIndexedByDc) {
  const std::vector<uint16_t> ports = MakeSpec().ports();
  ASSERT_EQ(ports.size(), 3u);
  EXPECT_EQ(ports[0], 7101);
  EXPECT_EQ(ports[2], 7103);
}

TEST(ClusterSpecTest, UnknownKeysRejected) {
  EXPECT_FALSE(ClusterSpec::FromJson("{\"datacentres\":[]}").ok());
  EXPECT_FALSE(
      ClusterSpec::FromJson(
          "{\"datacenters\":[{\"port\":1,\"walpath\":\"x\"}]}")
          .ok());
}

TEST(ClusterSpecTest, ValidationCatchesBadSpecs) {
  ClusterSpec empty;
  EXPECT_FALSE(empty.Validate().ok());

  ClusterSpec dup = MakeSpec();
  dup.datacenters[2].port = dup.datacenters[0].port;
  EXPECT_FALSE(dup.Validate().ok());

  ClusterSpec zero_port = MakeSpec();
  zero_port.datacenters[1].port = 0;
  EXPECT_FALSE(zero_port.Validate().ok());

  ClusterSpec bad_f = MakeSpec();
  bad_f.fault_tolerance = 3;
  EXPECT_FALSE(bad_f.Validate().ok());

  ClusterSpec bad_grace = MakeSpec();
  bad_grace.grace_time = 0;
  EXPECT_FALSE(bad_grace.Validate().ok());
}

TEST(ClusterSpecTest, ShardedSpecDerivesPortsAndWalPaths) {
  // Default off: the key is omitted, old spec files stay byte-identical,
  // and derived paths/ports are the plain per-DC ones.
  const ClusterSpec plain = MakeSpec();
  EXPECT_EQ(plain.ToJson().find("\"shards\""), std::string::npos);
  EXPECT_EQ(plain.PortOf(0, 0), 7101);
  EXPECT_EQ(plain.WalPathFor(0, 0), "/tmp/dc0.wal");

  ClusterSpec sharded = MakeSpec();
  sharded.shards = 2;
  ASSERT_TRUE(sharded.Validate().ok()) << sharded.Validate().ToString();
  const std::string json = sharded.ToJson();
  EXPECT_NE(json.find("\"shards\":2"), std::string::npos);
  auto parsed = ClusterSpec::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().shards, 2);
  EXPECT_EQ(parsed.value().ToJson(), json);

  // Port plane stride is num_datacenters: 7101..7103 then 7104..7106.
  EXPECT_EQ(sharded.PortOf(0, 1), 7104);
  EXPECT_EQ(sharded.PortOf(2, 1), 7106);
  const std::vector<uint16_t> plane1 = sharded.ports(1);
  ASSERT_EQ(plane1.size(), 3u);
  EXPECT_EQ(plane1[0], 7104);
  EXPECT_EQ(plane1[2], 7106);

  // WAL paths gain a shard suffix; an empty (WAL-less) path stays empty.
  EXPECT_EQ(sharded.WalPathFor(0, 0), "/tmp/dc0.wal.s0");
  EXPECT_EQ(sharded.WalPathFor(0, 1), "/tmp/dc0.wal.s1");
  EXPECT_EQ(sharded.WalPathFor(1, 1), "");
}

TEST(ClusterSpecTest, ShardedValidationCatchesPortCollisionsAndBadCounts) {
  ClusterSpec zero = MakeSpec();
  zero.shards = 0;
  EXPECT_FALSE(zero.Validate().ok());

  // dc1's base port sits exactly one plane-stride above dc0's, so dc0
  // shard 1 lands on dc1 shard 0.
  ClusterSpec collide;
  collide.datacenters = {{7101, ""}, {7103, ""}};
  collide.shards = 2;
  const Status st = collide.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("collides"), std::string::npos) << st.ToString();

  ClusterSpec overflow;
  overflow.datacenters = {{65535, ""}};
  overflow.shards = 2;
  EXPECT_FALSE(overflow.Validate().ok());
}

TEST(ClusterSpecTest, MissingFsyncDefaultsToGroupCommit) {
  auto parsed = ClusterSpec::FromJson("{\"datacenters\":[{\"port\":7101}]}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().wal_options.policy, wal::SyncPolicy::kGroupCommit);
  EXPECT_EQ(parsed.value().wal_options.group_commit_interval.count(), 5000);
}

TEST(ClusterSpecTest, BadFsyncSpellingRejected) {
  EXPECT_FALSE(
      ClusterSpec::FromJson("{\"datacenters\":[],\"fsync\":\"always\"}")
          .ok());
}

}  // namespace
}  // namespace helios::transport
