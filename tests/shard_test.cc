// Tests for src/shard and the sharded HeliosCluster: ShardMap routing and
// JSON strictness, the per-(datacenter, shard) journals, metrics and
// recovery of a cluster built directly, the cross-shard parallel-commit
// happy path, and the coordinator-crash recovery grid (crash during
// STAGED vs an uncrashed control) judged by the full oracle suite —
// including the shard_atomicity and staged_resolution oracles this
// subsystem ships with.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <memory>

#include "baselines/replicated_commit.h"
#include "check/oracles.h"
#include "check/runner.h"
#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "obs/metrics.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace helios::shard {
namespace {

namespace hns = helios::harness;

Key WorkloadKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// --- ShardMap ---------------------------------------------------------------

TEST(ShardMap, HashRoutingIsDeterministicAndCoversAllShards) {
  const ShardMap a = ShardMap::Hash(4);
  const ShardMap b = ShardMap::Hash(4);
  ASSERT_TRUE(a.Validate().ok());
  std::set<int> hit;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Key key = WorkloadKey(i);
    const int s = a.ShardOf(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    // Pure function of the key: a second instance agrees, forever.
    EXPECT_EQ(s, b.ShardOf(key));
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 4u) << "1000 keys left a hash shard empty";

  // The single-shard map routes everything to 0.
  const ShardMap one = ShardMap::Hash(1);
  ASSERT_TRUE(one.Validate().ok());
  EXPECT_EQ(one.ShardOf("anything"), 0);
}

TEST(ShardMap, RangeRoutingRespectsBoundaries) {
  const ShardMap map = ShardMap::Range({"b", "d"});
  ASSERT_TRUE(map.Validate().ok());
  EXPECT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.ShardOf("a"), 0);
  EXPECT_EQ(map.ShardOf("b"), 1);  // Boundary key belongs to the right side.
  EXPECT_EQ(map.ShardOf("c"), 1);
  EXPECT_EQ(map.ShardOf("d"), 2);
  EXPECT_EQ(map.ShardOf("z"), 2);
}

TEST(ShardMap, RangeOverWorkloadKeysPartitionsTheKeyspace) {
  constexpr int kShards = 4;
  constexpr uint64_t kKeys = 1000;
  const ShardMap map = ShardMap::RangeOverWorkloadKeys(kShards, kKeys);
  ASSERT_TRUE(map.Validate().ok()) << map.Validate().ToString();
  std::vector<uint64_t> owned(kShards, 0);
  int prev = 0;
  for (uint64_t i = 0; i < kKeys; ++i) {
    const int s = map.ShardOf(WorkloadKey(i));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, kShards);
    // Contiguity: keys in generator order never move to a lower shard.
    ASSERT_GE(s, prev) << "key " << i << " broke range contiguity";
    prev = s;
    ++owned[static_cast<size_t>(s)];
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(owned[static_cast<size_t>(s)], kKeys / kShards)
        << "shard " << s << " owns an uneven slice";
  }
}

TEST(ShardMap, JsonRoundTripIsStrict) {
  for (const ShardMap& map :
       {ShardMap::Hash(4), ShardMap::Range({"b", "d"}),
        ShardMap::RangeOverWorkloadKeys(3, 300)}) {
    const std::string json = map.ToJson();
    const auto parsed = ShardMap::FromJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed.value() == map) << json;
    EXPECT_EQ(parsed.value().ToJson(), json);
  }
  // Unknown keys are an error, not a shrug.
  EXPECT_FALSE(ShardMap::FromJson(R"({"kind":"hash","shards":2,"x":1})").ok());
  // A hash map must not carry boundaries.
  EXPECT_FALSE(
      ShardMap::FromJson(R"({"boundaries":["m"],"kind":"hash","shards":2})")
          .ok());
  // A range map needs exactly shards - 1 split points.
  EXPECT_FALSE(
      ShardMap::FromJson(R"({"boundaries":["m"],"kind":"range","shards":3})")
          .ok());
}

TEST(ShardMap, RangeOverWorkloadKeysClampsShardsToKeys) {
  // More shards than keys would otherwise emit duplicate boundary strings
  // (an overlapping map); the generator clamps so every shard owns >= 1
  // key and the result always validates.
  const ShardMap clamped = ShardMap::RangeOverWorkloadKeys(8, 3);
  ASSERT_TRUE(clamped.Validate().ok()) << clamped.Validate().ToString();
  EXPECT_EQ(clamped.num_shards(), 3);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(clamped.ShardOf(WorkloadKey(i)), static_cast<int>(i));
  }
  // Degenerate corners collapse to the single-shard map.
  EXPECT_EQ(ShardMap::RangeOverWorkloadKeys(4, 0).num_shards(), 1);
  EXPECT_EQ(ShardMap::RangeOverWorkloadKeys(0, 100).num_shards(), 1);
  // Exactly one key per shard is the tightest valid split.
  const ShardMap tight = ShardMap::RangeOverWorkloadKeys(5, 5);
  ASSERT_TRUE(tight.Validate().ok()) << tight.Validate().ToString();
  EXPECT_EQ(tight.num_shards(), 5);
}

TEST(ShardMap, RejectsEmptyAndOverlappingPartitions) {
  {
    const Status s = ShardMap::Range({"", "b"}).Validate();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("empty"), std::string::npos) << s.ToString();
  }
  {
    // Equal neighbours: the middle shard would own [b, b) = nothing.
    const Status s = ShardMap::Range({"b", "b"}).Validate();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("overlapping"), std::string::npos)
        << s.ToString();
  }
  {
    const Status s = ShardMap::Range({"d", "b"}).Validate();
    ASSERT_FALSE(s.ok());
  }
}

// --- ExperimentSpec plumbing ------------------------------------------------

TEST(ShardSpec, ShardFieldsRoundTripAndDefaultsAreOmitted) {
  hns::ExperimentSpec plain;
  EXPECT_EQ(plain.ToJson().find("\"shards\""), std::string::npos)
      << "default spec JSON must stay byte-identical to pre-sharding specs";
  EXPECT_EQ(plain.ToJson().find("\"shard_by\""), std::string::npos);

  hns::ExperimentSpec spec;
  spec.WithProtocol(hns::Protocol::kHelios1).WithShards(2).WithShardBy(
      "range");
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();
  const auto parsed = hns::ExperimentSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);

  // Baselines cannot shard: the cross-shard wait-base coupling leans on
  // the Helios commit rules.
  hns::ExperimentSpec bad = spec;
  bad.WithProtocol(hns::Protocol::kReplicatedCommit);
  EXPECT_FALSE(bad.Validate().ok());
  bad.WithProtocol(hns::Protocol::kMessageFutures);
  EXPECT_FALSE(bad.Validate().ok());
}

// --- Cross-shard commit, end to end -----------------------------------------

/// A small contended multi-shard deployment: most transactions touch both
/// shards, so the parallel-commit path carries real traffic.
hns::ExperimentSpec CrossShardBase(hns::Protocol protocol) {
  hns::ExperimentSpec spec;
  spec.WithProtocol(protocol)
      .WithTopology("example3")
      .WithClients(8)
      .WithWarmup(Millis(500))
      .WithMeasure(Millis(2500))
      .WithDrain(Millis(1500))
      .WithNumKeys(2000)
      .WithSeed(7)
      .WithShards(2)
      .WithSerializabilityCheck();
  return spec;
}

TEST(CrossShardCommit, HappyPathCommitsAndPassesEveryOracle) {
  const hns::ExperimentSpec spec = CrossShardBase(hns::Protocol::kHelios1);
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();
  auto cfg = spec.ToConfig();
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  hns::ExperimentConfig config = std::move(cfg).value();
  check::ConfigureForChecking(&config);
  const hns::ExperimentResult result = hns::RunExperiment(config);

  const check::OracleReport report = check::RunOracles(spec, result);
  EXPECT_TRUE(report.ok()) << report.Summary();

  // The run must exercise BOTH commit paths: single-shard fast path and
  // staged cross-shard commits.
  const auto* committed = result.metrics.FindCounter("xshard.committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_GT(committed->value, 0u);
  const auto* single = result.metrics.FindCounter("xshard.single_shard");
  ASSERT_NE(single, nullptr);
  EXPECT_GT(single->value, 0u);
  const auto* staged = result.metrics.FindCounter("xshard.staged");
  ASSERT_NE(staged, nullptr);
  EXPECT_GE(staged->value, committed->value);

  // Sharded captures route durability through per-shard journals.
  ASSERT_NE(result.capture, nullptr);
  EXPECT_EQ(result.capture->shards, 2);
  EXPECT_EQ(result.capture->shard_wals.size(), 3u * 2u);
}

TEST(CrossShardCommit, RangeShardingPassesEveryOracle) {
  hns::ExperimentSpec spec = CrossShardBase(hns::Protocol::kHelios1);
  spec.WithShardBy("range").WithSeed(11);
  const check::ScenarioVerdict verdict = check::RunScenario(spec);
  EXPECT_TRUE(verdict.ok()) << verdict.report.Summary();
}

// --- Liveness under extreme contention ---------------------------------------

/// Regression for the fuzzer-found cross-shard livelock: a tiny keyspace
/// over many range shards makes nearly every transaction cross-shard and
/// mutually conflicting, and before wait-die + the waiter fence + client
/// abort backoff every interleaving aborted symmetrically — zero commits
/// over the whole window. The protocol must keep committing (and stay
/// serializable) even at this adversarial point.
TEST(CrossShardCommit, ContendedTinyKeyspaceStillCommits) {
  hns::ExperimentSpec spec;
  spec.WithProtocol(hns::Protocol::kHelios2)
      .WithUniformTopology(5, 33.5)
      .WithClients(8)
      .WithWarmup(Millis(500))
      .WithMeasure(Millis(2500))
      .WithDrain(Millis(1500))
      .WithNumKeys(31)
      .WithZipfTheta(0.0)
      .WithSeed(7)
      .WithShards(4)
      .WithShardBy("range")
      .WithSerializabilityCheck();
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();
  auto cfg = spec.ToConfig();
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  hns::ExperimentConfig config = std::move(cfg).value();
  check::ConfigureForChecking(&config);
  const hns::ExperimentResult result = hns::RunExperiment(config);

  const check::OracleReport report = check::RunOracles(spec, result);
  EXPECT_TRUE(report.ok()) << report.Summary();

  const auto* committed = result.metrics.FindCounter("protocol.commits");
  ASSERT_NE(committed, nullptr);
  EXPECT_GT(committed->value, 0u) << "cross-shard livelock: nothing committed";
  // The wait arm must actually engage at this contention level.
  const auto* waited = result.metrics.FindCounter("xshard.slices_waited");
  ASSERT_NE(waited, nullptr);
  EXPECT_GT(waited->value, 0u);
}

// --- Capacity: a second shard adds throughput --------------------------------

/// Committed transactions per simulated second on a disjoint-key workload
/// (key_partitions=2: every transaction stays inside one contiguous half
/// of the keyspace), unsharded or over `shards` range shards. Counting in
/// simulated time makes the figure deterministic and independent of the
/// host: it measures the modeled capacity of an extra log/apply plane
/// (docs/SHARDING.md), not machine speed.
double CommittedPerSimSecond(int shards) {
  hns::ExperimentSpec spec;
  spec.WithProtocol(hns::Protocol::kHelios1)
      .WithClients(300)
      .WithNumKeys(20000)
      .WithKeyPartitions(2)
      .WithWarmup(Seconds(1))
      .WithMeasure(Seconds(1))
      .WithSeed(42);
  if (shards > 1) spec.WithShards(shards).WithShardBy("range");
  auto cfg = spec.ToConfig();
  EXPECT_TRUE(cfg.ok()) << cfg.status().ToString();
  if (!cfg.ok()) return 0;
  const hns::ExperimentResult result = hns::RunExperiment(cfg.value());
  uint64_t committed = 0;
  for (const auto& dc : result.per_dc) committed += dc.committed;
  const double measured_s = static_cast<double>(spec.measure) / Seconds(1);
  return static_cast<double>(committed) / measured_s;
}

TEST(ShardScaling, TwoRangeShardsCommitHalfAgainAsMuchAsOne) {
  const double one = CommittedPerSimSecond(1);
  const double two = CommittedPerSimSecond(2);
  ASSERT_GT(one, 0);
  EXPECT_GE(two, 1.5 * one) << "1 shard: " << one << " txn/sim-s, 2 shards: "
                            << two << " txn/sim-s";
}

// --- Wait-die parked slices vs the coordinator's finalize --------------------

/// A single-datacenter Helios rig driven through the staged-slice node
/// API directly, so the park/finalize interleavings are deterministic.
/// txn_seq_start/stride mimic a shard plane: plain transactions mint even
/// sequence numbers, leaving odd ones for injected "coordinator" ids.
struct SliceRig {
  sim::Scheduler scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<core::HeliosCluster> cluster;
};

std::unique_ptr<SliceRig> MakeSliceRig() {
  auto rig = std::make_unique<SliceRig>();
  core::HeliosConfig cfg;
  cfg.num_datacenters = 1;
  cfg.log_interval = Millis(5);
  cfg.client_link_one_way = Micros(500);
  cfg.txn_seq_start = 2;
  cfg.txn_seq_stride = 2;
  rig->network = std::make_unique<sim::Network>(&rig->scheduler, 1, 1);
  rig->cluster = std::make_unique<core::HeliosCluster>(
      &rig->scheduler, rig->network.get(), std::move(cfg),
      core::LogProtocolKind::kHelios);
  rig->cluster->Start();
  return rig;
}

/// Regression for the parked-slice liveness wedge: a finalize-abort used
/// to be a no-op for a slice parked in wait-die (it is in neither
/// pending_ nor staged_holds_), so its off-queue retry would later admit
/// into a transaction the coordinator had already forgotten — an intent
/// nobody finalizes, aborting every conflicting admission on its keys
/// forever. The finalize must doom the parked waiter instead.
TEST(CrossShardSlice, FinalizeAbortCancelsParkedWaiter) {
  auto rig = MakeSliceRig();
  core::HeliosNode& node = rig->cluster->node(0);

  const TxnId older{0, 1};     // The transaction that parks.
  const TxnId younger{0, 101};  // Its younger conflicting blocker.
  core::StagedAdmitOutcome older_admit;
  bool older_admit_seen = false;
  bool any_prepared = false;

  rig->scheduler.At(Millis(10), [&] {
    node.HandleStagedCommit(
        younger, {}, {{"k", "1"}},
        [](const core::StagedAdmitOutcome&) {},
        [&](const core::StagedCommitOutcome& out) {
          any_prepared = any_prepared || out.prepared;
        });
  });
  // The older slice conflicts with the still-pending younger one and
  // every blocker is younger, so wait-die parks it instead of aborting.
  rig->scheduler.At(Millis(11), [&] {
    node.HandleStagedCommit(
        older, {}, {{"k", "2"}},
        [&](const core::StagedAdmitOutcome& out) {
          older_admit = out;
          older_admit_seen = true;
        },
        [&](const core::StagedCommitOutcome& out) {
          any_prepared = any_prepared || out.prepared;
        });
  });
  // The coordinator gives up (a sibling shard failed admission) and
  // finalize-aborts both slices while the older one is parked.
  rig->scheduler.At(Millis(12), [&] {
    EXPECT_FALSE(older_admit_seen) << "older slice should be parked";
    EXPECT_EQ(node.staged_waiting_count(), 1u);
    node.HandleFinalizeStaged(older, false, kMinTimestamp);
    node.HandleFinalizeStaged(younger, false, kMinTimestamp);
  });
  rig->scheduler.RunUntil(Seconds(1));

  // The parked slice's retry aborted on the doomed marker instead of
  // admitting into the forgotten transaction.
  ASSERT_TRUE(older_admit_seen);
  EXPECT_FALSE(older_admit.admitted);
  EXPECT_EQ(older_admit.abort_reason, "xshard:abort");
  EXPECT_FALSE(any_prepared);
  EXPECT_EQ(node.pt_pool_size(), 0u);
  EXPECT_EQ(node.staged_hold_count(), 0u);
  EXPECT_EQ(node.staged_waiting_count(), 0u);

  // The keys are free again: a plain transaction on "k" commits.
  CommitOutcome plain;
  bool plain_done = false;
  rig->cluster->ClientCommit(0, {}, {{"k", "3"}},
                             [&](const CommitOutcome& o) {
                               plain = o;
                               plain_done = true;
                             });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(plain_done);
  EXPECT_TRUE(plain.committed) << plain.abort_reason;
}

/// The waiter fence must guard plain admissions too: without it, a
/// stream of single-shard transactions on a parked slice's keys occupies
/// the pools at every wait-die poll and starves the older waiter through
/// its whole retry budget.
TEST(CrossShardSlice, PlainAdmissionRespectsWaiterFence) {
  auto rig = MakeSliceRig();
  core::HeliosNode& node = rig->cluster->node(0);

  const TxnId older{0, 1};
  const TxnId younger{0, 101};
  rig->scheduler.At(Millis(10), [&] {
    node.HandleStagedCommit(younger, {}, {{"k", "1"}},
                            [](const core::StagedAdmitOutcome&) {},
                            [](const core::StagedCommitOutcome&) {});
  });
  // The older slice writes {k, j}: it parks on the k-conflict, and while
  // parked its whole footprint — including j, which no pool entry holds —
  // is fenced against younger admissions.
  rig->scheduler.At(Millis(11), [&] {
    node.HandleStagedCommit(older, {}, {{"k", "2"}, {"j", "2"}},
                            [](const core::StagedAdmitOutcome&) {},
                            [](const core::StagedCommitOutcome&) {});
  });
  CommitOutcome plain;
  bool plain_done = false;
  rig->scheduler.At(Millis(12), [&] {
    rig->cluster->ClientCommit(0, {}, {{"j", "9"}},
                               [&](const CommitOutcome& o) {
                                 plain = o;
                                 plain_done = true;
                               });
  });
  rig->scheduler.RunUntil(Millis(30));
  ASSERT_TRUE(plain_done);
  EXPECT_FALSE(plain.committed) << "plain admission streamed past the fence";
  EXPECT_EQ(plain.abort_reason, "conflict:waiting");

  // Once the coordinator resolves both slices the fence lifts.
  node.HandleFinalizeStaged(older, false, kMinTimestamp);
  node.HandleFinalizeStaged(younger, false, kMinTimestamp);
  CommitOutcome after;
  bool after_done = false;
  rig->scheduler.At(Millis(40), [&] {
    rig->cluster->ClientCommit(0, {}, {{"j", "10"}},
                               [&](const CommitOutcome& o) {
                                 after = o;
                                 after_done = true;
                               });
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(after_done);
  EXPECT_TRUE(after.committed) << after.abort_reason;
}

// --- One cluster class for any shard count --------------------------------

/// A Table 2 deployment split into shards at the key "m": keys below it
/// live on shard 0, the rest on shard 1.
struct ShardedRig {
  explicit ShardedRig(ShardMap map) {
    const hns::Topology topo = hns::Table2Topology();
    network = std::make_unique<sim::Network>(&scheduler, topo.size(), 7);
    hns::ConfigureNetwork(topo, network.get());
    core::HeliosConfig cfg;
    cfg.num_datacenters = topo.size();
    cfg.log_interval = Millis(5);
    cfg.commit_offsets = hns::PlanCommitOffsets(topo, std::nullopt);
    cluster = std::make_unique<core::HeliosCluster>(
        &scheduler, network.get(), std::move(cfg),
        core::LogProtocolKind::kHelios, "Helios", std::move(map));
  }
  sim::Scheduler scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<core::HeliosCluster> cluster;
};

std::set<std::string> ExportedNames(const core::HeliosCluster& cluster) {
  obs::MetricsRegistry registry;
  cluster.ExportMetrics(&registry);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  std::set<std::string> names;
  for (const auto& c : snap.counters) names.insert(c.name);
  for (const auto& g : snap.gauges) names.insert(g.name);
  return names;
}

bool HasShardKey(const std::set<std::string>& names) {
  for (const std::string& name : names) {
    if (name.rfind("xshard.", 0) == 0 || name.rfind("shard.s", 0) == 0 ||
        name.find(".staged_holds") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(HeliosClusterShards, ShardKeysAreExportedOnlyWithSeveralShards) {
  const ShardedRig one{ShardMap()};
  const std::set<std::string> unsharded = ExportedNames(*one.cluster);
  EXPECT_EQ(unsharded.count("protocol.commits"), 1u);
  EXPECT_FALSE(HasShardKey(unsharded));

  const ShardedRig two{ShardMap::Range({"m"})};
  const std::set<std::string> sharded = ExportedNames(*two.cluster);
  EXPECT_EQ(sharded.count("protocol.commits"), 1u);
  EXPECT_EQ(sharded.count("xshard.committed"), 1u);
  EXPECT_EQ(sharded.count("shard.s1.commits"), 1u);
  EXPECT_EQ(sharded.count("node.dc0.staged_holds"), 1u);
}

TEST(HeliosClusterShards, JournalsAreIndexedByDatacenterAndShard) {
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 3, 1);
  core::HeliosConfig cfg;
  cfg.num_datacenters = 3;
  const core::HeliosCluster cluster(&scheduler, &network, cfg,
                                    core::LogProtocolKind::kHelios, "Helios",
                                    ShardMap::Hash(2));
  ASSERT_EQ(cluster.num_shards(), 2);
  std::set<const wal::MemoryWal*> journals;
  for (DcId dc = 0; dc < 3; ++dc) {
    for (int s = 0; s < 2; ++s) {
      const wal::MemoryWal* journal = cluster.wal_journal(dc, s);
      ASSERT_NE(journal, nullptr) << "dc " << dc << " shard " << s;
      journals.insert(journal);
    }
  }
  EXPECT_EQ(journals.size(), 6u);

  baselines::ReplicaConfig rc;
  rc.num_datacenters = 3;
  const baselines::ReplicatedCommitCluster baseline(&scheduler, &network, rc);
  EXPECT_EQ(baseline.num_shards(), 1);
  EXPECT_NE(baseline.wal_journal(0, 0), nullptr);
}

TEST(HeliosClusterShards, RecoveryRestoresEveryShardNodeOfTheDatacenter) {
  ShardedRig rig{ShardMap::Range({"m"})};
  core::HeliosCluster& cluster = *rig.cluster;
  cluster.LoadInitialAll({{"a", "init"}, {"z", "init"}});
  cluster.Start();
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    rig.scheduler.At(Millis(100 + i * 100), [&cluster, &committed, i] {
      for (const char* key : {"a", "z"}) {  // One commit on each shard.
        cluster.ClientCommit(2, {}, {{key, "v" + std::to_string(i)}},
                             [&committed](const CommitOutcome& o) {
                               if (o.committed) ++committed;
                             });
      }
    });
  }
  const DcId victim = 2;
  uint64_t journaled = 0;
  rig.scheduler.At(Seconds(2), [&cluster] { cluster.CrashDatacenter(victim); });
  rig.scheduler.At(Seconds(3), [&cluster, &journaled] {
    for (int s = 0; s < cluster.num_shards(); ++s) {
      journaled += cluster.wal_journal(victim, s)->contents().records.size();
    }
    cluster.RecoverDatacenter(victim);
  });
  rig.scheduler.RunUntil(Seconds(6));

  EXPECT_EQ(committed, 10);
  EXPECT_GT(cluster.wal_journal(victim, 0)->contents().records.size(), 0u);
  EXPECT_GT(cluster.wal_journal(victim, 1)->contents().records.size(), 0u);
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_FALSE(cluster.node(victim, s).down()) << "shard " << s;
    EXPECT_FALSE(cluster.node(victim, s).recovering()) << "shard " << s;
  }
  const RecoveryStats stats = cluster.recovery_snapshot();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.records_replayed, journaled);
}

#if GTEST_HAS_DEATH_TEST
TEST(HeliosClusterDeathTest, InvalidShardMapAbortsEvenWithoutAsserts) {
  core::HeliosConfig cfg;
  cfg.num_datacenters = 1;
  EXPECT_DEATH(
      {
        sim::Scheduler scheduler;
        sim::Network network(&scheduler, 1, 1);
        core::HeliosCluster cluster(&scheduler, &network, cfg,
                                    core::LogProtocolKind::kHelios, "Helios",
                                    ShardMap::Range({"b", "b"}));
      },
      "invalid shard map");
}
#endif

// --- Coordinator crash during STAGED ----------------------------------------

/// Crash the coordinator datacenter mid-window (cross-shard transactions
/// in flight are mid-STAGED), recover it, and let the resolution path
/// finish the abandoned intents. The oracle suite — shard_atomicity,
/// staged_resolution, exactly_once, wal_replay — judges the outcome
/// against an uncrashed control of the same spec.
TEST(CoordinatorCrash, StagedRecoveryGridVsControl) {
  for (const hns::Protocol protocol :
       {hns::Protocol::kHelios1, hns::Protocol::kHelios2}) {
    SCOPED_TRACE(hns::ProtocolName(protocol));

    hns::ExperimentSpec crashed = CrossShardBase(protocol);
    crashed.WithMeasure(Millis(4000))
        .WithDrain(Millis(2500))
        .WithNumKeys(500)
        .WithClientTimeout(Millis(1500), /*retries=*/10);
    crashed.fault_plan.AddCrash(Millis(1500), /*node=*/0);
    crashed.fault_plan.AddRecover(Millis(3500), /*node=*/0);
    ASSERT_TRUE(crashed.Validate().ok()) << crashed.Validate().ToString();

    hns::ExperimentSpec control = CrossShardBase(protocol);
    control.WithMeasure(Millis(4000)).WithDrain(Millis(2500)).WithNumKeys(
        500);

    const check::ScenarioVerdict crashed_verdict =
        check::RunScenario(crashed);
    EXPECT_TRUE(crashed_verdict.ok()) << crashed_verdict.report.Summary();
    const check::ScenarioVerdict control_verdict =
        check::RunScenario(control);
    EXPECT_TRUE(control_verdict.ok()) << control_verdict.report.Summary();
  }
}

}  // namespace
}  // namespace helios::shard
