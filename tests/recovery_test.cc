// Crash-recovery tests (docs/RECOVERY.md): WAL-backed amnesia restarts
// must reconstruct exactly the state an uncrashed replica would hold, the
// anti-entropy catch-up must close the gap a crashed replica missed, and
// the client commit timeout must keep closed-loop clients making progress
// while their requests vanish into a crashed datacenter.
//
// Four layers of coverage:
//   - WAL-replay equivalence: for each protocol, crash a replica after
//     traffic quiesces, recover it from its WAL, and compare its store
//     key-for-key against an identical run that never crashed.
//   - Restart promise: a Helios node back within one log interval of its
//     last send still gets its presumed-abort records to every peer.
//   - Catch-up: traffic continues while the replica is down; after
//     recovery the replica converges with the survivors and the pulled
//     suffix shows up in recovery.catchup_records.
//   - Crash during commit-wait: a full harness experiment with a
//     fault-plan outage and client timeouts — serializability holds,
//     every datacenter's clients keep committing, and the recovery and
//     timeout counters show the machinery actually fired.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/protocol.h"
#include "baselines/replicated_commit.h"
#include "baselines/two_pc_paxos.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "harness/topology.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "wal/wal_sink.h"
#include "workload/client.h"

namespace helios {
namespace {

// ---------------------------------------------------------------------------
// MemoryWal basics.

TEST(MemoryWalTest, AppendsSurviveAndResetDropsEverything) {
  wal::MemoryWal wal;
  rdict::LogRecord rec;
  rec.origin = 1;
  rec.ts = 42;
  ASSERT_TRUE(wal.AppendRecord(rec).ok());
  ASSERT_TRUE(wal.AppendRecord(rec).ok());
  rdict::Timetable table(3);
  table.Set(1, 1, 42);
  ASSERT_TRUE(wal.AppendTimetable(table).ok());
  EXPECT_EQ(wal.entries_appended(), 3u);
  EXPECT_EQ(wal.contents().records.size(), 2u);
  EXPECT_TRUE(wal.contents().has_timetable);
  EXPECT_EQ(wal.contents().timetable.Get(1, 1), 42);
  wal.Reset();
  EXPECT_EQ(wal.entries_appended(), 0u);
  EXPECT_TRUE(wal.contents().records.empty());
  EXPECT_FALSE(wal.contents().has_timetable);
}

// ---------------------------------------------------------------------------
// WAL-replay equivalence: protocol-agnostic rig so one driver can run the
// same scripted traffic against Helios, Replicated Commit and 2PC/Paxos.

struct ProtoRig {
  std::unique_ptr<sim::Scheduler> scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<ProtocolCluster> cluster;
  std::function<void(DcId)> crash;    ///< Network + process halves.
  std::function<void(DcId)> recover;
  std::function<Result<VersionedValue>(DcId, const Key&)> read_store;
  std::function<RecoveryStats()> stats;
};

ProtoRig MakeHeliosRig(int f) {
  ProtoRig rig;
  rig.scheduler = std::make_unique<sim::Scheduler>();
  const auto topo = harness::Table2Topology();
  rig.network = std::make_unique<sim::Network>(rig.scheduler.get(),
                                              topo.size(), 7);
  harness::ConfigureNetwork(topo, rig.network.get());
  core::HeliosConfig cfg;
  cfg.num_datacenters = topo.size();
  cfg.fault_tolerance = f;
  cfg.grace_time = Millis(400);
  cfg.log_interval = Millis(5);
  auto cluster = std::make_unique<core::HeliosCluster>(
      rig.scheduler.get(), rig.network.get(), cfg);
  auto* raw = cluster.get();
  rig.crash = [raw](DcId dc) { raw->CrashDatacenter(dc); };
  rig.recover = [raw](DcId dc) { raw->RecoverDatacenter(dc); };
  rig.read_store = [raw](DcId dc, const Key& key) {
    return raw->node(dc).store().Read(key);
  };
  rig.stats = [raw] { return raw->recovery_snapshot(); };
  rig.cluster = std::move(cluster);
  return rig;
}

ProtoRig MakeBaselineRig(bool two_pc, int n = 3) {
  ProtoRig rig;
  rig.scheduler = std::make_unique<sim::Scheduler>();
  rig.network = std::make_unique<sim::Network>(rig.scheduler.get(), n, 7);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      rig.network->SetRtt(a, b, Millis(80), 0);
    }
  }
  baselines::ReplicaConfig cfg;
  cfg.num_datacenters = n;
  std::unique_ptr<baselines::ReplicaCluster> cluster;
  if (two_pc) {
    cluster = std::make_unique<baselines::TwoPcPaxosCluster>(
        rig.scheduler.get(), rig.network.get(), cfg, /*coordinator=*/0);
  } else {
    cluster = std::make_unique<baselines::ReplicatedCommitCluster>(
        rig.scheduler.get(), rig.network.get(), cfg);
  }
  auto* raw = cluster.get();
  rig.crash = [&rig, raw](DcId dc) {
    rig.network->CrashNode(dc);
    raw->SetDatacenterDown(dc, true);
  };
  rig.recover = [&rig, raw](DcId dc) {
    rig.network->RecoverNode(dc);
    raw->SetDatacenterDown(dc, false);
  };
  rig.read_store = [raw](DcId dc, const Key& key) {
    return raw->store(dc).Read(key);
  };
  rig.stats = [raw] { return raw->recovery_snapshot(); };
  rig.cluster = std::move(cluster);
  return rig;
}

constexpr int kScriptTxns = 30;

Key ScriptKey(int i) { return "k" + std::to_string(i); }

InitialRows ScriptRows(int keys) {
  InitialRows rows;
  for (int k = 0; k < keys; ++k) rows.emplace_back(ScriptKey(k), "init");
  return rows;
}

/// Non-conflicting write-only transactions, one every 120 ms, round-robin
/// across datacenters. Deterministic, and identical in every rig built
/// from the same maker — the basis of the crashed-vs-control comparison.
void ScheduleScriptedTraffic(ProtoRig* rig,
                             std::shared_ptr<int> commits) {
  const int n = rig->cluster->num_datacenters();
  for (int i = 0; i < kScriptTxns; ++i) {
    const DcId dc = i % n;
    rig->scheduler->At(Millis(200 + i * 120), [rig, commits, i, dc] {
      rig->cluster->ClientCommit(
          dc, {}, {{ScriptKey(i), "v" + std::to_string(i)}},
          [commits](const CommitOutcome& o) {
            if (o.committed) ++*commits;
          });
    });
  }
}

void RunReplayEquivalence(std::function<ProtoRig()> make, DcId crash_dc) {
  // Rig A crashes `crash_dc` after traffic quiesces and recovers it from
  // its WAL; rig B is the uncrashed control.
  ProtoRig a = make();
  ProtoRig b = make();
  a.cluster->LoadInitialAll(ScriptRows(kScriptTxns));
  b.cluster->LoadInitialAll(ScriptRows(kScriptTxns));
  a.cluster->Start();
  b.cluster->Start();

  auto commits_a = std::make_shared<int>(0);
  auto commits_b = std::make_shared<int>(0);
  ScheduleScriptedTraffic(&a, commits_a);
  ScheduleScriptedTraffic(&b, commits_b);

  // Traffic ends ~3.8 s; crash well after every decision propagated.
  a.scheduler->At(Seconds(6), [&a, crash_dc] { a.crash(crash_dc); });
  a.scheduler->At(Seconds(8), [&a, crash_dc] { a.recover(crash_dc); });

  a.scheduler->RunUntil(Seconds(12));
  b.scheduler->RunUntil(Seconds(12));

  ASSERT_EQ(*commits_a, kScriptTxns);
  ASSERT_EQ(*commits_b, kScriptTxns);

  // The recovery actually exercised the WAL.
  const RecoveryStats stats = a.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.records_replayed, 0u);

  // Equivalence: at the same sim time, the recovered replica holds
  // exactly the versions the uncrashed control holds — writer identity
  // and value, key for key — and so does every survivor.
  const int n = a.cluster->num_datacenters();
  for (int k = 0; k < kScriptTxns; ++k) {
    const Key key = ScriptKey(k);
    for (DcId dc = 0; dc < n; ++dc) {
      auto va = a.read_store(dc, key);
      auto vb = b.read_store(dc, key);
      ASSERT_TRUE(va.ok()) << key << " dc " << dc;
      ASSERT_TRUE(vb.ok()) << key << " dc " << dc;
      EXPECT_EQ(va.value().writer, vb.value().writer) << key << " dc " << dc;
      EXPECT_EQ(va.value().value, vb.value().value) << key << " dc " << dc;
    }
  }
}

TEST(WalReplayEquivalence, Helios) {
  RunReplayEquivalence([] { return MakeHeliosRig(0); }, 2);
}

TEST(WalReplayEquivalence, ReplicatedCommit) {
  RunReplayEquivalence([] { return MakeBaselineRig(false); }, 2);
}

TEST(WalReplayEquivalence, TwoPcPaxosReplica) {
  RunReplayEquivalence([] { return MakeBaselineRig(true); }, 2);
}

// The recovered Helios node's unique-timestamp floor must exceed every
// timestamp it persisted before the crash (the Restore() contract that
// keeps post-recovery timestamps from colliding with pre-crash ones), and
// the WAL must contain the periodic timetable checkpoint.
TEST(WalReplayEquivalence, HeliosFloorAndTimetableSnapshot) {
  sim::Scheduler scheduler;
  const auto topo = harness::Table2Topology();
  sim::Network network(&scheduler, topo.size(), 7);
  harness::ConfigureNetwork(topo, &network);
  core::HeliosConfig cfg;
  cfg.num_datacenters = topo.size();
  cfg.fault_tolerance = 1;
  cfg.log_interval = Millis(5);
  core::HeliosCluster cluster(&scheduler, &network, cfg);
  cluster.LoadInitialAll({{"a", "init"}});
  cluster.Start();
  auto commits = std::make_shared<int>(0);
  for (int i = 0; i < 10; ++i) {
    scheduler.At(Millis(100 + i * 100), [&cluster, commits, i] {
      cluster.ClientCommit(2, {}, {{"a", "v" + std::to_string(i)}},
                           [commits](const CommitOutcome& o) {
                             if (o.committed) ++*commits;
                           });
    });
  }
  scheduler.At(Seconds(4), [&cluster] { cluster.CrashDatacenter(2); });
  scheduler.At(Seconds(5), [&cluster] { cluster.RecoverDatacenter(2); });
  scheduler.RunUntil(Seconds(8));
  ASSERT_GT(*commits, 0);

  const wal::WalContents& contents = cluster.wal_journal(2, 0)->contents();
  ASSERT_FALSE(contents.records.empty());
  EXPECT_TRUE(contents.has_timetable)
      << "GC tick never checkpointed the timetable";
  Timestamp max_own = kMinTimestamp;
  for (const auto& rec : contents.records) {
    if (rec.origin == 2 && rec.ts > max_own) max_own = rec.ts;
  }
  ASSERT_GT(max_own, kMinTimestamp);
  EXPECT_GE(cluster.clock(2).floor(), max_own);
}

// Promises sent before a crash are not journaled, so Restore promises the
// restart instant before it appends presumed-abort records. DC 2 sends at
// 994 and 1004 ms; its transaction's preparing record leaves at 1004, the
// process dies at 1005 and is back at 1007 ms, within one interval. An
// abort record stamped under the 1004 promise would never be ingested,
// leaving the transaction in every peer's EPTPool.
TEST(HeliosRestartTest, PresumedAbortReachesPeersAfterQuickRestart) {
  sim::Scheduler scheduler;
  const auto topo = harness::Table2Topology();
  sim::Network network(&scheduler, topo.size(), 7);
  harness::ConfigureNetwork(topo, &network);
  core::HeliosConfig cfg;
  cfg.num_datacenters = topo.size();
  cfg.log_interval = Millis(10);
  cfg.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  core::HeliosCluster cluster(&scheduler, &network, cfg);
  cluster.LoadInitialAll({{"a", "init"}});
  cluster.Start();
  bool replied = false;
  scheduler.At(Micros(1000500), [&cluster, &replied] {
    cluster.ClientCommit(2, {}, {{"a", "v"}},
                         [&replied](const CommitOutcome&) { replied = true; });
  });
  scheduler.At(Millis(1005), [&cluster] { cluster.CrashDatacenter(2); });
  scheduler.At(Millis(1007), [&cluster] { cluster.RecoverDatacenter(2); });
  scheduler.RunUntil(Seconds(4));

  EXPECT_FALSE(replied) << "the crash must catch the transaction pending";
  EXPECT_EQ(cluster.node(2).counters().aborts_liveness, 1u)
      << "Restore presumed no transaction aborted";
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    EXPECT_EQ(cluster.node(dc).ept_pool_size(), 0u) << "dc " << dc;
  }
}

// ---------------------------------------------------------------------------
// Catch-up: traffic keeps flowing while the replica is down; the pulled
// log suffix closes the gap and every replica converges.

TEST(CatchupTest, HeliosPullsMissedSuffixFromPeers) {
  ProtoRig rig = MakeHeliosRig(1);
  const int keys = 40;
  rig.cluster->LoadInitialAll(ScriptRows(keys));
  rig.cluster->Start();

  // One write every 100 ms from datacenter 0 for the whole run — many of
  // them land while datacenter 2 is down.
  auto commits = std::make_shared<int>(0);
  for (int i = 0; i < 100; ++i) {
    rig.scheduler->At(Millis(200 + i * 100), [&rig, commits, i, keys] {
      rig.cluster->ClientCommit(0, {},
                                {{ScriptKey(i % keys), "u" + std::to_string(i)}},
                                [commits](const CommitOutcome& o) {
                                  if (o.committed) ++*commits;
                                });
    });
  }

  rig.scheduler->At(Seconds(3), [&rig] { rig.crash(2); });
  rig.scheduler->At(Seconds(7), [&rig] { rig.recover(2); });
  rig.scheduler->RunUntil(Seconds(15));

  EXPECT_GT(*commits, 50);
  const RecoveryStats stats = rig.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_GT(stats.catchup_records, 0u)
      << "nothing pulled from peers despite traffic during the outage";
  EXPECT_GT(stats.duration_us, 0u);

  // Convergence: the recovered replica agrees with every survivor.
  const int n = rig.cluster->num_datacenters();
  for (int k = 0; k < keys; ++k) {
    const Key key = ScriptKey(k);
    auto v0 = rig.read_store(0, key);
    ASSERT_TRUE(v0.ok()) << key;
    for (DcId dc = 1; dc < n; ++dc) {
      auto v = rig.read_store(dc, key);
      ASSERT_TRUE(v.ok()) << key << " dc " << dc;
      EXPECT_EQ(v.value().writer, v0.value().writer) << key << " dc " << dc;
    }
  }
}

TEST(CatchupTest, BaselinesPullMissedDecisions) {
  for (const bool two_pc : {false, true}) {
    SCOPED_TRACE(two_pc ? "2pc" : "rc");
    ProtoRig rig = MakeBaselineRig(two_pc);
    const int keys = 40;
    rig.cluster->LoadInitialAll(ScriptRows(keys));
    rig.cluster->Start();

    auto commits = std::make_shared<int>(0);
    for (int i = 0; i < 80; ++i) {
      rig.scheduler->At(Millis(200 + i * 100), [&rig, commits, i, keys] {
        rig.cluster->ClientCommit(
            0, {}, {{ScriptKey(i % keys), "u" + std::to_string(i)}},
            [commits](const CommitOutcome& o) {
              if (o.committed) ++*commits;
            });
      });
    }

    // Crash a non-coordinator replica; commits continue on the majority.
    rig.scheduler->At(Seconds(3), [&rig] { rig.crash(2); });
    rig.scheduler->At(Seconds(6), [&rig] { rig.recover(2); });
    rig.scheduler->RunUntil(Seconds(12));

    EXPECT_GT(*commits, 40);
    const RecoveryStats stats = rig.stats();
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_GT(stats.catchup_records, 0u)
        << "no decisions pulled during catch-up";

    for (int k = 0; k < keys; ++k) {
      const Key key = ScriptKey(k);
      auto v0 = rig.read_store(0, key);
      ASSERT_TRUE(v0.ok()) << key;
      auto v2 = rig.read_store(2, key);
      ASSERT_TRUE(v2.ok()) << key;
      EXPECT_EQ(v2.value().writer, v0.value().writer) << key;
    }
  }
}

TEST(CatchupTest, BaselineSkipsPeerStillCatchingUp) {
  // Replicated Commit over five datacenters: 0 and 2 are down while 1
  // commits a write every 50 ms. 0 recovers first and pulls from 1; 2
  // recovers 1 ms later, while 0 is still catching up. 0 comes first in id
  // order but lacks every decision of the outage, so 2 must pull from a
  // caught-up peer instead.
  ProtoRig rig = MakeBaselineRig(/*two_pc=*/false, /*n=*/5);
  const int keys = 40;
  rig.cluster->LoadInitialAll(ScriptRows(keys));
  rig.cluster->Start();

  auto commits = std::make_shared<int>(0);
  for (int i = 0; i < keys; ++i) {
    rig.scheduler->At(Millis(1000 + i * 50), [&rig, commits, i] {
      rig.cluster->ClientCommit(1, {}, {{ScriptKey(i), "u" + std::to_string(i)}},
                                [commits](const CommitOutcome& o) {
                                  if (o.committed) ++*commits;
                                });
    });
  }
  rig.scheduler->At(Seconds(1), [&rig] {
    rig.crash(0);
    rig.crash(2);
  });
  rig.scheduler->At(Seconds(3), [&rig] { rig.recover(0); });
  rig.scheduler->At(Millis(3001), [&rig] { rig.recover(2); });
  rig.scheduler->RunUntil(Seconds(8));

  EXPECT_EQ(*commits, keys);
  EXPECT_EQ(rig.stats().recoveries, 2u);
  for (int k = 0; k < keys; ++k) {
    const Key key = ScriptKey(k);
    auto v1 = rig.read_store(1, key);
    ASSERT_TRUE(v1.ok()) << key;
    for (const DcId dc : {0, 2}) {
      auto v = rig.read_store(dc, key);
      ASSERT_TRUE(v.ok()) << key << " dc " << dc;
      EXPECT_EQ(v.value().writer, v1.value().writer) << key << " dc " << dc;
    }
  }
}

// ---------------------------------------------------------------------------
// Client commit timeout: unit test against a stub protocol that swallows
// the first commit request of every transaction — exactly what a crashed
// datacenter does — and answers the retry.

class SwallowFirstCommitCluster : public ProtocolCluster {
 public:
  explicit SwallowFirstCommitCluster(sim::Scheduler* scheduler)
      : scheduler_(scheduler) {}

  void Start() override {}
  void LoadInitialAll(const InitialRows&) override {}
  void ClientRead(DcId, const Key& key, ReadCallback done) override {
    scheduler_->After(Millis(1), [key, done = std::move(done)] {
      VersionedValue v;
      v.value = "stub";
      v.ts = 1;
      done(v);
    });
  }
  void ClientCommit(DcId, std::vector<ReadEntry>, std::vector<WriteEntry>,
                    CommitCallback done) override {
    ++commit_requests_;
    if (swallow_next_) {
      swallow_next_ = false;  // The retry of this txn gets an answer.
      ++swallowed_;
      return;
    }
    swallow_next_ = true;
    scheduler_->After(Millis(1), [done = std::move(done)] {
      done(CommitOutcome{TxnId{0, 1}, true, ""});
    });
  }
  void ClientReadOnly(DcId, std::vector<Key> keys,
                      ReadOnlyCallback done) override {
    std::vector<Result<VersionedValue>> out(keys.size(),
                                            Result<VersionedValue>(
                                                VersionedValue{}));
    scheduler_->After(Millis(1), [out = std::move(out),
                                  done = std::move(done)]() mutable {
      done(std::move(out));
    });
  }
  void TxnAbandon(DcId, const TxnId&) override { ++abandons_; }
  std::string name() const override { return "SwallowFirst"; }
  int num_datacenters() const override { return 1; }

  uint64_t commit_requests() const { return commit_requests_; }
  uint64_t swallowed() const { return swallowed_; }
  uint64_t abandons() const { return abandons_; }

 private:
  sim::Scheduler* scheduler_;
  bool swallow_next_ = true;
  uint64_t commit_requests_ = 0;
  uint64_t swallowed_ = 0;
  uint64_t abandons_ = 0;
};

TEST(ClientTimeoutTest, RetriesSwallowedCommitAndMakesProgress) {
  sim::Scheduler scheduler;
  SwallowFirstCommitCluster cluster(&scheduler);
  workload::WorkloadConfig wl;
  wl.ops_per_txn = 2;
  wl.write_fraction = 1.0;  // Write-only plans: no read phase needed.
  wl.num_keys = 100;
  workload::ClosedLoopClient client(/*id=*/0, /*home=*/0, &cluster, &scheduler,
                                    wl, /*seed=*/7, /*measure_from=*/0,
                                    /*measure_until=*/Seconds(5),
                                    /*stop_at=*/Seconds(5));
  client.SetCommitTimeout(Millis(100), /*max_retries=*/3,
                          /*backoff=*/Millis(10));
  client.Start();
  scheduler.RunUntil(Seconds(6));

  const workload::ClientMetrics& m = client.metrics();
  // Every transaction: first attempt swallowed -> timeout -> retry
  // committed. The client never wedges.
  EXPECT_GT(m.committed, 10u);
  EXPECT_EQ(m.timeouts, cluster.swallowed());
  // A timeout that fires at/after stop_at gives up instead of retrying,
  // so the final transaction may count aborted rather than retried.
  EXPECT_LE(m.timeouts - m.retries, 1u);
  EXPECT_LE(m.aborted, 1u);
  // Abandon released the (stub) server-side state for each timed-out
  // attempt.
  EXPECT_EQ(cluster.abandons(), m.timeouts);
}

TEST(ClientTimeoutTest, ZeroTimeoutNeverRetries) {
  sim::Scheduler scheduler;
  SwallowFirstCommitCluster cluster(&scheduler);
  workload::WorkloadConfig wl;
  wl.ops_per_txn = 2;
  wl.write_fraction = 1.0;
  wl.num_keys = 100;
  workload::ClosedLoopClient client(0, 0, &cluster, &scheduler, wl, 7, 0,
                                    Seconds(5), Seconds(5));
  client.Start();  // No SetCommitTimeout: the first swallow wedges it.
  scheduler.RunUntil(Seconds(6));
  EXPECT_EQ(client.metrics().committed, 0u);
  EXPECT_EQ(client.metrics().timeouts, 0u);
  EXPECT_EQ(cluster.commit_requests(), 1u);
}

// ---------------------------------------------------------------------------
// Crash during commit-wait, end to end through the harness: a datacenter
// dies mid-run with transactions waiting on their commit offsets (Helios)
// or on votes/decisions (the baselines). With client timeouts armed the
// run must stay serializable, make progress at every datacenter, and
// surface the recovery + timeout counters.

class CrashDuringCommitWait
    : public ::testing::TestWithParam<harness::Protocol> {};

TEST_P(CrashDuringCommitWait, SerializableAndLiveThroughOutage) {
  harness::ExperimentSpec spec;
  sim::FaultPlan plan;
  // For 2PC the crashed datacenter is the coordinator — the worst case:
  // every in-flight commit loses its locks and every client in the system
  // depends on the timeout until recovery.
  const int victim = GetParam() == harness::Protocol::kTwoPcPaxos ? 0 : 1;
  plan.AddCrash(Seconds(2), victim).AddRecover(Seconds(4), victim);
  spec.WithProtocol(GetParam())
      .WithTopology("table2")
      .WithClients(10)
      .WithWarmup(Seconds(1))
      .WithMeasure(Seconds(8))
      .WithDrain(Seconds(10))
      .WithSeed(42)
      .WithNumKeys(500)
      .WithFaultPlan(plan)
      // Wide enough that Singapore's fault-free 2PC round trips through
      // the Virginia coordinator never trip it; only the outage does.
      .WithClientTimeout(Seconds(2), /*retries=*/10)
      .WithSerializabilityCheck();
  ASSERT_TRUE(spec.Validate().ok());

  auto cfg_or = spec.ToConfig();
  ASSERT_TRUE(cfg_or.ok()) << cfg_or.status().ToString();
  harness::ExperimentConfig cfg = std::move(cfg_or).value();
  cfg.trace.enabled = true;  // For the metrics snapshot.
  const harness::ExperimentResult r = harness::RunExperiment(cfg);

  // Safety.
  ASSERT_TRUE(r.serializability.has_value());
  EXPECT_TRUE(r.serializability->ok()) << r.serializability->ToString();

  // Progress: no datacenter's clients wedged — even the crashed one's
  // clients resume after recovery, and everyone else rides out the
  // outage on timeout-retry.
  for (const harness::DcResult& dc : r.per_dc) {
    EXPECT_GT(dc.committed, 0u) << dc.name;
  }

  // The outage actually bit (clients timed out) and recovery actually
  // ran (WAL replayed, counters exported).
  EXPECT_GT(r.client_timeouts, 0u);
  const auto* recoveries = r.metrics.FindCounter("recovery.recoveries");
  ASSERT_NE(recoveries, nullptr) << "recovery counters not exported";
  EXPECT_GT(recoveries->value, 0u);
  const auto* replayed = r.metrics.FindCounter("recovery.records_replayed");
  ASSERT_NE(replayed, nullptr);
  EXPECT_GT(replayed->value, 0u);
  const auto* timeouts = r.metrics.FindCounter("client.timeouts");
  ASSERT_NE(timeouts, nullptr);
  EXPECT_EQ(timeouts->value, r.client_timeouts);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashDuringCommitWait,
    ::testing::Values(harness::Protocol::kHelios1,
                      harness::Protocol::kHelios2,
                      harness::Protocol::kReplicatedCommit,
                      harness::Protocol::kTwoPcPaxos),
    [](const ::testing::TestParamInfo<harness::Protocol>& info) {
      std::string name = harness::ProtocolToken(info.param);
      for (char& c : name) {
        if (c == '-' || c == '/') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace helios
