// Integration tests for the comparison baselines of Section 5.2:
// Replicated Commit (majority locking + accept round) and 2PC/Paxos
// (coordinator 2PL + leader-lease Paxos replication).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/replicated_commit.h"
#include "baselines/two_pc_paxos.h"
#include "common/random.h"
#include "core/history.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "txn/transaction.h"
#include "wal/wal_sink.h"

namespace helios::baselines {
namespace {

struct Rig {
  sim::Scheduler scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<ProtocolCluster> cluster;

  ReplicatedCommitCluster& rc() {
    return *static_cast<ReplicatedCommitCluster*>(cluster.get());
  }
  TwoPcPaxosCluster& tp() {
    return *static_cast<TwoPcPaxosCluster*>(cluster.get());
  }
};

std::unique_ptr<Rig> MakeRig(int n, Duration rtt, bool two_pc,
                             DcId coordinator = 0) {
  auto rig = std::make_unique<Rig>();
  rig->network = std::make_unique<sim::Network>(&rig->scheduler, n, 13);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) rig->network->SetRtt(a, b, rtt, 0);
  }
  ReplicaConfig cfg;
  cfg.num_datacenters = n;
  if (two_pc) {
    rig->cluster = std::make_unique<TwoPcPaxosCluster>(
        &rig->scheduler, rig->network.get(), cfg, coordinator);
  } else {
    rig->cluster = std::make_unique<ReplicatedCommitCluster>(
        &rig->scheduler, rig->network.get(), cfg);
  }
  rig->cluster->Start();
  return rig;
}

struct TxnDriver {
  Rig* rig;
  DcId home;
  TxnId id;
  std::vector<ReadEntry> reads;
  bool read_failed = false;
  CommitOutcome outcome;
  Duration commit_latency = -1;
  bool done = false;

  explicit TxnDriver(Rig* r, DcId dc) : rig(r), home(dc) {
    id = rig->cluster->BeginTxn(dc);
  }

  void Read(const Key& key, std::function<void()> then) {
    rig->cluster->TxnRead(home, id, key, [this, key, then](auto r) {
      if (r.ok()) {
        reads.push_back({key, r.value().ts, r.value().writer});
      } else if (r.status().code() == StatusCode::kNotFound) {
        reads.push_back({key, kMinTimestamp, TxnId{}});
      } else {
        read_failed = true;
        rig->cluster->TxnAbandon(home, id);
      }
      then();
    });
  }

  void Commit(std::vector<WriteEntry> writes) {
    const sim::SimTime start = rig->scheduler.Now();
    rig->cluster->TxnCommit(home, id, reads, std::move(writes),
                            [this, start](const CommitOutcome& o) {
                              outcome = o;
                              commit_latency = rig->scheduler.Now() - start;
                              done = true;
                            });
  }
};

// --- Replicated Commit ---------------------------------------------------------

TEST(ReplicatedCommitTest, SimpleCommitAppliesEverywhere) {
  auto rig = MakeRig(5, Millis(80), /*two_pc=*/false);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 1);
  rig->scheduler.At(Millis(10), [txn] {
    txn->Read("x", [txn] { txn->Commit({{"x", "v"}}); });
  });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(txn->done);
  EXPECT_TRUE(txn->outcome.committed);
  // Commit latency ~ one RTT to the closest majority (symmetric: 80ms).
  EXPECT_GE(txn->commit_latency, Millis(80));
  EXPECT_LE(txn->commit_latency, Millis(95));
  for (DcId dc = 0; dc < 5; ++dc) {
    auto v = rig->rc().store(dc).Read("x");
    ASSERT_TRUE(v.ok()) << dc;
    EXPECT_EQ(v.value().value, "v");
  }
  // All locks released after the decision propagates.
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(rig->rc().locks(dc).locked_keys(), 0u) << dc;
  }
}

TEST(ReplicatedCommitTest, ReadLatencyIsMajorityRtt) {
  auto rig = MakeRig(5, Millis(100), /*two_pc=*/false);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 0);
  sim::SimTime read_done = -1;
  rig->scheduler.At(0, [&, txn] {
    txn->Read("x", [&, txn] { read_done = rig->scheduler.Now(); });
  });
  rig->scheduler.RunUntil(Seconds(5));
  // Majority = 3 of 5: home (client link) + 2 peers, RTT 100ms.
  EXPECT_GE(read_done, Millis(100));
  EXPECT_LE(read_done, Millis(110));
}

TEST(ReplicatedCommitTest, WriteWriteConflictAborts) {
  auto rig = MakeRig(3, Millis(60), /*two_pc=*/false);
  auto t1 = std::make_shared<TxnDriver>(rig.get(), 0);
  auto t2 = std::make_shared<TxnDriver>(rig.get(), 1);
  rig->scheduler.At(Millis(5), [t1] { t1->Commit({{"x", "a"}}); });
  rig->scheduler.At(Millis(6), [t2] { t2->Commit({{"x", "b"}}); });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(t1->done && t2->done);
  // Write locks conflict at every datacenter: they cannot both get a
  // majority of yes votes.
  EXPECT_LE(t1->outcome.committed + t2->outcome.committed, 1);
}

TEST(ReplicatedCommitTest, ReadLockBlocksConflictingWriter) {
  auto rig = MakeRig(3, Millis(60), /*two_pc=*/false);
  auto reader = std::make_shared<TxnDriver>(rig.get(), 0);
  auto writer = std::make_shared<TxnDriver>(rig.get(), 1);
  rig->scheduler.At(Millis(5), [reader] {
    reader->Read("x", [] {});  // Holds shared locks, never commits yet.
  });
  rig->scheduler.At(Millis(200), [writer] { writer->Commit({{"x", "w"}}); });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(writer->done);
  EXPECT_FALSE(writer->outcome.committed);
}

TEST(ReplicatedCommitTest, StaleReadValidationFails) {
  auto rig = MakeRig(3, Millis(40), /*two_pc=*/false);
  auto t1 = std::make_shared<TxnDriver>(rig.get(), 0);
  auto t2 = std::make_shared<TxnDriver>(rig.get(), 1);
  // t1 writes x; then t2 commits with a fabricated stale read of x.
  rig->scheduler.At(Millis(5), [t1] { t1->Commit({{"x", "new"}}); });
  rig->scheduler.At(Seconds(2), [t2] {
    t2->reads.push_back({"x", kMinTimestamp, TxnId{}});  // "Never written".
    t2->Commit({{"y", "z"}});
  });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(t1->done && t2->done);
  EXPECT_TRUE(t1->outcome.committed);
  EXPECT_FALSE(t2->outcome.committed);
}

TEST(ReplicatedCommitTest, ToleratesTwoOutagesOfFive) {
  auto rig = MakeRig(5, Millis(50), /*two_pc=*/false);
  rig->network->CrashNode(3);
  rig->network->CrashNode(4);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 0);
  rig->scheduler.At(Millis(10), [txn] {
    txn->Read("x", [txn] { txn->Commit({{"x", "v"}}); });
  });
  rig->scheduler.RunUntil(Seconds(20));
  ASSERT_TRUE(txn->done);
  EXPECT_TRUE(txn->outcome.committed);
}

TEST(ReplicatedCommitTest, AbortsWhenMajorityUnreachable) {
  auto rig = MakeRig(5, Millis(50), /*two_pc=*/false);
  rig->network->CrashNode(2);
  rig->network->CrashNode(3);
  rig->network->CrashNode(4);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 0);
  rig->scheduler.At(Millis(10), [txn] { txn->Commit({{"x", "v"}}); });
  rig->scheduler.RunUntil(Seconds(20));
  ASSERT_TRUE(txn->done);  // The decision timeout fires.
  EXPECT_FALSE(txn->outcome.committed);
}

// --- 2PC/Paxos -----------------------------------------------------------------

TEST(TwoPcPaxosTest, CommitLatencyIncludesCoordinatorAndPaxos) {
  auto rig = MakeRig(5, Millis(100), /*two_pc=*/true, /*coordinator=*/0);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 2);
  rig->scheduler.At(Millis(10), [txn] { txn->Commit({{"x", "v"}}); });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(txn->done);
  EXPECT_TRUE(txn->outcome.committed);
  // Client->coordinator (50) + Paxos majority RTT (100) + back (50).
  EXPECT_GE(txn->commit_latency, Millis(200));
  EXPECT_LE(txn->commit_latency, Millis(215));
}

TEST(TwoPcPaxosTest, CoordinatorLocalClientIsFast) {
  auto rig = MakeRig(5, Millis(100), /*two_pc=*/true, /*coordinator=*/0);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 0);
  rig->scheduler.At(Millis(10), [txn] { txn->Commit({{"x", "v"}}); });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(txn->done && txn->outcome.committed);
  EXPECT_LE(txn->commit_latency, Millis(110));  // Just the Paxos round.
}

TEST(TwoPcPaxosTest, ReadsRouteToCoordinator) {
  auto rig = MakeRig(3, Millis(80), /*two_pc=*/true, /*coordinator=*/0);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 1);
  sim::SimTime read_done = -1;
  rig->scheduler.At(0, [&, txn] {
    txn->Read("x", [&] { read_done = rig->scheduler.Now(); });
  });
  rig->scheduler.RunUntil(Seconds(5));
  EXPECT_GE(read_done, Millis(80));  // Full RTT to the coordinator.
}

TEST(TwoPcPaxosTest, CommittedWritesReachAllReplicas) {
  auto rig = MakeRig(3, Millis(40), /*two_pc=*/true);
  auto txn = std::make_shared<TxnDriver>(rig.get(), 1);
  rig->scheduler.At(Millis(10), [txn] { txn->Commit({{"x", "42"}}); });
  rig->scheduler.RunUntil(Seconds(5));
  ASSERT_TRUE(txn->done && txn->outcome.committed);
  for (DcId dc = 0; dc < 3; ++dc) {
    auto v = rig->tp().store(dc).Read("x");
    ASSERT_TRUE(v.ok()) << dc;
    EXPECT_EQ(v.value().value, "42");
  }
}

TEST(TwoPcPaxosTest, StaleReadValidationAborts) {
  auto rig = MakeRig(3, Millis(40), /*two_pc=*/true);
  auto t1 = std::make_shared<TxnDriver>(rig.get(), 0);
  auto t2 = std::make_shared<TxnDriver>(rig.get(), 1);
  rig->scheduler.At(Millis(5), [t1] { t1->Commit({{"x", "new"}}); });
  rig->scheduler.At(Seconds(1), [t2] {
    t2->reads.push_back({"x", kMinTimestamp, TxnId{}});
    t2->Commit({{"y", "z"}});
  });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(t1->done && t2->done);
  EXPECT_TRUE(t1->outcome.committed);
  EXPECT_FALSE(t2->outcome.committed);
}

TEST(TwoPcPaxosTest, WoundWaitResolvesConflicts) {
  auto rig = MakeRig(3, Millis(40), /*two_pc=*/true);
  auto t1 = std::make_shared<TxnDriver>(rig.get(), 1);
  auto t2 = std::make_shared<TxnDriver>(rig.get(), 2);
  // Both read-modify-write the same key concurrently.
  rig->scheduler.At(Millis(5), [t1] {
    t1->Read("x", [t1] { t1->Commit({{"x", "t1"}}); });
  });
  rig->scheduler.At(Millis(6), [t2] {
    t2->Read("x", [t2] {
      if (!t2->read_failed) t2->Commit({{"x", "t2"}});
    });
  });
  rig->scheduler.RunUntil(Seconds(20));
  ASSERT_TRUE(t1->done);
  // No deadlock: everything decides; at most one commits.
  const int commits =
      (t1->done && t1->outcome.committed) + (t2->done && t2->outcome.committed);
  EXPECT_LE(commits, 1);
  EXPECT_GE(commits, 1) << "wound-wait should let one transaction through";
}

/// Polls every 5 ms until `txn` is decided (its commit callback sets
/// done), then runs `next`.
void AfterDecided(Rig& rig, std::shared_ptr<TxnDriver> txn,
                  std::function<void()> next) {
  rig.scheduler.After(Millis(5), [&rig, txn, next] {
    if (txn->done) {
      next();
    } else {
      AfterDecided(rig, txn, next);
    }
  });
}

/// Two closed loops per datacenter until `stop`, each transaction reading
/// one of `keys` random keys and writing it and another. Returns the loop
/// body; reset it after the run to break its reference to itself.
std::shared_ptr<std::function<void(DcId)>> StartContendedLoad(
    Rig& rig, int n, int keys, sim::SimTime stop) {
  auto rng = std::make_shared<Rng>(31);
  auto step = std::make_shared<std::function<void(DcId)>>();
  *step = [&rig, rng, keys, step, stop](DcId dc) {
    if (rig.scheduler.Now() > stop) return;
    auto txn = std::make_shared<TxnDriver>(&rig, dc);
    const std::string k1 = "key" + std::to_string(rng->Uniform(keys));
    const std::string k2 = "key" + std::to_string(rng->Uniform(keys));
    txn->Read(k1, [&rig, txn, k1, k2, step, dc] {
      if (txn->read_failed) {
        rig.scheduler.After(Millis(5), [step, dc] { (*step)(dc); });
        return;
      }
      std::vector<WriteEntry> writes{{k1, "v"}};
      if (k2 != k1) writes.push_back({k2, "w"});
      txn->Commit(std::move(writes));
      AfterDecided(rig, txn, [step, dc] { (*step)(dc); });
    });
  };
  for (DcId dc = 0; dc < n; ++dc) {
    rig.scheduler.At(Millis(dc + 1), [step, dc] { (*step)(dc); });
    rig.scheduler.At(Millis(dc + 2), [step, dc] { (*step)(dc); });
  }
  return step;
}

// Randomized contention for both baselines: history must stay
// conflict-serializable and replicas converge.
template <typename GetHistory, typename GetStore>
void RunContention(Rig& rig, int n, int keys, GetHistory get_history,
                   GetStore get_store) {
  auto step = StartContendedLoad(rig, n, keys, Seconds(15));
  rig.scheduler.RunUntil(Seconds(40));
  *step = nullptr;  // Breaks the closure's reference to itself.

  const auto& commits = get_history().commits();
  ASSERT_GT(commits.size(), 50u);
  const Status ser = core::CheckSerializable(commits);
  EXPECT_TRUE(ser.ok()) << ser.ToString();
  // Convergence across replicas for every key someone committed to.
  for (int k = 0; k < keys; ++k) {
    const std::string key = "key" + std::to_string(k);
    auto v0 = get_store(0).Read(key);
    if (!v0.ok()) continue;
    for (DcId dc = 1; dc < n; ++dc) {
      auto v = get_store(dc).Read(key);
      ASSERT_TRUE(v.ok()) << key << " dc " << dc;
      EXPECT_EQ(v.value().writer, v0.value().writer) << key << " dc " << dc;
    }
  }
}

TEST(ReplicatedCommitTest, ContendedHistoryIsSerializable) {
  auto rig = MakeRig(3, Millis(50), /*two_pc=*/false);
  RunContention(
      *rig, 3, 25, [&]() -> core::HistoryRecorder& { return rig->rc().history(); },
      [&](DcId dc) -> const MvStore& { return rig->rc().store(dc); });
  EXPECT_GT(rig->rc().aborts(), 0u);
}

TEST(TwoPcPaxosTest, ContendedHistoryIsSerializable) {
  auto rig = MakeRig(3, Millis(50), /*two_pc=*/true);
  RunContention(
      *rig, 3, 25, [&]() -> core::HistoryRecorder& { return rig->tp().history(); },
      [&](DcId dc) -> const MvStore& { return rig->tp().store(dc); });
}

// Replicas collect versions older than kVersionRetention as decisions
// apply: after 25 s of load each holds one version per key plus at most
// the writes it journaled in the last 10.5 s (the slack covers the gap
// between the last decision applied and the end of the run).
void ExpectOldVersionsCollected(bool two_pc) {
  constexpr int kDcs = 3;
  constexpr int kKeys = 200;
  constexpr sim::SimTime kEnd = Seconds(25);
  auto rig = MakeRig(kDcs, Millis(50), two_pc);
  InitialRows rows;
  for (int k = 0; k < kKeys; ++k) {
    rows.emplace_back("key" + std::to_string(k), "init");
  }
  rig->cluster->LoadInitialAll(rows);
  auto step = StartContendedLoad(*rig, kDcs, kKeys, kEnd);
  rig->scheduler.RunUntil(kEnd);
  *step = nullptr;
  const Timestamp recent = kEnd - kVersionRetention - Millis(500);
  for (DcId dc = 0; dc < kDcs; ++dc) {
    uint64_t journaled = 0;
    uint64_t recent_writes = 0;
    const wal::MemoryWal& journal = *rig->cluster->wal_journal(dc, 0);
    for (const auto& rec : journal.contents().records) {
      const size_t writes = rec.body->write_set.size();
      journaled += writes;
      if (rec.version_ts >= recent) recent_writes += writes;
    }
    const MvStore& store = two_pc ? rig->tp().store(dc) : rig->rc().store(dc);
    EXPECT_EQ(store.key_count(), static_cast<size_t>(kKeys));
    EXPECT_GT(journaled, 3 * recent_writes / 2) << "dc " << dc;
    EXPECT_LE(store.version_count(), kKeys + recent_writes) << "dc " << dc;
  }
}

TEST(ReplicatedCommitTest, ReplicasCollectVersionsPastRetention) {
  ExpectOldVersionsCollected(/*two_pc=*/false);
}

TEST(TwoPcPaxosTest, ReplicasCollectVersionsPastRetention) {
  ExpectOldVersionsCollected(/*two_pc=*/true);
}

// A write set that names a key twice is refused at the door in every
// build, and the locks its read phase took are released.
void ExpectRepeatedKeyRefused(bool two_pc) {
  auto rig = MakeRig(3, Millis(40), two_pc);
  rig->cluster->LoadInitialAll({{"x", "0"}});
  auto dup = std::make_shared<TxnDriver>(rig.get(), 1);
  auto next = std::make_shared<TxnDriver>(rig.get(), 2);
  rig->scheduler.At(Millis(10), [dup] {
    dup->Read("x", [dup] { dup->Commit({{"x", "1"}, {"x", "2"}}); });
  });
  rig->scheduler.At(Millis(500), [next] {
    next->Read("x", [next] { next->Commit({{"x", "3"}}); });
  });
  rig->scheduler.RunUntil(Seconds(5));
  ASSERT_TRUE(dup->done);
  EXPECT_FALSE(dup->outcome.committed);
  EXPECT_EQ(dup->outcome.abort_reason, kDuplicateWriteAbortReason);
  // x was never written twice over: the next transaction read "0" and its
  // own write is the only one applied.
  ASSERT_TRUE(next->done);
  EXPECT_TRUE(next->outcome.committed) << next->outcome.abort_reason;
  ASSERT_EQ(next->reads.size(), 1u);
  EXPECT_EQ(next->reads[0].version_writer.origin, MvStore::kLoaderOrigin);
  for (DcId dc = 0; dc < 3; ++dc) {
    const MvStore& store = two_pc ? rig->tp().store(dc) : rig->rc().store(dc);
    auto v = store.Read("x");
    ASSERT_TRUE(v.ok()) << dc;
    EXPECT_EQ(v.value().value, "3") << dc;
  }
  const auto& cluster = static_cast<const ReplicaCluster&>(*rig->cluster);
  EXPECT_EQ(cluster.aborts(), 1u);
  EXPECT_EQ(cluster.commits(), 1u);
}

TEST(ReplicatedCommitTest, RepeatedKeyInWriteSetIsRefused) {
  ExpectRepeatedKeyRefused(/*two_pc=*/false);
}

TEST(TwoPcPaxosTest, RepeatedKeyInWriteSetIsRefused) {
  ExpectRepeatedKeyRefused(/*two_pc=*/true);
}

}  // namespace
}  // namespace helios::baselines
