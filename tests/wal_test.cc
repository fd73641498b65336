// Tests for the write-ahead log: FileWal append/recover round trips and
// full node recovery — a restarted HeliosNode rebuilt from its WAL rejoins
// the cluster with its data intact, aborts its own in-flight transactions
// (presumed abort), and never reuses a timestamp. Torn-tail and
// corruption handling live in file_wal_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/helios_cluster.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "wal/file_wal.h"

namespace helios::wal {
namespace {

std::string TempWalPath(const std::string& tag) {
  return ::testing::TempDir() + "/helios_wal_" + tag + "_" +
         std::to_string(::getpid()) + ".wal";
}

rdict::LogRecord MakeRecord(DcId origin, uint64_t seq, Timestamp ts,
                            bool finished, bool committed = true) {
  rdict::LogRecord rec;
  rec.type = finished ? rdict::RecordType::kFinished
                      : rdict::RecordType::kPreparing;
  rec.committed = finished && committed;
  rec.ts = ts;
  rec.version_ts = ts + 1;
  rec.origin = origin;
  rec.body = MakeTxnBody(TxnId{origin, seq}, {},
                         {{"k" + std::to_string(seq), "v"}});
  return rec;
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string path = TempWalPath("roundtrip");
  std::remove(path.c_str());
  {
    FileWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, 1, 10, false)).ok());
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, 1, 20, true)).ok());
    rdict::Timetable table(3);
    table.Set(0, 0, 20);
    table.Set(0, 1, 15);
    ASSERT_TRUE(wal.AppendTimetable(table).ok());
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(1, 7, 30, false)).ok());
    EXPECT_EQ(wal.entries_appended(), 4u);
  }
  auto recovered = RecoverFileWal(path);
  ASSERT_TRUE(recovered.ok());
  const WalContents& c = recovered.value().contents;
  EXPECT_FALSE(c.truncated_tail);
  ASSERT_EQ(c.records.size(), 3u);
  EXPECT_EQ(c.records[0].ts, 10);
  EXPECT_EQ(c.records[1].ts, 20);
  EXPECT_TRUE(c.records[1].committed);
  EXPECT_EQ(c.records[2].origin, 1);
  ASSERT_TRUE(c.has_timetable);
  EXPECT_EQ(c.timetable.Get(0, 1), 15);
  std::remove(path.c_str());
}

TEST(WalTest, ReopenAppendsInsteadOfTruncating) {
  const std::string path = TempWalPath("reopen");
  std::remove(path.c_str());
  {
    FileWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, 1, 10, false)).ok());
  }
  {
    FileWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, 2, 20, false)).ok());
  }
  auto recovered = RecoverFileWal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().contents.records.size(), 2u);
  std::remove(path.c_str());
}

// --- Full node recovery -------------------------------------------------------

TEST(WalRecoveryTest, NodeRestoresAndRejoinsCluster) {
  const std::string path = TempWalPath("recover");
  std::remove(path.c_str());

  // Phase 1: a 3-DC cluster with node 0 journaling into the WAL. Run some
  // traffic, including a transaction that is still preparing when we
  // "crash".
  {
    sim::Scheduler scheduler;
    sim::Network network(&scheduler, 3, 5);
    harness::ConfigureNetwork(harness::UniformTopology(3, 40.0), &network);
    core::HeliosConfig cfg;
    cfg.num_datacenters = 3;
    core::HeliosCluster cluster(&scheduler, &network, cfg);
    FileWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    cluster.node(0).set_wal(&wal);
    cluster.Start();

    bool committed = false;
    scheduler.At(Millis(10), [&] {
      cluster.ClientCommit(0, {}, {{"durable", "yes"}},
                           [&](const CommitOutcome& o) {
                             committed = o.committed;
                           });
    });
    scheduler.At(Millis(200), [&] {
      cluster.ClientCommit(1, {}, {{"from-peer", "1"}},
                           [](const CommitOutcome&) {});
    });
    scheduler.RunUntil(Millis(500));
    ASSERT_TRUE(committed);
    // An in-flight transaction at the moment of the crash.
    scheduler.At(scheduler.Now(), [&] {
      cluster.ClientCommit(0, {}, {{"in-flight", "lost"}},
                           [](const CommitOutcome&) {});
    });
    scheduler.RunUntil(scheduler.Now() + Millis(5));
    ASSERT_TRUE(wal.AppendTimetable(cluster.node(0).log().table()).ok());
    // "Crash": everything goes out of scope; only the WAL survives.
  }

  // Phase 2: a fresh world; node 0 restores from the WAL.
  auto recovered = RecoverFileWal(path);
  ASSERT_TRUE(recovered.ok());
  const WalContents& contents = recovered.value().contents;
  ASSERT_GT(contents.records.size(), 2u);
  ASSERT_TRUE(contents.has_timetable);

  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 3, 6);
  harness::ConfigureNetwork(harness::UniformTopology(3, 40.0), &network);
  core::HeliosConfig cfg;
  cfg.num_datacenters = 3;
  core::HeliosCluster cluster(&scheduler, &network, cfg);
  // Restore WITHOUT the timetable snapshot: in this scenario the peers are
  // also fresh, so node 0 must not believe they already hold its records.
  // (With surviving peers one would pass the snapshot and skip the
  // resends; the snapshot round trip itself is covered above.)
  ASSERT_TRUE(cluster.node(0).Restore(contents.records, nullptr).ok());

  // Recovered data is visible immediately.
  auto v = cluster.node(0).store().Read("durable");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, "yes");
  auto peer_write = cluster.node(0).store().Read("from-peer");
  ASSERT_TRUE(peer_write.ok());

  // The in-flight transaction was presumed aborted.
  auto lost = cluster.node(0).store().Read("in-flight");
  EXPECT_FALSE(lost.ok());
  EXPECT_GE(cluster.node(0).counters().aborts_liveness, 1u);

  // And the node operates normally afterwards (fresh peers learn
  // everything from it through the log exchange).
  cluster.Start();
  bool committed_after = false;
  scheduler.At(Millis(10), [&] {
    cluster.ClientCommit(0, {}, {{"post-recovery", "ok"}},
                         [&](const CommitOutcome& o) {
                           committed_after = o.committed;
                         });
  });
  scheduler.RunUntil(Seconds(3));
  EXPECT_TRUE(committed_after);
  // Peers received both the recovered and the new writes.
  EXPECT_TRUE(cluster.node(1).store().Read("durable").ok());
  EXPECT_TRUE(cluster.node(1).store().Read("post-recovery").ok());
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, RestoredNodeNeverReusesTimestamps) {
  std::vector<rdict::LogRecord> records;
  Timestamp max_ts = 0;
  {
    sim::Scheduler scheduler;
    sim::Network network(&scheduler, 2, 7);
    harness::ConfigureNetwork(harness::UniformTopology(2, 30.0), &network);
    core::HeliosConfig cfg;
    cfg.num_datacenters = 2;
    core::HeliosCluster cluster(&scheduler, &network, cfg);
    cluster.Start();
    scheduler.At(Seconds(2), [&] {  // Late: timestamps well above zero.
      cluster.ClientCommit(0, {}, {{"x", "1"}}, [](const CommitOutcome&) {});
    });
    scheduler.RunUntil(Seconds(3));
    records = cluster.wal_journal(0, 0)->contents().records;
    for (const rdict::LogRecord& rec : records) {
      if (rec.origin == 0) max_ts = std::max(max_ts, rec.ts);
    }
    ASSERT_GT(max_ts, Seconds(1));
  }
  // New world starts at simulated time 0 — without the floor, the node
  // would mint timestamps below what it already persisted.
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 2, 8);
  harness::ConfigureNetwork(harness::UniformTopology(2, 30.0), &network);
  core::HeliosConfig cfg;
  cfg.num_datacenters = 2;
  core::HeliosCluster cluster(&scheduler, &network, cfg);
  ASSERT_TRUE(cluster.node(0).Restore(records, nullptr).ok());
  cluster.Start();
  scheduler.At(Millis(5), [&] {
    cluster.ClientCommit(0, {}, {{"y", "2"}}, [](const CommitOutcome&) {});
  });
  scheduler.RunUntil(Seconds(2));
  Timestamp new_ts = 0;
  const WalContents& journal = cluster.wal_journal(0, 0)->contents();
  for (const rdict::LogRecord& rec : journal.records) {
    if (rec.origin == 0 && rec.type == rdict::RecordType::kPreparing &&
        rec.body->WritesKey("y")) {
      new_ts = rec.ts;
    }
  }
  ASSERT_GT(new_ts, 0);
  EXPECT_GT(new_ts, max_ts) << "recovered node reused a timestamp";
}

}  // namespace
}  // namespace helios::wal
