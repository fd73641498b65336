// Unit tests for the storage layer: the multi-version store and the
// shared/exclusive lock manager with its two conflict policies.

#include <gtest/gtest.h>

#include <vector>

#include "store/lock_table.h"
#include "store/mv_store.h"

namespace helios {
namespace {

TxnId Id(DcId dc, uint64_t seq) { return TxnId{dc, seq}; }

TEST(MvStoreTest, ReadMissingKeyIsNotFound) {
  MvStore store;
  auto r = store.Read("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LatestVersionTs("nope"), kMinTimestamp);
}

TEST(MvStoreTest, LatestVersionWins) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  store.ApplyWrite("k", "v2", 20, Id(1, 1));
  auto r = store.Read("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, "v2");
  EXPECT_EQ(r.value().ts, 20);
  EXPECT_EQ(r.value().writer, Id(1, 1));
}

TEST(MvStoreTest, OutOfOrderApplyConverges) {
  // Replicas may apply the same committed writes in different orders; the
  // (timestamp, writer) version order must make the final state identical.
  MvStore a;
  MvStore b;
  a.ApplyWrite("k", "v1", 10, Id(0, 1));
  a.ApplyWrite("k", "v2", 20, Id(1, 1));
  b.ApplyWrite("k", "v2", 20, Id(1, 1));
  b.ApplyWrite("k", "v1", 10, Id(0, 1));
  EXPECT_EQ(a.Read("k").value().value, b.Read("k").value().value);
  EXPECT_EQ(a.Read("k").value().writer, b.Read("k").value().writer);
}

TEST(MvStoreTest, TimestampTiesBrokenByWriter) {
  MvStore store;
  store.ApplyWrite("k", "from0", 10, Id(0, 5));
  store.ApplyWrite("k", "from2", 10, Id(2, 3));
  EXPECT_EQ(store.Read("k").value().writer, Id(2, 3));
}

TEST(MvStoreTest, SnapshotReads) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  store.ApplyWrite("k", "v2", 20, Id(0, 2));
  store.ApplyWrite("k", "v3", 30, Id(0, 3));
  EXPECT_EQ(store.ReadAt("k", 25).value().value, "v2");
  EXPECT_EQ(store.ReadAt("k", 20).value().value, "v2");
  EXPECT_EQ(store.ReadAt("k", 19).value().value, "v1");
  EXPECT_EQ(store.ReadAt("k", 100).value().value, "v3");
  EXPECT_FALSE(store.ReadAt("k", 5).ok());
}

TEST(MvStoreTest, ApplyTxnInstallsWholeWriteSet) {
  MvStore store;
  auto body = MakeTxnBody(Id(0, 1), {}, {{"a", "1"}, {"b", "2"}});
  store.ApplyTxn(*body, 42);
  EXPECT_EQ(store.Read("a").value().value, "1");
  EXPECT_EQ(store.Read("b").value().value, "2");
  EXPECT_EQ(store.Read("a").value().ts, 42);
  EXPECT_EQ(store.key_count(), 2u);
}

TEST(MvStoreTest, MaxVersionTsOfCoversReadAndWriteSets) {
  MvStore store;
  store.ApplyWrite("r", "x", 50, Id(0, 1));
  store.ApplyWrite("w", "y", 70, Id(0, 2));
  auto body = MakeTxnBody(Id(1, 1), {{"r", 50, Id(0, 1)}}, {{"w", "z"}});
  EXPECT_EQ(store.MaxVersionTsOf(*body), 70);
}

TEST(MvStoreTest, TruncationKeepsNewestVisibleVersion) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  store.ApplyWrite("k", "v2", 20, Id(0, 2));
  store.ApplyWrite("k", "v3", 30, Id(0, 3));
  const size_t dropped = store.TruncateVersionsBefore(25);
  EXPECT_EQ(dropped, 1u);  // v1 dropped; v2 is still visible at ts 25.
  EXPECT_EQ(store.ReadAt("k", 25).value().value, "v2");
  EXPECT_EQ(store.Read("k").value().value, "v3");
  EXPECT_EQ(store.version_count(), 2u);
}

TEST(MvStoreTest, TruncationNeverEmptiesAKey) {
  MvStore store;
  store.ApplyWrite("k", "v1", 10, Id(0, 1));
  EXPECT_EQ(store.TruncateVersionsBefore(1000), 0u);
  EXPECT_TRUE(store.Read("k").ok());
}

// --- LockTable: no-wait policy ------------------------------------------------

TEST(LockTableNoWaitTest, SharedLocksCoexist) {
  LockTable t(LockPolicy::kNoWait);
  Status s1 = Status::Internal("unset");
  Status s2 = Status::Internal("unset");
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10, [&](Status s) { s1 = s; });
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20, [&](Status s) { s2 = s; });
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  EXPECT_TRUE(t.Holds("k", Id(0, 1), LockMode::kShared));
  EXPECT_TRUE(t.Holds("k", Id(0, 2), LockMode::kShared));
}

TEST(LockTableNoWaitTest, ExclusiveConflictRefusedImmediately) {
  LockTable t(LockPolicy::kNoWait);
  Status s1 = Status::Internal("unset");
  Status s2 = Status::Internal("unset");
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [&](Status s) { s1 = s; });
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20, [&](Status s) { s2 = s; });
  EXPECT_TRUE(s1.ok());
  EXPECT_EQ(s2.code(), StatusCode::kAborted);
  EXPECT_EQ(t.immediate_refusals(), 1u);
}

TEST(LockTableNoWaitTest, UpgradeSoleHolder) {
  LockTable t(LockPolicy::kNoWait);
  Status s = Status::Internal("unset");
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10, [&](Status) {});
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [&](Status st) { s = st; });
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(t.Holds("k", Id(0, 1), LockMode::kExclusive));
}

TEST(LockTableNoWaitTest, UpgradeBlockedByOtherReader) {
  LockTable t(LockPolicy::kNoWait);
  Status s = Status::Internal("unset");
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10, [&](Status) {});
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20, [&](Status) {});
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [&](Status st) { s = st; });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

TEST(LockTableNoWaitTest, ReacquisitionIsIdempotent) {
  LockTable t(LockPolicy::kNoWait);
  int grants = 0;
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { grants += s.ok(); });
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { grants += s.ok(); });
  t.Acquire("k", LockMode::kShared, Id(0, 1), 10,
            [&](Status s) { grants += s.ok(); });  // Weaker: still held.
  EXPECT_EQ(grants, 3);
}

TEST(LockTableNoWaitTest, ReleaseAllFreesEverything) {
  LockTable t(LockPolicy::kNoWait);
  t.Acquire("a", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  EXPECT_EQ(t.locked_keys(), 2u);
  t.ReleaseAll(Id(0, 1));
  EXPECT_EQ(t.locked_keys(), 0u);
  Status s = Status::Internal("unset");
  t.Acquire("a", LockMode::kExclusive, Id(0, 2), 20, [&](Status st) { s = st; });
  EXPECT_TRUE(s.ok());
}

// --- LockTable: wound-wait policy ----------------------------------------------

TEST(LockTableWoundWaitTest, YoungerWaitsForOlder) {
  LockTable t(LockPolicy::kWoundWait);
  Status young = Status::Internal("unset");
  bool young_granted = false;
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  t.Acquire("k", LockMode::kExclusive, Id(0, 2), 20, [&](Status s) {
    young = s;
    young_granted = s.ok();
  });
  EXPECT_EQ(young.message(), "unset");  // Queued, not yet decided.
  t.ReleaseAll(Id(0, 1));
  EXPECT_TRUE(young_granted);
  EXPECT_TRUE(t.Holds("k", Id(0, 2), LockMode::kExclusive));
}

TEST(LockTableWoundWaitTest, OlderWoundsYoungerHolder) {
  LockTable t(LockPolicy::kWoundWait);
  std::vector<TxnId> wounded;
  t.set_wound_handler([&](TxnId v) { wounded.push_back(v); });
  t.Acquire("k", LockMode::kExclusive, Id(0, 2), 20, [](Status) {});
  Status old_status = Status::Internal("unset");
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { old_status = s; });
  EXPECT_TRUE(old_status.ok());  // Older transaction took the lock.
  ASSERT_EQ(wounded.size(), 1u);
  EXPECT_EQ(wounded[0], Id(0, 2));
  EXPECT_EQ(t.wounds(), 1u);
  EXPECT_FALSE(t.Holds("k", Id(0, 2), LockMode::kExclusive));
}

TEST(LockTableWoundWaitTest, WoundCancelsVictimsQueuedRequests) {
  LockTable t(LockPolicy::kWoundWait);
  t.set_wound_handler([](TxnId) {});
  // Txn 30 holds "a"; txn 20 queues on "a"; txn 10 wounds... setup:
  t.Acquire("a", LockMode::kExclusive, Id(0, 3), 30, [](Status) {});
  Status waiter = Status::Internal("unset");
  t.Acquire("a", LockMode::kExclusive, Id(0, 2), 31,
            [&](Status s) { waiter = s; });  // Younger: waits.
  EXPECT_EQ(waiter.message(), "unset");
  // Now wound txn (0,2) indirectly: it holds "b", an older txn wants it.
  t.Acquire("b", LockMode::kExclusive, Id(0, 2), 31, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 1), 5, [](Status) {});
  // The wound released everything txn (0,2) had, including its queued
  // request on "a".
  EXPECT_EQ(waiter.code(), StatusCode::kAborted);
}

TEST(LockTableWoundWaitTest, SharedQueueGrantsInOrder) {
  LockTable t(LockPolicy::kWoundWait);
  t.Acquire("k", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  int granted = 0;
  t.Acquire("k", LockMode::kShared, Id(0, 2), 20,
            [&](Status s) { granted += s.ok(); });
  t.Acquire("k", LockMode::kShared, Id(0, 3), 30,
            [&](Status s) { granted += s.ok(); });
  EXPECT_EQ(granted, 0);
  t.ReleaseAll(Id(0, 1));
  EXPECT_EQ(granted, 2);  // Both shared waiters grant together.
}

TEST(LockTableWoundWaitTest, NoDeadlockUnderCrossingRequests) {
  // Classic deadlock shape: T1 holds a wants b, T2 holds b wants a.
  // Wound-wait resolves it: the older transaction wounds the younger.
  LockTable t(LockPolicy::kWoundWait);
  std::vector<TxnId> wounded;
  t.set_wound_handler([&](TxnId v) { wounded.push_back(v); });
  Status t1_b = Status::Internal("unset");
  t.Acquire("a", LockMode::kExclusive, Id(0, 1), 10, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 2), 20, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, Id(0, 1), 10,
            [&](Status s) { t1_b = s; });  // Older: wounds T2.
  EXPECT_TRUE(t1_b.ok());
  ASSERT_EQ(wounded.size(), 1u);
  EXPECT_EQ(wounded[0], Id(0, 2));
  // T2's request for "a" never happens (it was wounded), so T1 proceeds.
  EXPECT_TRUE(t.Holds("a", Id(0, 1), LockMode::kExclusive));
  EXPECT_TRUE(t.Holds("b", Id(0, 1), LockMode::kExclusive));
}

TEST(LockTableWoundWaitTest, GrantCallbackCannotWoundTheTransactionBeingReleased) {
  // T2 holds "a" and "b", with a younger waiter queued on each. Releasing
  // T2 grants one waiter, whose callback has the oldest transaction T1
  // take the other key. T2 must already be gone from that key: a wound
  // aimed at a transaction mid-release could not free its hold, and the
  // wound-and-retry would recurse without end.
  LockTable t(LockPolicy::kWoundWait);
  std::vector<TxnId> wounded;
  t.set_wound_handler([&](TxnId v) { wounded.push_back(v); });
  const TxnId t1 = Id(0, 1);
  const TxnId t2 = Id(0, 2);
  t.Acquire("a", LockMode::kExclusive, t2, 20, [](Status) {});
  t.Acquire("b", LockMode::kExclusive, t2, 20, [](Status) {});
  std::vector<Key> granted;  // Keys whose waiter got the lock, in order.
  Status t1_status = Status::Internal("unset");
  const auto waiter = [&](const Key& key, const Key& other) {
    return [&, key, other](Status s) {
      if (!s.ok()) return;
      granted.push_back(key);
      if (granted.size() > 1) return;
      t.Acquire(other, LockMode::kExclusive, t1, 10,
                [&](Status s1) { t1_status = s1; });
    };
  };
  t.Acquire("a", LockMode::kExclusive, Id(0, 3), 30, waiter("a", "b"));
  t.Acquire("b", LockMode::kExclusive, Id(0, 4), 40, waiter("b", "a"));

  t.ReleaseAll(t2);

  EXPECT_TRUE(wounded.empty());
  EXPECT_TRUE(t1_status.ok());
  ASSERT_EQ(granted.size(), 1u);
  const bool a_first = granted[0] == "a";
  const Key other = a_first ? "b" : "a";
  EXPECT_FALSE(t.Holds("a", t2, LockMode::kShared));
  EXPECT_FALSE(t.Holds("b", t2, LockMode::kShared));
  EXPECT_TRUE(t.Holds(granted[0], a_first ? Id(0, 3) : Id(0, 4),
                      LockMode::kExclusive));
  EXPECT_TRUE(t.Holds(other, t1, LockMode::kExclusive));
  // The other waiter stays queued behind T1 and gets the key after it.
  t.ReleaseAll(t1);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[1], other);
  EXPECT_EQ(t.locked_keys(), 2u);
}

}  // namespace
}  // namespace helios
