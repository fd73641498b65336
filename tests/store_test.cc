// Unit tests for the storage layer: the multi-version store and the
// shared/exclusive lock manager with its two conflict policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
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

TEST(MvStoreTest, LateVersionBelowSecondOldestIsCollected) {
  // GC is scheduled on each chain's second-oldest version. A write that
  // lands below it moves that version earlier, and the first truncation
  // whose horizon passes the new one must drop the oldest.
  MvStore store;
  store.ApplyWrite("k", "v100", 100, Id(0, 1));
  store.ApplyWrite("k", "v200", 200, Id(0, 2));
  store.ApplyWrite("k", "v300", 300, Id(0, 3));
  EXPECT_EQ(store.TruncateVersionsBefore(150), 0u);
  store.ApplyWrite("k", "v150", 150, Id(1, 1));  // Lands at index 1.
  EXPECT_EQ(store.TruncateVersionsBefore(160), 1u);  // v100 goes.
  EXPECT_EQ(store.ReadAt("k", 160).value().value, "v150");
  EXPECT_FALSE(store.ReadAt("k", 120).ok());
  store.ApplyWrite("k", "v50", 50, Id(2, 1));  // Lands at index 0.
  EXPECT_EQ(store.TruncateVersionsBefore(160), 1u);  // v50 goes.
  EXPECT_EQ(store.version_count(), 3u);
  EXPECT_EQ(store.TruncateVersionsBefore(1000), 2u);
  EXPECT_EQ(store.Read("k").value().value, "v300");
}

TEST(MvStoreTest, LoaderIdsContinueAcrossCallsAndRestartAtClear) {
  InitialRows rows;
  for (int i = 0; i < 5; ++i) {
    rows.emplace_back("k" + std::to_string(i), "v" + std::to_string(i));
  }
  MvStore one_call;
  one_call.LoadInitial(rows);
  MvStore row_by_row;
  for (const auto& row : rows) row_by_row.LoadInitial({row});
  for (size_t i = 0; i < rows.size(); ++i) {
    const VersionedValue want{rows[i].second, kMinTimestamp,
                              Id(MvStore::kLoaderOrigin, i + 1)};
    for (const MvStore* store : {&one_call, &row_by_row}) {
      const VersionedValue got = store->Read(rows[i].first).value();
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.ts, want.ts);
      EXPECT_EQ(got.writer, want.writer) << rows[i].first;
    }
  }
  row_by_row.Clear();
  EXPECT_EQ(row_by_row.key_count(), 0u);
  row_by_row.LoadInitial({rows[3]});
  EXPECT_EQ(row_by_row.Read("k3").value().writer,
            Id(MvStore::kLoaderOrigin, 1));
}

// --- MvStore against a reference model --------------------------------------

/// The store's semantics kept as one ordered map per key, the plainest
/// representation: versions by (ts, writer), the first value installed
/// under a version stays.
class ReferenceStore {
 public:
  struct Less {
    bool operator()(const std::pair<Timestamp, TxnId>& a,
                    const std::pair<Timestamp, TxnId>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    }
  };
  using Chain = std::map<std::pair<Timestamp, TxnId>, Value, Less>;

  void ApplyWrite(const Key& key, const Value& value, Timestamp ts,
                  TxnId writer) {
    ++writes_applied;
    if (chains[key].emplace(std::make_pair(ts, writer), value).second) {
      ++version_count;
    }
  }

  void LoadInitial(const InitialRows& rows) {
    for (const auto& [key, value] : rows) {
      ApplyWrite(key, value, kMinTimestamp,
                 TxnId{MvStore::kLoaderOrigin, next_load_seq++});
    }
  }

  Result<VersionedValue> Read(const Key& key) const {
    auto it = chains.find(key);
    if (it == chains.end()) return Status::NotFound(key);
    return Version(*it->second.rbegin());
  }

  Result<VersionedValue> ReadAt(const Key& key, Timestamp snapshot) const {
    auto it = chains.find(key);
    if (it == chains.end()) return Status::NotFound(key);
    auto upper =
        it->second.upper_bound({snapshot, TxnId{INT32_MAX, UINT64_MAX}});
    if (upper == it->second.begin()) return Status::NotFound(key);
    return Version(*std::prev(upper));
  }

  Timestamp LatestVersionTs(const Key& key) const {
    auto it = chains.find(key);
    if (it == chains.end()) return kMinTimestamp;
    return it->second.rbegin()->first.first;
  }

  size_t TruncateVersionsBefore(Timestamp horizon) {
    size_t dropped = 0;
    for (auto& [key, chain] : chains) {
      auto cut = chain.lower_bound({horizon, TxnId{kInvalidDc, 0}});
      if (cut == chain.begin()) continue;
      --cut;  // The newest version below the horizon stays.
      dropped += static_cast<size_t>(std::distance(chain.begin(), cut));
      chain.erase(chain.begin(), cut);
    }
    version_count -= dropped;
    return dropped;
  }

  void Clear() {
    chains.clear();
    version_count = 0;
    writes_applied = 0;
    next_load_seq = 1;
  }

  std::map<Key, VersionedValue> LatestImage() const {
    std::map<Key, VersionedValue> image;
    for (const auto& [key, chain] : chains) {
      image[key] = Version(*chain.rbegin());
    }
    return image;
  }

  std::map<Key, Chain> chains;
  uint64_t version_count = 0;
  uint64_t writes_applied = 0;
  uint64_t next_load_seq = 1;

 private:
  static VersionedValue Version(const Chain::value_type& entry) {
    return VersionedValue{entry.second, entry.first.first, entry.first.second};
  }
};

void ExpectSameResult(const Result<VersionedValue>& got,
                      const Result<VersionedValue>& want,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  EXPECT_EQ(got.value().value, want.value().value) << what;
  EXPECT_EQ(got.value().ts, want.value().ts) << what;
  EXPECT_EQ(got.value().writer, want.value().writer) << what;
}

std::map<Key, VersionedValue> LatestImage(const MvStore& store) {
  std::map<Key, VersionedValue> image;
  store.ForEachLatest(
      [&](const Key& key, const VersionedValue& vv) { image[key] = vv; });
  return image;
}

TEST(MvStoreReferenceTest, RandomOperationsMatchTheReferenceModel) {
  constexpr int kOps = 120000;
  constexpr int kKeys = 50;
  Rng rng(20150531);
  MvStore store;
  ReferenceStore ref;
  InitialRows image;
  for (int k = 0; k < kKeys; k += 2) {
    image.emplace_back("k" + std::to_string(k), "init");
  }
  store.LoadInitial(image);
  ref.LoadInitial(image);

  // A slowly advancing clock; writes land up to 60 ticks behind it, so
  // they arrive out of order, and few writer ids make ties and repeats.
  Timestamp now = 100;
  const auto key = [&] { return "k" + std::to_string(rng.Uniform(kKeys)); };
  const auto writer = [&] {
    return Id(static_cast<DcId>(rng.Uniform(3)), 1 + rng.Uniform(3));
  };
  for (int op = 0; op < kOps; ++op) {
    now += static_cast<Timestamp>(rng.Uniform(3));
    const std::string what = "op " + std::to_string(op);
    const uint64_t dice = rng.Uniform(100);
    if (dice < 45) {
      const Key k = key();
      const Timestamp ts = now - rng.UniformRange(0, 60);
      const TxnId w = writer();
      const Value v = "v" + std::to_string(op);
      store.ApplyWrite(k, v, ts, w);
      ref.ApplyWrite(k, v, ts, w);
    } else if (dice < 50) {
      // A write set names each key once.
      std::set<Key> keys;
      while (keys.size() < 3) keys.insert(key());
      std::vector<WriteEntry> writes;
      for (const Key& k : keys) writes.push_back({k, "t" + std::to_string(op)});
      const auto body = MakeTxnBody(writer(), {}, std::move(writes));
      const Timestamp ts = now - rng.UniformRange(0, 60);
      store.ApplyTxn(*body, ts);
      for (const WriteEntry& w : body->write_set) {
        ref.ApplyWrite(w.key, w.value, ts, body->id);
      }
    } else if (dice < 62) {
      const Key k = key();
      ExpectSameResult(store.Read(k), ref.Read(k), what + " Read " + k);
    } else if (dice < 80) {
      const Key k = key();
      const Timestamp snap = now - rng.UniformRange(-10, 100);
      ExpectSameResult(store.ReadAt(k, snap), ref.ReadAt(k, snap),
                       what + " ReadAt " + k);
    } else if (dice < 87) {
      const Key k = key();
      EXPECT_EQ(store.LatestVersionTs(k), ref.LatestVersionTs(k)) << what;
    } else if (dice < 90) {
      const Key r = key();
      const Key w = key();
      const auto body =
          MakeTxnBody(writer(), {{r, kMinTimestamp, TxnId{}}}, {{w, "x"}});
      EXPECT_EQ(store.MaxVersionTsOf(*body),
                std::max(ref.LatestVersionTs(r), ref.LatestVersionTs(w)))
          << what;
    } else if (dice < 99) {
      // Mostly trailing the clock, sometimes far behind an earlier
      // horizon, now and then at the loaded versions' timestamp.
      const uint64_t kind = rng.Uniform(20);
      Timestamp horizon = now - rng.UniformRange(0, 80);
      if (kind == 0) horizon = kMinTimestamp + rng.UniformRange(0, 1);
      if (kind == 1) horizon = now - 400;
      EXPECT_EQ(store.TruncateVersionsBefore(horizon),
                ref.TruncateVersionsBefore(horizon))
          << what << " horizon " << horizon;
    } else if (rng.Uniform(10) == 0) {
      store.Clear();
      ref.Clear();
      store.LoadInitial(image);
      ref.LoadInitial(image);
    }
    ASSERT_EQ(store.version_count(), ref.version_count) << what;
    ASSERT_EQ(store.key_count(), ref.chains.size()) << what;
    ASSERT_EQ(store.writes_applied(), ref.writes_applied) << what;
    if (op % 1000 == 0) {
      const auto got = LatestImage(store);
      const auto want = ref.LatestImage();
      ASSERT_EQ(got.size(), want.size()) << what;
      for (const auto& [k, vv] : want) {
        ExpectSameResult(got.at(k), vv, what + " image " + k);
      }
    }
  }
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
