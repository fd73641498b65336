// Unit tests for transaction bodies, the conflict predicates of
// Algorithms 1-2, and the indexed preparing-transaction pools.

#include <gtest/gtest.h>

#include "txn/pool.h"
#include "txn/transaction.h"

namespace helios {
namespace {

TxnBodyPtr RwTxn(DcId dc, uint64_t seq, std::vector<Key> reads,
                 std::vector<Key> writes) {
  std::vector<ReadEntry> rs;
  for (auto& k : reads) rs.push_back({k, 0, TxnId{}});
  std::vector<WriteEntry> ws;
  for (auto& k : writes) ws.push_back({k, "v"});
  return MakeTxnBody(TxnId{dc, seq}, std::move(rs), std::move(ws));
}

TEST(TxnBodyTest, RepeatedWriteKeyIsDetected) {
  EXPECT_FALSE(HasDuplicateWriteKey({}));
  EXPECT_FALSE(HasDuplicateWriteKey({{"a", "1"}, {"b", "1"}}));
  EXPECT_TRUE(HasDuplicateWriteKey({{"a", "1"}, {"b", "1"}, {"a", "2"}}));
}

// The commit entry points refuse a repeated key first; a body that still
// carries one stops the process in every build, this NDEBUG one included.
#if GTEST_HAS_DEATH_TEST
TEST(TxnBodyDeathTest, RepeatedWriteKeyAborts) {
  EXPECT_DEATH(RwTxn(0, 7, {}, {"x", "x"}),
               "check failed: .*duplicate key in the write set");
}
#endif

TEST(TxnBodyTest, KeyMembership) {
  auto t = RwTxn(0, 1, {"a", "b"}, {"b", "c"});
  EXPECT_TRUE(t->ReadsKey("a"));
  EXPECT_TRUE(t->ReadsKey("b"));
  EXPECT_FALSE(t->ReadsKey("c"));
  EXPECT_TRUE(t->WritesKey("b"));
  EXPECT_TRUE(t->WritesKey("c"));
  EXPECT_FALSE(t->WritesKey("a"));
}

TEST(ConflictTest, ReadWriteConflict) {
  auto reader = RwTxn(0, 1, {"x"}, {"y"});
  auto writer = RwTxn(1, 1, {}, {"x"});
  EXPECT_TRUE(ConflictsWithWritesOf(*reader, *writer));
  // The reverse direction: writer's read/write sets vs reader's writes.
  EXPECT_FALSE(ConflictsWithWritesOf(*writer, *reader));
}

TEST(ConflictTest, WriteWriteConflict) {
  auto a = RwTxn(0, 1, {}, {"x"});
  auto b = RwTxn(1, 1, {}, {"x"});
  EXPECT_TRUE(ConflictsWithWritesOf(*a, *b));
  EXPECT_TRUE(ConflictsWithWritesOf(*b, *a));
  EXPECT_TRUE(WriteSetsIntersect(*a, *b));
}

TEST(ConflictTest, ReadReadIsNotAConflict) {
  auto a = RwTxn(0, 1, {"x"}, {"p"});
  auto b = RwTxn(1, 1, {"x"}, {"q"});
  EXPECT_FALSE(ConflictsWithWritesOf(*a, *b));
  EXPECT_FALSE(ConflictsWithWritesOf(*b, *a));
  EXPECT_FALSE(WriteSetsIntersect(*a, *b));
}

TEST(ConflictTest, DisjointTxnsDoNotConflict) {
  auto a = RwTxn(0, 1, {"a"}, {"b"});
  auto b = RwTxn(1, 1, {"c"}, {"d"});
  EXPECT_FALSE(ConflictsWithWritesOf(*a, *b));
  EXPECT_FALSE(ConflictsWithWritesOf(*b, *a));
}

TEST(TxnPoolTest, AddRemoveContains) {
  TxnPool pool;
  auto t = RwTxn(0, 1, {"a"}, {"b"});
  pool.Add(t);
  EXPECT_TRUE(pool.Contains(t->id));
  EXPECT_EQ(pool.size(), 1u);
  ASSERT_NE(pool.Find(t->id), nullptr);
  EXPECT_TRUE(pool.Remove(t->id));
  EXPECT_FALSE(pool.Contains(t->id));
  EXPECT_FALSE(pool.Remove(t->id));
  EXPECT_TRUE(pool.empty());
}

TEST(TxnPoolTest, DuplicateAddIgnored) {
  TxnPool pool;
  auto t = RwTxn(0, 1, {"a"}, {"b"});
  pool.Add(t);
  pool.Add(t);
  EXPECT_EQ(pool.size(), 1u);
  pool.Remove(t->id);
  // Indexes must be fully cleaned: a probe touching "b" finds nothing.
  auto probe = RwTxn(1, 1, {"b"}, {"z"});
  EXPECT_TRUE(pool.ConflictingWriters(*probe).empty());
}

TEST(TxnPoolTest, ConflictingWritersMatchesAlgorithm1) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {}, {"x"}));       // Writes x.
  pool.Add(RwTxn(0, 2, {"x"}, {"y"}));    // Reads x, writes y.
  pool.Add(RwTxn(0, 3, {"p"}, {"q"}));    // Unrelated.

  // Probe reads x: conflicts with the writer of x only.
  auto probe1 = RwTxn(1, 1, {"x"}, {"z"});
  auto hits1 = pool.ConflictingWriters(*probe1);
  ASSERT_EQ(hits1.size(), 1u);
  EXPECT_EQ(hits1[0]->id, (TxnId{0, 1}));

  // Probe writes y: conflicts with the writer of y.
  auto probe2 = RwTxn(1, 2, {}, {"y"});
  auto hits2 = pool.ConflictingWriters(*probe2);
  ASSERT_EQ(hits2.size(), 1u);
  EXPECT_EQ(hits2[0]->id, (TxnId{0, 2}));

  // Probe touching nothing pooled: no conflicts.
  auto probe3 = RwTxn(1, 3, {"m"}, {"n"});
  EXPECT_TRUE(pool.ConflictingWriters(*probe3).empty());
}

TEST(TxnPoolTest, VictimsMatchesAlgorithm2) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {"x"}, {"a"}));   // Reads x.
  pool.Add(RwTxn(0, 2, {}, {"x"}));      // Writes x.
  pool.Add(RwTxn(0, 3, {"p"}, {"q"}));   // Unrelated.

  // Incoming remote transaction writes x: both the reader and the writer
  // of x are invalidated.
  auto incoming = RwTxn(1, 1, {"whatever"}, {"x"});
  auto victims = pool.Victims(*incoming);
  EXPECT_EQ(victims.size(), 2u);
}

TEST(TxnPoolTest, VictimsDeduplicated) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {"x"}, {"y"}));  // Reads x AND writes y.
  auto incoming = RwTxn(1, 1, {}, {"x", "y"});  // Hits it twice.
  EXPECT_EQ(pool.Victims(*incoming).size(), 1u);
}

TEST(TxnPoolTest, SelfIsNeverAConflict) {
  TxnPool pool;
  auto t = RwTxn(0, 1, {"x"}, {"x"});
  pool.Add(t);
  EXPECT_TRUE(pool.ConflictingWriters(*t).empty());
  EXPECT_TRUE(pool.Victims(*t).empty());
}

TEST(TxnPoolTest, AllReturnsEverything) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {}, {"a"}));
  pool.Add(RwTxn(0, 2, {}, {"b"}));
  EXPECT_EQ(pool.All().size(), 2u);
}

TEST(TxnPoolTest, BlindWriteConflictsDetected) {
  TxnPool pool;
  pool.Add(RwTxn(0, 1, {}, {"x"}));  // Blind write of x.
  auto probe = RwTxn(1, 1, {}, {"x"});  // Another blind write.
  EXPECT_EQ(pool.ConflictingWriters(*probe).size(), 1u);
  EXPECT_EQ(pool.Victims(*probe).size(), 1u);
}

}  // namespace
}  // namespace helios
