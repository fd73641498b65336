// Tests for the free-list ObjectPool behind the pooled envelope send
// path: recycled objects keep their state (capacity retention is the
// point), the weak-reference deleter survives the pool dying with
// objects still in flight, and the created/reused counters account for
// every acquisition.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/object_pool.h"
#include "core/envelope.h"

namespace helios::common {
namespace {

struct Payload {
  std::vector<int> data;
  int generation = 0;
};

TEST(ObjectPoolTest, RecyclesReleasedObjects) {
  ObjectPool<Payload> pool;
  Payload* first_raw = nullptr;
  {
    std::shared_ptr<Payload> p = pool.Acquire();
    first_raw = p.get();
    p->data.assign(100, 7);
    p->generation = 1;
  }
  EXPECT_EQ(pool.idle(), 1u);
  std::shared_ptr<Payload> again = pool.Acquire();
  // Same object, state intact: callers must reset what they care about,
  // and in exchange keep the vector's allocation.
  EXPECT_EQ(again.get(), first_raw);
  EXPECT_EQ(again->generation, 1);
  EXPECT_EQ(again->data.size(), 100u);
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(ObjectPoolTest, AllocatesWhenFreeListIsEmpty) {
  ObjectPool<Payload> pool;
  std::vector<std::shared_ptr<Payload>> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.Acquire());
  EXPECT_EQ(pool.created(), 5u);
  EXPECT_EQ(pool.reused(), 0u);
  live.clear();
  EXPECT_EQ(pool.idle(), 5u);
  for (int i = 0; i < 5; ++i) live.push_back(pool.Acquire());
  EXPECT_EQ(pool.created(), 5u);
  EXPECT_EQ(pool.reused(), 5u);
}

TEST(ObjectPoolTest, InFlightObjectsOutliveThePool) {
  // A simulated datacenter crash destroys the node's pool while the
  // network still holds its envelopes; the deleter must fall back to
  // plain delete instead of touching the dead free list.
  std::shared_ptr<Payload> survivor;
  {
    ObjectPool<Payload> pool;
    survivor = pool.Acquire();
    survivor->generation = 42;
  }
  EXPECT_EQ(survivor->generation, 42);
  survivor.reset();  // Must not crash or leak (ASan-checked in CI).
}

TEST(ObjectPoolTest, PooledEnvelopeResetKeepsCapacity) {
  // The contract the cluster send path relies on: ResetForReuse blanks
  // the gossip state but the vectors keep their high-water capacity.
  ObjectPool<core::Envelope> pool;
  core::Envelope* raw = nullptr;
  {
    std::shared_ptr<core::Envelope> env = pool.Acquire(4);
    raw = env.get();
    env->log.from = 2;
    env->refusals.resize(8);
    env->suspicions.resize(2);
    env->apparent_delay_us = 31000;
    env->kind = core::EnvelopeKind::kCatchupResponse;
  }
  std::shared_ptr<core::Envelope> env = pool.Acquire(4);
  ASSERT_EQ(env.get(), raw);
  const size_t refusal_capacity = env->refusals.capacity();
  env->ResetForReuse();
  EXPECT_EQ(env->log.from, kInvalidDc);
  EXPECT_TRUE(env->refusals.empty());
  EXPECT_TRUE(env->suspicions.empty());
  EXPECT_FALSE(env->apparent_delay_us.has_value());
  EXPECT_EQ(env->kind, core::EnvelopeKind::kGossip);
  EXPECT_GE(refusal_capacity, 8u);
  EXPECT_EQ(env->refusals.capacity(), refusal_capacity);
}

}  // namespace
}  // namespace helios::common
