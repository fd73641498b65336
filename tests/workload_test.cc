// Tests for the T-YCSB workload generator and the closed-loop client.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/helios_cluster.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "workload/backoff.h"
#include "workload/client.h"
#include "workload/open_loop.h"
#include "workload/tycsb.h"

namespace helios::workload {
namespace {

TEST(TYcsbTest, PlansHaveConfiguredShape) {
  WorkloadConfig cfg;
  cfg.ops_per_txn = 5;
  TYcsbGenerator gen(cfg, 1);
  for (int i = 0; i < 500; ++i) {
    const TxnPlan plan = gen.NextTxn();
    EXPECT_EQ(plan.reads.size() + plan.writes.size(), 5u);
    EXPECT_GE(plan.writes.size(), 1u);  // At least one write, per the model.
    EXPECT_FALSE(plan.read_only);
  }
}

TEST(TYcsbTest, KeysWithinTransactionAreDistinct) {
  WorkloadConfig cfg;
  cfg.num_keys = 20;  // Small pool: collisions would be likely.
  cfg.zipf_theta = 0.9;
  TYcsbGenerator gen(cfg, 2);
  for (int i = 0; i < 200; ++i) {
    const TxnPlan plan = gen.NextTxn();
    std::set<Key> keys(plan.reads.begin(), plan.reads.end());
    keys.insert(plan.writes.begin(), plan.writes.end());
    EXPECT_EQ(keys.size(), plan.reads.size() + plan.writes.size());
  }
}

TEST(TYcsbTest, HalfReadsHalfWritesOnAverage) {
  WorkloadConfig cfg;
  TYcsbGenerator gen(cfg, 3);
  uint64_t reads = 0;
  uint64_t writes = 0;
  for (int i = 0; i < 2000; ++i) {
    const TxnPlan plan = gen.NextTxn();
    reads += plan.reads.size();
    writes += plan.writes.size();
  }
  const double write_fraction =
      static_cast<double>(writes) / static_cast<double>(reads + writes);
  EXPECT_NEAR(write_fraction, 0.5, 0.03);
}

TEST(TYcsbTest, KeysStayInPool) {
  WorkloadConfig cfg;
  cfg.num_keys = 100;
  TYcsbGenerator gen(cfg, 4);
  for (int i = 0; i < 200; ++i) {
    const TxnPlan plan = gen.NextTxn();
    for (const Key& k : plan.reads) {
      EXPECT_GE(k, TYcsbGenerator::KeyName(0));
      EXPECT_LT(k, TYcsbGenerator::KeyName(100));
    }
  }
}

TEST(TYcsbTest, DeterministicGivenSeed) {
  WorkloadConfig cfg;
  TYcsbGenerator a(cfg, 42);
  TYcsbGenerator b(cfg, 42);
  for (int i = 0; i < 100; ++i) {
    const TxnPlan pa = a.NextTxn();
    const TxnPlan pb = b.NextTxn();
    EXPECT_EQ(pa.reads, pb.reads);
    EXPECT_EQ(pa.writes, pb.writes);
  }
}

TEST(TYcsbTest, ReadOnlyFractionHonored) {
  WorkloadConfig cfg;
  cfg.read_only_fraction = 0.3;
  TYcsbGenerator gen(cfg, 5);
  int read_only = 0;
  const int total = 3000;
  for (int i = 0; i < total; ++i) {
    const TxnPlan plan = gen.NextTxn();
    if (plan.read_only) {
      ++read_only;
      EXPECT_TRUE(plan.writes.empty());
      EXPECT_EQ(plan.reads.size(), 5u);
    }
  }
  EXPECT_NEAR(static_cast<double>(read_only) / total, 0.3, 0.03);
}

TEST(TYcsbTest, ZipfSkewShowsInKeyFrequencies) {
  WorkloadConfig cfg;
  cfg.zipf_theta = 0.9;
  cfg.num_keys = 1000;
  TYcsbGenerator gen(cfg, 6);
  std::map<Key, int> counts;
  for (int i = 0; i < 3000; ++i) {
    for (const Key& k : gen.NextTxn().writes) counts[k]++;
  }
  // The hottest key must be much more frequent than the median.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 30);
}

TEST(TYcsbTest, ValueSizeRespected) {
  WorkloadConfig cfg;
  cfg.value_size = 64;
  TYcsbGenerator gen(cfg, 7);
  EXPECT_EQ(gen.NextValue().size(), 64u);
}

TEST(ClientMetricsTest, MergeAccumulates) {
  ClientMetrics a;
  ClientMetrics b;
  a.committed = 3;
  a.aborted = 1;
  a.ops_committed = 15;
  a.commit_latency_ms.Add(10.0);
  b.committed = 2;
  b.aborted = 2;
  b.ops_committed = 10;
  b.commit_latency_ms.Add(20.0);
  a.Merge(b);
  EXPECT_EQ(a.committed, 5u);
  EXPECT_EQ(a.aborted, 3u);
  EXPECT_EQ(a.ops_committed, 25u);
  EXPECT_EQ(a.commit_latency_ms.count(), 2u);
  EXPECT_NEAR(a.abort_rate(), 3.0 / 8.0, 1e-9);
}

class ClientLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::Network>(&scheduler_, 2, 1);
    const auto topo = harness::UniformTopology(2, 40.0);
    harness::ConfigureNetwork(topo, network_.get());
    core::HeliosConfig cfg;
    cfg.num_datacenters = 2;
    cluster_ = std::make_unique<core::HeliosCluster>(&scheduler_,
                                                     network_.get(), cfg);
    workload_.num_keys = 100;
    cluster_->LoadInitialAll(TYcsbGenerator::Preload(workload_.num_keys));
    cluster_->Start();
  }

  sim::Scheduler scheduler_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<core::HeliosCluster> cluster_;
  WorkloadConfig workload_;
};

TEST_F(ClientLoopTest, ClosedLoopIssuesSequentially) {
  ClosedLoopClient client(1, 0, cluster_.get(), &scheduler_, workload_, 11,
                          /*measure_from=*/0, /*measure_until=*/Seconds(5),
                          /*stop_at=*/Seconds(5));
  client.Start();
  scheduler_.RunUntil(Seconds(6));
  // One outstanding transaction at a time; with ~25-30ms commits and local
  // reads, expect on the order of 100+ transactions in 5 seconds.
  EXPECT_GT(client.metrics().committed, 50u);
  EXPECT_EQ(client.metrics().committed + client.metrics().aborted,
            client.txns_issued());
  EXPECT_GT(client.metrics().ops_committed,
            client.metrics().committed * 4);  // ~5 ops each.
}

TEST_F(ClientLoopTest, MeasurementWindowFiltersSamples) {
  ClosedLoopClient client(1, 0, cluster_.get(), &scheduler_, workload_, 11,
                          /*measure_from=*/Seconds(2),
                          /*measure_until=*/Seconds(4),
                          /*stop_at=*/Seconds(6));
  client.Start();
  scheduler_.RunUntil(Seconds(7));
  // Issued over ~6s but measured over 2s: committed counter must be well
  // below the total issued.
  EXPECT_GT(client.txns_issued(), client.metrics().committed * 2);
  EXPECT_GT(client.metrics().committed, 10u);
}

TEST_F(ClientLoopTest, StopsAtDeadline) {
  ClosedLoopClient client(1, 0, cluster_.get(), &scheduler_, workload_, 11, 0,
                          Seconds(1), /*stop_at=*/Seconds(1));
  client.Start();
  scheduler_.RunUntil(Seconds(10));
  const uint64_t issued = client.txns_issued();
  scheduler_.RunUntil(Seconds(12));
  EXPECT_EQ(client.txns_issued(), issued);
}

TEST_F(ClientLoopTest, ReadOnlyTransactionsCounted) {
  workload_.read_only_fraction = 0.5;
  ClosedLoopClient client(1, 0, cluster_.get(), &scheduler_, workload_, 11, 0,
                          Seconds(5), Seconds(5));
  client.Start();
  scheduler_.RunUntil(Seconds(6));
  EXPECT_GT(client.metrics().read_only_done, 10u);
}

// --- BackoffPolicy: the jittered exponential schedule ------------------------

TEST(BackoffPolicyTest, DelaysAreJitteredDoublingAndCapped) {
  BackoffPolicy policy;
  policy.base = Millis(2);
  policy.cap = Millis(200);
  policy.max_retries = 10;
  Rng rng(123);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int shift = attempt < 20 ? attempt : 20;
    Duration nominal = policy.base * (Duration{1} << shift);
    if (nominal > policy.cap || nominal <= 0) nominal = policy.cap;
    const Duration delay = policy.NextDelay(attempt, &rng);
    EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
    EXPECT_LE(delay, nominal) << "attempt " << attempt;
  }
}

TEST(BackoffPolicyTest, DelayNeverUnderflowsToZero) {
  BackoffPolicy policy;
  policy.base = 1;  // 1 microsecond: jitter would round to 0.
  policy.cap = 2;
  policy.max_retries = 1;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(policy.NextDelay(0, &rng), 1);
  }
}

TEST(BackoffPolicyTest, RetryableRejectionsAreExactlyBusyAndRecovering) {
  EXPECT_TRUE(IsRetryableRejection({TxnId{}, false, kBusyAbortReason}));
  EXPECT_TRUE(IsRetryableRejection({TxnId{}, false, kRecoveringAbortReason}));
  EXPECT_FALSE(IsRetryableRejection({TxnId{}, false, "conflict:pool"}));
  // A committed outcome is never retryable, whatever the reason says.
  EXPECT_FALSE(IsRetryableRejection({TxnId{}, true, kBusyAbortReason}));
}

// --- Busy outcomes on the closed-loop client ---------------------------------

// Stub cluster that rejects every commit as BUSY, one simulated round trip
// after the request.
class SheddingStubCluster : public ProtocolCluster {
 public:
  explicit SheddingStubCluster(sim::Scheduler* sched) : sched_(sched) {}

  void Start() override {}
  void LoadInitialAll(const InitialRows&) override {}
  void ClientRead(DcId, const Key&, ReadCallback done) override {
    sched_->After(kRtt, [done = std::move(done)]() {
      done(VersionedValue{"v", 1, TxnId{}});
    });
  }
  void ClientCommit(DcId, std::vector<ReadEntry>, std::vector<WriteEntry>,
                    CommitCallback done) override {
    ++commit_requests_;
    sched_->After(kRtt, [done = std::move(done)]() {
      done(CommitOutcome{TxnId{}, false, kBusyAbortReason});
    });
  }
  void ClientReadOnly(DcId, std::vector<Key> keys,
                      ReadOnlyCallback done) override {
    sched_->After(kRtt, [keys, done = std::move(done)]() {
      std::vector<Result<VersionedValue>> results;
      for (size_t i = 0; i < keys.size(); ++i) {
        results.emplace_back(VersionedValue{"v", 1, TxnId{}});
      }
      done(std::move(results));
    });
  }

  std::string name() const override { return "shedding-stub"; }
  int num_datacenters() const override { return 1; }

  uint64_t commit_requests() const { return commit_requests_; }

 private:
  static constexpr Duration kRtt = Millis(1);
  sim::Scheduler* sched_;
  uint64_t commit_requests_ = 0;
};

TEST(BusyBackoffTest, DisabledPolicyAbortsWithoutRetrying) {
  sim::Scheduler sched;
  SheddingStubCluster cluster(&sched);
  const sim::SimTime stop = Millis(200);
  WorkloadConfig workload;
  workload.num_keys = 100;
  ClosedLoopClient client(1, 0, &cluster, &sched, workload, /*seed=*/7, 0,
                          stop, stop);
  // A busy outcome is a plain abort: the closed-loop client never retries
  // it (only the live open-loop generator backs off and retries BUSY).
  client.Start();
  sched.Run();

  const ClientMetrics& m = client.metrics();
  EXPECT_EQ(m.committed, 0u);
  EXPECT_GT(m.aborted, 0u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(cluster.commit_requests(), client.txns_issued());
}

// --- Open-loop generator: retry arithmetic against an in-process fake --------

TEST(OpenLoopTest, TransientBusyRetriesThenCommits) {
  // Fake server: rejects the first five requests with BUSY, then commits
  // everything, synchronously on the caller's thread.
  uint64_t requests = 0;
  OpenLoopOptions opts;
  opts.rate_per_sec = 400;
  opts.duration = std::chrono::milliseconds(300);
  opts.seed = 3;
  opts.backoff.base = Millis(1);
  opts.backoff.cap = Millis(4);
  // One early arrival may absorb several of the five global rejections
  // (its quick retries race the next arrivals); a budget larger than the
  // rejection count guarantees every arrival eventually commits.
  opts.backoff.max_retries = 8;
  OpenLoopLoadGen gen(opts, [&requests](std::vector<WriteEntry>,
                                        CommitCallback done) {
    ++requests;
    CommitOutcome out;
    out.committed = requests > 5;
    if (!out.committed) out.abort_reason = kBusyAbortReason;
    done(out);
  });
  const OpenLoopStats stats = gen.Run();

  EXPECT_GT(stats.arrivals, 20u);
  EXPECT_EQ(stats.busy_rejected, 5u);
  EXPECT_EQ(stats.retries, 5u);
  EXPECT_EQ(stats.issued, stats.arrivals + stats.retries);
  EXPECT_EQ(stats.committed, stats.arrivals);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.undrained, 0u);
  EXPECT_EQ(stats.committed + stats.aborted + stats.dropped, stats.arrivals);
}

TEST(OpenLoopTest, AlwaysBusyDropsAfterBoundedRetries) {
  OpenLoopOptions opts;
  opts.rate_per_sec = 400;
  opts.duration = std::chrono::milliseconds(300);
  opts.seed = 3;
  opts.backoff.base = Millis(1);
  opts.backoff.cap = Millis(4);
  opts.backoff.max_retries = 2;
  OpenLoopLoadGen gen(opts, [](std::vector<WriteEntry>, CommitCallback done) {
    done(CommitOutcome{TxnId{}, false, kBusyAbortReason});
  });
  const OpenLoopStats stats = gen.Run();

  // Exactly 1 + max_retries attempts per arrival, then the arrival is
  // dropped — the retry storm is bounded and fully drains.
  EXPECT_GT(stats.arrivals, 20u);
  EXPECT_EQ(stats.issued, stats.arrivals * 3);
  EXPECT_EQ(stats.retries, stats.arrivals * 2);
  EXPECT_EQ(stats.busy_rejected, stats.issued);
  EXPECT_EQ(stats.dropped, stats.arrivals);
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_EQ(stats.undrained, 0u);
}

TEST(OpenLoopTest, NonRetryableAbortIsTerminal) {
  OpenLoopOptions opts;
  opts.rate_per_sec = 400;
  opts.duration = std::chrono::milliseconds(200);
  opts.backoff.max_retries = 4;
  OpenLoopLoadGen gen(opts, [](std::vector<WriteEntry>, CommitCallback done) {
    done(CommitOutcome{TxnId{}, false, "conflict:pool"});
  });
  const OpenLoopStats stats = gen.Run();
  EXPECT_EQ(stats.aborted, stats.arrivals);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.busy_rejected, 0u);
  EXPECT_EQ(stats.issued, stats.arrivals);
}

}  // namespace
}  // namespace helios::workload
