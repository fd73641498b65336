// Tests for the parallel sweep engine and its declarative front-end:
// JobPool semantics, ExperimentSpec validation and JSON round-trips, the
// SweepRunner determinism contract (jobs=1 and jobs=8 must be
// bit-identical), cancellation on first failure, progress/metrics
// reporting, and the bench-scale env parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "harness/experiment_spec.h"
#include "harness/job_pool.h"
#include "harness/sweep.h"
#include "json_check.h"

namespace helios::harness {
namespace {

using helios::testing::IsValidJson;

// --- JobPool -----------------------------------------------------------

TEST(JobPoolTest, RunsEverySubmittedJob) {
  JobPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(JobPoolTest, CancelDropsQueuedJobs) {
  JobPool pool(1);
  std::atomic<int> count{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  // First job occupies the single worker so the rest stay queued.
  pool.Submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
    count.fetch_add(1);
  });
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  while (!started.load()) std::this_thread::yield();
  pool.Cancel();
  release.store(true);
  pool.Wait();
  EXPECT_TRUE(pool.cancelled());
  // The running job finished; everything queued was dropped.
  EXPECT_EQ(count.load(), 1);
}

TEST(JobPoolTest, ResolveJobCount) {
  EXPECT_EQ(ResolveJobCount(3), 3);
  EXPECT_EQ(ResolveJobCount(1), 1);
  EXPECT_GE(ResolveJobCount(0), 1);
  EXPECT_GE(ResolveJobCount(-5), 1);
}

// --- Protocol tokens and seeds -----------------------------------------

TEST(SpecTest, ProtocolTokenRoundTrip) {
  for (Protocol p :
       {Protocol::kHelios0, Protocol::kHelios1, Protocol::kHelios2,
        Protocol::kHeliosB, Protocol::kMessageFutures,
        Protocol::kReplicatedCommit, Protocol::kTwoPcPaxos}) {
    const auto parsed = ParseProtocolToken(ProtocolToken(p));
    ASSERT_TRUE(parsed.ok()) << ProtocolToken(p);
    EXPECT_EQ(parsed.value(), p);
    // Display names parse too.
    const auto display = ParseProtocolToken(ProtocolName(p));
    ASSERT_TRUE(display.ok()) << ProtocolName(p);
    EXPECT_EQ(display.value(), p);
  }
  EXPECT_FALSE(ParseProtocolToken("paxos9000").ok());
  EXPECT_FALSE(ParseProtocolToken("").ok());
}

TEST(SpecTest, DeriveSeedIsDeterministicAndDecorrelated) {
  EXPECT_EQ(DeriveSeed(42, 3), DeriveSeed(42, 3));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(43, 0));
}

// --- Spec JSON ---------------------------------------------------------

ExperimentSpec FancySpec() {
  lp::RttMatrix estimate(5);
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      estimate.Set(a, b, 10.0 * a + b + 0.5);
    }
  }
  return ExperimentSpec()
      .WithLabel("fancy")
      .WithProtocol(Protocol::kHelios2)
      .WithClients(24)
      .WithWarmup(Millis(1500))
      .WithMeasure(Seconds(7))
      .WithDrain(Millis(250))
      .WithSeed(987654321)
      .WithOpsPerTxn(3)
      .WithWriteFraction(0.25)
      .WithNumKeys(1234)
      .WithZipfTheta(0.6)
      .WithValueSize(32)
      .WithReadOnlyFraction(0.125)
      .WithLogInterval(Millis(4))
      .WithGraceTime(Millis(321))
      .WithClientLinkOneWay(Micros(750))
      .WithClockOffsets({Millis(10), -Millis(20), 0, Millis(5), -Millis(1)})
      .WithRttEstimate(estimate)
      .WithTwoPcCoordinator(2)
      .WithPreload(true)
      .WithSerializabilityCheck();
}

TEST(SpecJsonTest, RoundTripPreservesEverySpec) {
  const ExperimentSpec original = FancySpec();
  const std::string json = original.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;

  const auto reparsed = ExperimentSpec::FromJson(json);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed.value() == original);
  // Byte-stable: serializing again yields the identical document.
  EXPECT_EQ(reparsed.value().ToJson(), json);
}

TEST(SpecJsonTest, DefaultSpecRoundTrips) {
  const ExperimentSpec original;
  const auto reparsed = ExperimentSpec::FromJson(original.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed.value() == original);
}

// Equality covers every field: key_partitions alone tells two specs apart,
// and it survives the round trip.
TEST(SpecJsonTest, KeyPartitionsRoundTripsAndTellsSpecsApart) {
  const ExperimentSpec original = ExperimentSpec().WithKeyPartitions(4);
  EXPECT_FALSE(original == ExperimentSpec());
  const auto reparsed = ExperimentSpec::FromJson(original.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed.value() == original);
  EXPECT_EQ(reparsed.value().key_partitions, 4);
}

TEST(SpecJsonTest, MissingKeysKeepDefaults) {
  const auto spec = ExperimentSpec::FromJson(R"({"clients": 7})");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().clients, 7);
  EXPECT_EQ(spec.value().protocol, Protocol::kHelios0);
  EXPECT_EQ(spec.value().measure, Seconds(30));
}

TEST(SpecJsonTest, UnknownKeysAreRejected) {
  const auto spec = ExperimentSpec::FromJson(R"({"cleints": 7})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("unknown spec field"),
            std::string::npos);
}

TEST(SpecJsonTest, GarbageIsRejected) {
  EXPECT_FALSE(ExperimentSpec::FromJson("").ok());
  EXPECT_FALSE(ExperimentSpec::FromJson("{").ok());
  EXPECT_FALSE(ExperimentSpec::FromJson("[1,2,3]").ok());
  EXPECT_FALSE(ExperimentSpec::FromJson(R"({"clients": "sixty"})").ok());
}

// --- Validation --------------------------------------------------------

TEST(SpecValidateTest, DefaultSpecIsValid) {
  EXPECT_TRUE(ExperimentSpec().Validate().ok());
}

TEST(SpecValidateTest, RejectsBadRanges) {
  EXPECT_FALSE(ExperimentSpec().WithClients(0).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithClients(-3).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithMeasure(0).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithWarmup(-Seconds(1)).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithZipfTheta(1.0).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithWriteFraction(1.5).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithNumKeys(0).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithTopology("moon_base").Validate().ok());
  EXPECT_FALSE(
      ExperimentSpec().WithUniformTopology(1, 100.0).Validate().ok());
  EXPECT_FALSE(ExperimentSpec().WithTwoPcCoordinator(17).Validate().ok());
}

TEST(SpecValidateTest, RejectsMismatchedVectorSizes) {
  // Table 2 has five datacenters; three offsets cannot be right.
  EXPECT_FALSE(ExperimentSpec()
                   .WithClockOffsets({Millis(1), Millis(2), Millis(3)})
                   .Validate()
                   .ok());
  EXPECT_FALSE(
      ExperimentSpec().WithRttEstimate(lp::RttMatrix(3)).Validate().ok());
}

TEST(SpecValidateTest, ToConfigMaterializesFields) {
  const auto cfg = FancySpec().WithSerializabilityCheck(false).ToConfig();
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(cfg.value().total_clients, 24);
  EXPECT_EQ(cfg.value().seed, 987654321u);
  EXPECT_EQ(cfg.value().workload.num_keys, 1234u);
  EXPECT_DOUBLE_EQ(cfg.value().workload.zipf_theta, 0.6);
  EXPECT_EQ(cfg.value().log_interval, Millis(4));
  EXPECT_EQ(cfg.value().clock_offsets.size(), 5u);
  ASSERT_TRUE(cfg.value().rtt_estimate_ms.has_value());
}

TEST(SpecValidateTest, ToConfigFailsOnInvalidSpec) {
  EXPECT_FALSE(ExperimentSpec().WithClients(0).ToConfig().ok());
}

// --- Sweep determinism -------------------------------------------------

std::vector<ExperimentSpec> SmallGrid() {
  // 2 protocols x 2 client counts x 2 seeds = 8 tiny experiments.
  std::vector<ExperimentSpec> specs;
  uint64_t index = 0;
  for (Protocol p : {Protocol::kHelios0, Protocol::kTwoPcPaxos}) {
    for (int clients : {5, 10}) {
      for (uint64_t seed_axis = 0; seed_axis < 2; ++seed_axis) {
        specs.push_back(ExperimentSpec()
                            .WithProtocol(p)
                            .WithClients(clients)
                            .WithWarmup(Millis(200))
                            .WithMeasure(Seconds(1))
                            .WithDrain(Millis(500))
                            .WithNumKeys(400)
                            .WithSeed(DeriveSeed(7, index++)));
      }
    }
  }
  return specs;
}

void ExpectResultsIdentical(const ExperimentResult& a,
                            const ExperimentResult& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.total_throughput_ops_s, b.total_throughput_ops_s);
  EXPECT_EQ(a.avg_abort_rate, b.avg_abort_rate);
  EXPECT_EQ(a.optimal_avg_latency_ms, b.optimal_avg_latency_ms);
  EXPECT_EQ(a.optimal_latency_ms, b.optimal_latency_ms);
  ASSERT_EQ(a.per_dc.size(), b.per_dc.size());
  for (size_t i = 0; i < a.per_dc.size(); ++i) {
    EXPECT_EQ(a.per_dc[i].name, b.per_dc[i].name);
    EXPECT_EQ(a.per_dc[i].committed, b.per_dc[i].committed);
    EXPECT_EQ(a.per_dc[i].aborted, b.per_dc[i].aborted);
    EXPECT_EQ(a.per_dc[i].latency_mean_ms, b.per_dc[i].latency_mean_ms);
    EXPECT_EQ(a.per_dc[i].latency_stddev_ms, b.per_dc[i].latency_stddev_ms);
    EXPECT_EQ(a.per_dc[i].latency_p50_ms, b.per_dc[i].latency_p50_ms);
    EXPECT_EQ(a.per_dc[i].latency_p99_ms, b.per_dc[i].latency_p99_ms);
    EXPECT_EQ(a.per_dc[i].throughput_ops_s, b.per_dc[i].throughput_ops_s);
    EXPECT_EQ(a.per_dc[i].abort_rate, b.per_dc[i].abort_rate);
  }
}

TEST(SweepRunnerTest, SerialAndParallelRunsAreBitIdentical) {
  const std::vector<ExperimentSpec> specs = SmallGrid();

  SweepOptions serial;
  serial.jobs = 1;
  const SweepResult a = SweepRunner(serial).Run(specs);

  SweepOptions parallel;
  parallel.jobs = 8;
  const SweepResult b = SweepRunner(parallel).Run(specs);

  ASSERT_TRUE(a.status().ok()) << a.status().ToString();
  ASSERT_TRUE(b.status().ok()) << b.status().ToString();
  ASSERT_EQ(a.jobs.size(), specs.size());
  ASSERT_EQ(b.jobs.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(a.jobs[i].spec == specs[i]);
    ExpectResultsIdentical(a.jobs[i].result, b.jobs[i].result);
  }
  // The aggregated documents are byte-identical (timing is excluded).
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_TRUE(IsValidJson(a.ToJson()));
}

TEST(SweepRunnerTest, JsonEchoesSpecsInOrder) {
  std::vector<ExperimentSpec> specs = {
      ExperimentSpec()
          .WithClients(5)
          .WithWarmup(Millis(100))
          .WithMeasure(Millis(500))
          .WithDrain(Millis(200))
          .WithNumKeys(100)
          .WithLabel("only job")};
  const SweepResult r = SweepRunner().Run(specs);
  ASSERT_TRUE(r.status().ok()) << r.status().ToString();
  const std::string json = r.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"helios.sweep.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"only job\""), std::string::npos);
  EXPECT_NE(json.find("\"per_dc\""), std::string::npos);
}

// --- Failure handling --------------------------------------------------

TEST(SweepRunnerTest, FirstFailureCancelsQueuedJobs) {
  // jobs=1 makes the schedule deterministic: the invalid spec runs first,
  // so everything behind it must be cancelled without running.
  std::vector<ExperimentSpec> specs;
  specs.push_back(ExperimentSpec().WithClients(0).WithLabel("bad"));
  for (int i = 0; i < 3; ++i) {
    specs.push_back(ExperimentSpec()
                        .WithClients(5)
                        .WithMeasure(Seconds(1))
                        .WithLabel("good " + std::to_string(i)));
  }
  SweepOptions options;
  options.jobs = 1;
  const SweepResult r = SweepRunner(options).Run(specs);
  EXPECT_FALSE(r.status().ok());
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.jobs[0].ran);
  EXPECT_FALSE(r.jobs[0].status.ok());
  for (size_t i = 1; i < r.jobs.size(); ++i) {
    EXPECT_FALSE(r.jobs[i].ran) << i;
    EXPECT_FALSE(r.jobs[i].status.ok()) << i;
  }
  // status() surfaces the root cause, not a cancellation placeholder.
  EXPECT_NE(r.status().ToString().find("clients"), std::string::npos)
      << r.status().ToString();
}

// --- Progress ----------------------------------------------------------

TEST(SweepRunnerTest, ProgressAndMetricsReportEveryJob) {
  std::vector<ExperimentSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ExperimentSpec()
                        .WithClients(5)
                        .WithWarmup(Millis(100))
                        .WithMeasure(Millis(500))
                        .WithDrain(Millis(200))
                        .WithNumKeys(100)
                        .WithSeed(DeriveSeed(1, i)));
  }
  std::mutex mu;
  std::vector<int> done_values;
  SweepOptions options;
  options.jobs = 2;
  options.progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    done_values.push_back(p.done);
    EXPECT_EQ(p.total, 4);
    EXPECT_TRUE(p.last_status.ok());
  };
  const SweepResult r = SweepRunner(options).Run(specs);
  ASSERT_TRUE(r.status().ok()) << r.status().ToString();
  ASSERT_EQ(done_values.size(), 4u);
  // The callback is serialized, so `done` counts straight up 1..4.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done_values[i], i + 1);
}

// --- Bench scale parsing -----------------------------------------------

TEST(BenchScaleTest, ParsesValidValues) {
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("0.2"), 0.2);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("1"), 1.0);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("2.5"), 2.5);
}

TEST(BenchScaleTest, FallsBackOnGarbage) {
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale(nullptr), 1.0);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale(""), 1.0);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("0,2"), 1.0);  // Comma decimal.
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("fast"), 1.0);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("0.5x"), 1.0);  // Trailing junk.
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("0"), 1.0);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("-3"), 1.0);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("nan"), 1.0);
}

TEST(BenchScaleTest, ClampsExtremes) {
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("0.0001"), 0.01);
  EXPECT_DOUBLE_EQ(bench::ParseBenchScale("1e6"), 100.0);
}

}  // namespace
}  // namespace helios::harness
