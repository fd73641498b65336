// Tests for the Appendix A.1 analytic latency model (Eqs. 6-8) and its
// agreement with the simulator.

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/topology.h"
#include "lp/latency_model.h"

namespace helios::lp {
namespace {

RttMatrix Table2Rtt() { return harness::Table2Topology().rtt_ms; }

TEST(LatencyModelTest, NoErrorsReproducesPlannedLatencies) {
  const RttMatrix rtt = Table2Rtt();
  const auto planned = SolveMao(rtt).value();
  const auto pred = PredictLatencies(rtt, rtt, planned, {}, 0.0);
  ASSERT_EQ(pred.latency_ms.size(), planned.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    EXPECT_NEAR(pred.latency_ms[i], planned[i], 1e-9) << i;
    EXPECT_GE(pred.binding_peer[i], 0);
  }
}

TEST(LatencyModelTest, ClockAheadPaysItsOwnSkew) {
  // Eq. 6: with A's clock ahead by s and no other errors, A's latency
  // grows by exactly s (theta(A, B) = +s for every B), and peers whose
  // binding wait is on A can only get faster, never slower.
  const RttMatrix rtt = Table2Rtt();
  const auto planned = SolveMao(rtt).value();
  const std::vector<double> skew = {100.0, 0.0, 0.0, 0.0, 0.0};
  const auto base = PredictLatencies(rtt, rtt, planned, {}, 0.0);
  const auto pred = PredictLatencies(rtt, rtt, planned, skew, 0.0);
  EXPECT_NEAR(pred.latency_ms[0], base.latency_ms[0] + 100.0, 1e-9);
  for (size_t i = 1; i < pred.latency_ms.size(); ++i) {
    EXPECT_LE(pred.latency_ms[i], base.latency_ms[i] + 1e-9) << i;
  }
}

TEST(LatencyModelTest, ClockBehindHelpsItself) {
  const RttMatrix rtt = Table2Rtt();
  const auto planned = SolveMao(rtt).value();
  const std::vector<double> skew = {-100.0, 0.0, 0.0, 0.0, 0.0};
  const auto pred = PredictLatencies(rtt, rtt, planned, skew, 0.0);
  const auto base = PredictLatencies(rtt, rtt, planned, {}, 0.0);
  // V's own wait shrinks (floored at 0); everyone whose binding peer is V
  // waits up to 100ms longer.
  EXPECT_LT(pred.latency_ms[0], base.latency_ms[0]);
  EXPECT_GE(pred.latency_ms[0], 0.0);
}

TEST(LatencyModelTest, RttUnderestimateAddsHalfTheErrorPerEq7) {
  RttMatrix rtt(2);
  rtt.Set(0, 1, 100.0);
  RttMatrix estimate(2);
  estimate.Set(0, 1, 60.0);  // rho = +40.
  // (Any split summing to 60 is MAO-optimal for two datacenters; pin the
  // symmetric one explicitly.)
  const std::vector<double> planned = {30.0, 30.0};
  const auto pred = PredictLatencies(rtt, estimate, planned, {}, 0.0);
  EXPECT_NEAR(pred.latency_ms[0], 30.0 + 20.0, 1e-9);
  EXPECT_NEAR(pred.latency_ms[1], 30.0 + 20.0, 1e-9);
}

TEST(LatencyModelTest, OverestimateNeverGoesNegative) {
  RttMatrix rtt(2);
  rtt.Set(0, 1, 20.0);
  RttMatrix estimate(2);
  estimate.Set(0, 1, 500.0);
  const auto pred = PredictLatenciesFromEstimate(rtt, estimate, {}, 0.0);
  for (double l : pred.latency_ms) EXPECT_GE(l, 0.0);
}

TEST(LatencyModelTest, OverheadIsAdditive) {
  const RttMatrix rtt = Table2Rtt();
  const auto a = PredictLatenciesFromEstimate(rtt, rtt, {}, 0.0);
  const auto b = PredictLatenciesFromEstimate(rtt, rtt, {}, 12.5);
  for (size_t i = 0; i < a.latency_ms.size(); ++i) {
    EXPECT_NEAR(b.latency_ms[i], a.latency_ms[i] + 12.5, 1e-9);
  }
}

// End-to-end agreement: the analytic model must predict the simulator's
// measured per-datacenter latency within a modest tolerance, including
// under skew — the Appendix A.1 claim made quantitative.
TEST(LatencyModelTest, PredictionMatchesSimulation) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kHelios0;
  cfg.total_clients = 15;
  cfg.warmup = Seconds(2);
  cfg.measure = Seconds(6);
  cfg.workload.num_keys = 5000;
  cfg.clock_offsets = {Millis(40), -Millis(30), 0, 0, Millis(10)};

  const auto r = harness::RunExperiment(cfg);

  const RttMatrix rtt = Table2Rtt();
  std::vector<double> skew_ms;
  for (Duration d : cfg.clock_offsets) skew_ms.push_back(ToMillis(d));
  // The constant overhead is the synchronized run's mean per-datacenter
  // gap over the model (5.2 ms): client links, service and queueing, and
  // what remains of the propagation tick once each record takes the first
  // timestamp its node has not yet promised.
  const double overhead_ms = 5.2;
  const auto pred =
      PredictLatenciesFromEstimate(rtt, rtt, skew_ms, overhead_ms);
  for (size_t dc = 0; dc < 5; ++dc) {
    EXPECT_NEAR(r.per_dc[dc].latency_mean_ms, pred.latency_ms[dc], 15.0)
        << "datacenter " << dc;
  }
}

}  // namespace
}  // namespace helios::lp
