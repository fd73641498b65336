// Tests for the Appendix A.1 analytic latency model (Eqs. 6-8) over the
// commit offsets in use, and its agreement with the simulator.

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.h"
#include "harness/topology.h"
#include "lp/latency_model.h"

namespace helios::lp {
namespace {

RttMatrix Table2Rtt() { return harness::Table2Topology().rtt_ms; }

TEST(LatencyModelTest, NoErrorsReproducesPlannedLatencies) {
  // Without skew or estimation error the model is Eq. 4 over the installed
  // offsets, which returns MAO's L.
  const RttMatrix rtt = Table2Rtt();
  const auto planned = SolveMao(rtt).value();
  const auto pred = PredictLatenciesFromEstimate(rtt, rtt, {}, 0.0);
  ASSERT_EQ(pred.latency_ms.size(), planned.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    EXPECT_NEAR(pred.latency_ms[i], planned[i], 1e-3) << i;
    EXPECT_GE(pred.binding_peer[i], 0);
  }
}

TEST(LatencyModelTest, ClockAheadPaysItsOwnSkew) {
  // Eq. 6: with A's clock ahead by s and no other errors, A's latency
  // grows by exactly s (theta(A, B) = +s for every B), and peers whose
  // binding wait is on A can only get faster, never slower.
  const RttMatrix rtt = Table2Rtt();
  const std::vector<double> skew = {100.0, 0.0, 0.0, 0.0, 0.0};
  const auto base = PredictLatenciesFromEstimate(rtt, rtt, {}, 0.0);
  const auto pred = PredictLatenciesFromEstimate(rtt, rtt, skew, 0.0);
  EXPECT_NEAR(pred.latency_ms[0], base.latency_ms[0] + 100.0, 1e-9);
  for (size_t i = 1; i < pred.latency_ms.size(); ++i) {
    EXPECT_LE(pred.latency_ms[i], base.latency_ms[i] + 1e-9) << i;
  }
}

TEST(LatencyModelTest, ClockBehindHelpsItself) {
  const RttMatrix rtt = Table2Rtt();
  const std::vector<double> skew = {-100.0, 0.0, 0.0, 0.0, 0.0};
  const auto pred = PredictLatenciesFromEstimate(rtt, rtt, skew, 0.0);
  const auto base = PredictLatenciesFromEstimate(rtt, rtt, {}, 0.0);
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
  const auto pred = PredictLatencies(
      rtt, CommitOffsetsFromLatencies(estimate, planned), {}, 0.0);
  EXPECT_NEAR(pred.latency_ms[0], 30.0 + 20.0, 1e-9);
  EXPECT_NEAR(pred.latency_ms[1], 30.0 + 20.0, 1e-9);
}

TEST(LatencyModelTest, Eq5OffsetsReduceToEq7) {
  // Over the paper's Eq. 5 offsets, every per-peer wait is exactly Eq. 7's
  // L_A + theta(A, B) + rho(A, B) / 2.
  const RttMatrix rtt = Table2Rtt();
  const RttMatrix estimate = rtt.Map([](int a, int b, double v) {
    return std::max(0.0, v + 10.0 * ((a + 2 * b) % 5) - 20.0);
  });
  const auto planned = SolveMao(estimate).value();
  const std::vector<double> skew = {24.0, -60.0, 120.0, -10.0, 55.0};
  const auto pred = PredictLatencies(
      rtt, CommitOffsetsFromLatencies(estimate, planned), skew, 0.0);
  for (int a = 0; a < rtt.size(); ++a) {
    double eq7 = 0.0;
    for (int b = 0; b < rtt.size(); ++b) {
      if (b == a) continue;
      const double rho = rtt.Get(a, b) - estimate.Get(a, b);
      eq7 = std::max(eq7, planned[a] + (skew[a] - skew[b]) + rho / 2.0);
    }
    EXPECT_NEAR(pred.latency_ms[a], eq7, 1e-9) << a;
  }
}

TEST(LatencyModelTest, EvenSplitWaitsHalfASlackLessThanEq7) {
  // Fig. 5's "V -100ms": every peer's clock is 100ms ahead of V's, so I
  // binds on V, a slack pair (L_V + L_I - RTT = 149ms). Eq. 7 charges I
  // L_I + 100 = 265ms; the installed co[I][V] = (L_I - L_V) / 2 = 48.5ms
  // waits 48.5 + 84/2 + 100 = 190.5ms.
  const RttMatrix rtt = Table2Rtt();
  const std::vector<double> skew = {-100.0, 0.0, 0.0, 0.0, 0.0};
  const auto pred = PredictLatenciesFromEstimate(rtt, rtt, skew, 0.0);
  EXPECT_EQ(pred.binding_peer[3], 0);
  EXPECT_NEAR(pred.latency_ms[3], 190.5, 1e-9);
  const auto planned = SolveMao(rtt).value();
  const auto eq7 = PredictLatencies(
      rtt, CommitOffsetsFromLatencies(rtt, planned), skew, 0.0);
  EXPECT_NEAR(eq7.latency_ms[3], 265.0, 1e-6);
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
  // gap over the model (2.1 ms): client links, service and queueing, and
  // what remains of the propagation tick once each record takes the first
  // timestamp its node has not yet promised, less what knowledge relayed
  // through a third datacenter saves (O and I measure under their MAO
  // latencies).
  const double overhead_ms = 2.1;
  const auto pred =
      PredictLatenciesFromEstimate(rtt, rtt, skew_ms, overhead_ms);
  for (size_t dc = 0; dc < 5; ++dc) {
    EXPECT_NEAR(r.per_dc[dc].latency_mean_ms, pred.latency_ms[dc], 15.0)
        << "datacenter " << dc;
  }
}

}  // namespace
}  // namespace helios::lp
