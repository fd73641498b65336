// Tests for the simplex solver and the commit-latency planning layer:
// MAO (Problem 1), commit offsets (Eq. 4/5), the Table 1 analytic models,
// and the Appendix A.2 throughput optimizer.

#include <gtest/gtest.h>

#include <cmath>

#include "lp/mao.h"
#include "lp/simplex.h"

namespace helios::lp {
namespace {

TEST(SimplexTest, SimpleTwoVariableProblem) {
  // minimize x + y  s.t.  x + y >= 10, x >= 2  ->  objective 10.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  p.AddGe({1.0, 1.0}, 10.0);
  p.AddGe({1.0, 0.0}, 2.0);
  auto sol = SolveLp(p);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol.value().objective_value, 10.0, 1e-6);
  EXPECT_GE(sol.value().x[0], 2.0 - 1e-9);
}

TEST(SimplexTest, DegenerateAndRedundantConstraints) {
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1.0, 2.0};
  p.AddGe({1.0, 0.0}, 5.0);
  p.AddGe({1.0, 0.0}, 5.0);  // Duplicate.
  p.AddGe({2.0, 0.0}, 10.0);  // Redundant multiple.
  auto sol = SolveLp(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().objective_value, 5.0, 1e-6);
  EXPECT_NEAR(sol.value().x[1], 0.0, 1e-9);
}

TEST(SimplexTest, UnboundedDetected) {
  // minimize -x  s.t. x >= 1: pushing x up forever.
  LpProblem p;
  p.num_vars = 1;
  p.objective = {-1.0};
  p.AddGe({1.0}, 1.0);
  auto sol = SolveLp(p);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kAborted);
}

TEST(SimplexTest, NoConstraintsMinimizesAtZero) {
  LpProblem p;
  p.num_vars = 3;
  p.objective = {1.0, 2.0, 3.0};
  auto sol = SolveLp(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().objective_value, 0.0, 1e-9);
}

TEST(SimplexTest, ShapeValidation) {
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1.0};  // Wrong size.
  EXPECT_FALSE(SolveLp(p).ok());
}

TEST(SimplexTest, LargerRandomlyStructuredProblem) {
  // minimize sum x_i subject to x_i + x_j >= i + j for a clique of 8:
  // the optimum is x_i = i (verified: tight on adjacent pairs).
  LpProblem p;
  const int n = 8;
  p.num_vars = n;
  p.objective.assign(n, 1.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::vector<double> c(n, 0.0);
      c[i] = 1.0;
      c[j] = 1.0;
      p.AddGe(std::move(c), static_cast<double>(i + j));
    }
  }
  auto sol = SolveLp(p);
  ASSERT_TRUE(sol.ok());
  double expected = 0.0;
  for (int i = 0; i < n; ++i) expected += i;
  EXPECT_NEAR(sol.value().objective_value, expected, 1e-6);
}

// --- MAO ----------------------------------------------------------------------

RttMatrix PaperExampleRtt() {
  // Section 3.2 example: RTT(A,B)=30, RTT(A,C)=20, RTT(B,C)=40.
  RttMatrix rtt(3);
  rtt.Set(0, 1, 30);
  rtt.Set(0, 2, 20);
  rtt.Set(1, 2, 40);
  return rtt;
}

RttMatrix Table2Rtt() {
  // Table 2, order V O C I S.
  RttMatrix rtt(5);
  rtt.Set(0, 1, 66);
  rtt.Set(0, 2, 78);
  rtt.Set(0, 3, 84);
  rtt.Set(0, 4, 268);
  rtt.Set(1, 2, 19);
  rtt.Set(1, 3, 175);
  rtt.Set(1, 4, 210);
  rtt.Set(2, 3, 175);
  rtt.Set(2, 4, 182);
  rtt.Set(3, 4, 194);
  return rtt;
}

TEST(MaoTest, PaperThreeDatacenterExample) {
  // Table 1's MAO row: latencies 5 / 25 / 15, average 15.
  auto mao = SolveMao(PaperExampleRtt());
  ASSERT_TRUE(mao.ok());
  const auto& l = mao.value();
  EXPECT_NEAR(l[0], 5.0, 1e-6);
  EXPECT_NEAR(l[1], 25.0, 1e-6);
  EXPECT_NEAR(l[2], 15.0, 1e-6);
  EXPECT_NEAR(AverageLatency(l), 15.0, 1e-6);
  EXPECT_TRUE(SatisfiesLowerBound(PaperExampleRtt(), l));
}

TEST(MaoTest, Table2OptimalLatencies) {
  // Section 5.1 reports optimal latencies 69/10/10/166/200 (V O C I S),
  // average 91ms. The true optimum of that LP is in fact avg 90.6ms
  // (e.g. 68/10/10/165/200 satisfies every pair constraint), so the
  // paper's published assignment is feasible but ~0.4ms off optimal —
  // see EXPERIMENTS.md. We assert our solution is feasible and at least
  // as good as the paper's.
  auto mao = SolveMao(Table2Rtt());
  ASSERT_TRUE(mao.ok());
  const auto& l = mao.value();
  EXPECT_TRUE(SatisfiesLowerBound(Table2Rtt(), l));
  EXPECT_LE(AverageLatency(l), 91.0 + 1e-6);
  EXPECT_NEAR(AverageLatency(l), 90.6, 1e-6);
  // The paper's own assignment is feasible (sanity check on the data).
  EXPECT_TRUE(SatisfiesLowerBound(Table2Rtt(), {69, 10, 10, 166, 200}));
}

TEST(MaoTest, MetricClosureRelaysThroughShorterPaths) {
  const RttMatrix closure = MetricClosure(Table2Rtt());
  EXPECT_DOUBLE_EQ(closure.Get(1, 3), 150.0);  // O-V-I, direct 175.
  EXPECT_DOUBLE_EQ(closure.Get(2, 3), 162.0);  // C-V-I, direct 175.
  EXPECT_DOUBLE_EQ(closure.Get(0, 4), 260.0);  // V-C-S, direct 268.
  EXPECT_DOUBLE_EQ(closure.Get(1, 4), 201.0);  // O-C-S, direct 210.
  EXPECT_DOUBLE_EQ(closure.Get(0, 1), 66.0);   // Already shortest.
  // A metric is its own closure.
  const RttMatrix again = MetricClosure(closure);
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      EXPECT_DOUBLE_EQ(again.Get(a, b), closure.Get(a, b));
    }
  }
  // MAO over the closure is the floor measured latencies obey.
  EXPECT_NEAR(AverageLatency(SolveMao(closure).value()), 85.1, 0.05);
}

TEST(MaoTest, TwoDatacentersSplitTheRtt) {
  RttMatrix rtt(2);
  rtt.Set(0, 1, 100);
  auto mao = SolveMao(rtt);
  ASSERT_TRUE(mao.ok());
  EXPECT_NEAR(mao.value()[0] + mao.value()[1], 100.0, 1e-6);
  EXPECT_NEAR(AverageLatency(mao.value()), 50.0, 1e-6);
}

TEST(MaoTest, MasterSlaveMatchesTable1) {
  const auto a_master = MasterSlaveLatencies(PaperExampleRtt(), 0);
  EXPECT_NEAR(AverageLatency(a_master), 50.0 / 3.0, 1e-6);  // 16.67
  const auto c_master = MasterSlaveLatencies(PaperExampleRtt(), 2);
  EXPECT_NEAR(AverageLatency(c_master), 20.0, 1e-6);
  EXPECT_TRUE(SatisfiesLowerBound(PaperExampleRtt(), a_master));
  EXPECT_TRUE(SatisfiesLowerBound(PaperExampleRtt(), c_master));
}

TEST(MaoTest, MajorityMatchesTable1) {
  const auto l = MajorityLatencies(PaperExampleRtt());
  // Paper Table 1: 20 / 30 / 20, average 23.33.
  EXPECT_NEAR(l[0], 20.0, 1e-6);
  EXPECT_NEAR(l[1], 30.0, 1e-6);
  EXPECT_NEAR(l[2], 20.0, 1e-6);
  EXPECT_NEAR(AverageLatency(l), 70.0 / 3.0, 1e-6);
}

TEST(MaoTest, MaoBeatsEveryTable1Alternative) {
  const auto rtt = PaperExampleRtt();
  const double mao = AverageLatency(SolveMao(rtt).value());
  EXPECT_LT(mao, AverageLatency(MasterSlaveLatencies(rtt, 0)));
  EXPECT_LT(mao, AverageLatency(MasterSlaveLatencies(rtt, 1)));
  EXPECT_LT(mao, AverageLatency(MasterSlaveLatencies(rtt, 2)));
  EXPECT_LT(mao, AverageLatency(MajorityLatencies(rtt)));
}

TEST(OffsetsTest, RoundTripThroughEquations4And5) {
  const auto rtt = Table2Rtt();
  const auto latencies = SolveMao(rtt).value();
  const auto offsets = CommitOffsetsFromLatencies(rtt, latencies);
  // Rule 1 must hold by construction (Section 4.5 "Correctness").
  EXPECT_TRUE(ValidateOffsets(offsets).ok());
  // Eq. 4 recovers the latencies from the offsets.
  const auto estimated = EstimateLatencies(rtt, offsets);
  for (size_t i = 0; i < latencies.size(); ++i) {
    EXPECT_NEAR(estimated[i], latencies[i], 1e-6) << i;
  }
}

TEST(OffsetsTest, Rule1ViolationDetected) {
  std::vector<std::vector<double>> offsets = {{0, -5}, {3, 0}};  // Sum -2.
  EXPECT_FALSE(ValidateOffsets(offsets).ok());
  offsets[1][0] = 5.0;
  EXPECT_TRUE(ValidateOffsets(offsets).ok());
}

TEST(OffsetsTest, ZeroRttEstimateGivesZeroLatencyOffsets) {
  // Figure 5's "RTT estimation 2": assuming zero RTTs assigns everyone a
  // commit latency of zero, i.e. offsets equal to -RTT/2 under the truth.
  RttMatrix zero(3);
  const auto latencies = SolveMao(zero).value();
  for (double l : latencies) EXPECT_NEAR(l, 0.0, 1e-9);
  const auto offsets = CommitOffsetsFromLatencies(zero, latencies);
  EXPECT_TRUE(ValidateOffsets(offsets).ok());
}

// --- Appendix A.2 throughput optimization ---------------------------------------

TEST(ThroughputTest, RateFormula) {
  // Paper: assignment 5/25/15 yields 1000*(1/5+1/25+1/15) = 306.66 txns/s
  // per client (with zero execution overhead; we use the same numbers with
  // overhead folded into the latencies for the check).
  const double rate = ThroughputRate({5.0, 25.0, 15.0}, 0.0 + 1e-12);
  EXPECT_NEAR(rate, 306.66, 0.1);
  const double alt = ThroughputRate({1.0, 29.0, 19.0}, 1e-12);
  EXPECT_NEAR(alt, 1087.11, 0.1);
}

TEST(ThroughputTest, OptimizerBeatsMaoOnPaperExample) {
  auto plan = OptimizeThroughput(PaperExampleRtt(), /*overhead_ms=*/1.0);
  ASSERT_TRUE(plan.ok());
  const auto mao = SolveMao(PaperExampleRtt()).value();
  EXPECT_GT(plan.value().rate_per_client, ThroughputRate(mao, 1.0));
  EXPECT_TRUE(SatisfiesLowerBound(PaperExampleRtt(), plan.value().latencies));
}

TEST(ThroughputTest, RejectsZeroOverhead) {
  EXPECT_FALSE(OptimizeThroughput(PaperExampleRtt(), 0.0).ok());
}

TEST(RttMatrixTest, MapTransformsEntries) {
  auto rtt = PaperExampleRtt();
  auto doubled = rtt.Map([](int, int, double v) { return v * 2.0; });
  EXPECT_NEAR(doubled.Get(0, 1), 60.0, 1e-9);
  EXPECT_NEAR(doubled.Get(1, 2), 80.0, 1e-9);
  EXPECT_NEAR(rtt.Get(0, 1), 30.0, 1e-9);  // Original untouched.
}

}  // namespace
}  // namespace helios::lp
