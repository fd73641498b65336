// Property tests for the LP layer: the simplex solver is validated against
// brute-force vertex enumeration on random MAO instances, and the
// planning pipeline's invariants are checked across random topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "lp/mao.h"
#include "lp/simplex.h"

namespace helios::lp {
namespace {

RttMatrix RandomRtt(Rng& rng, int n, double max_rtt) {
  // Build a metric-ish random matrix: embed datacenters on a line segment
  // and add noise, keeping the triangle inequality approximately true (the
  // paper's model assumes it; MAO itself does not need it).
  std::vector<double> pos;
  for (int i = 0; i < n; ++i) {
    pos.push_back(rng.NextDouble() * max_rtt / 2.0);
  }
  RttMatrix rtt(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double base = std::fabs(pos[a] - pos[b]) + 5.0;
      rtt.Set(a, b, base + rng.NextDouble() * 4.0);
    }
  }
  return rtt;
}

// Brute-force MAO for small n: the optimum of a linear program lies at a
// vertex, i.e. at a point where n linearly independent constraints are
// tight (from L_a + L_b = RTT(a,b) and L_a = 0). Enumerate all subsets of
// n constraints, solve the linear system by Gaussian elimination, keep
// feasible solutions, return the best average.
double BruteForceMaoAverage(const RttMatrix& rtt) {
  const int n = rtt.size();
  struct Con {
    std::vector<double> coeffs;
    double rhs;
  };
  std::vector<Con> cons;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      std::vector<double> c(n, 0.0);
      c[a] = 1.0;
      c[b] = 1.0;
      cons.push_back({c, rtt.Get(a, b)});
    }
  }
  for (int a = 0; a < n; ++a) {
    std::vector<double> c(n, 0.0);
    c[a] = 1.0;
    cons.push_back({c, 0.0});
  }

  double best = 1e18;
  const int m = static_cast<int>(cons.size());
  std::vector<int> idx(n);
  // Enumerate n-subsets of constraints.
  std::function<void(int, int)> recurse = [&](int start, int depth) {
    if (depth == n) {
      // Solve the tight system.
      std::vector<std::vector<double>> a(n, std::vector<double>(n + 1, 0.0));
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) a[r][c] = cons[idx[r]].coeffs[c];
        a[r][n] = cons[idx[r]].rhs;
      }
      // Gaussian elimination with partial pivoting.
      for (int col = 0; col < n; ++col) {
        int pivot = -1;
        double best_abs = 1e-9;
        for (int r = col; r < n; ++r) {
          if (std::fabs(a[r][col]) > best_abs) {
            best_abs = std::fabs(a[r][col]);
            pivot = r;
          }
        }
        if (pivot < 0) return;  // Singular: not a vertex.
        std::swap(a[col], a[pivot]);
        for (int r = 0; r < n; ++r) {
          if (r == col) continue;
          const double f = a[r][col] / a[col][col];
          for (int c = col; c <= n; ++c) a[r][c] -= f * a[col][c];
        }
      }
      std::vector<double> x(n);
      for (int r = 0; r < n; ++r) x[r] = a[r][n] / a[r][r];
      // Feasibility.
      for (double v : x) {
        if (v < -1e-7) return;
      }
      for (const Con& con : cons) {
        double lhs = 0.0;
        for (int c = 0; c < n; ++c) lhs += con.coeffs[c] * x[c];
        if (lhs < con.rhs - 1e-6) return;
      }
      best = std::min(best, AverageLatency(x));
      return;
    }
    for (int i = start; i <= m - (n - depth); ++i) {
      idx[depth] = i;
      recurse(i + 1, depth + 1);
    }
  };
  recurse(0, 0);
  return best;
}

class MaoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaoPropertyTest, SimplexMatchesBruteForceVertexEnumeration) {
  Rng rng(GetParam());
  for (int n : {2, 3, 4}) {
    const RttMatrix rtt = RandomRtt(rng, n, 200.0);
    auto sol = SolveMao(rtt);
    ASSERT_TRUE(sol.ok());
    EXPECT_TRUE(SatisfiesLowerBound(rtt, sol.value()));
    const double brute = BruteForceMaoAverage(rtt);
    EXPECT_NEAR(AverageLatency(sol.value()), brute, 1e-5)
        << "n=" << n << " seed=" << GetParam();
  }
}

TEST_P(MaoPropertyTest, MaoNeverWorseThanAnalyticBaselines) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int n : {3, 5, 8}) {
    const RttMatrix rtt = RandomRtt(rng, n, 300.0);
    const double mao = AverageLatency(SolveMao(rtt).value());
    for (int master = 0; master < n; ++master) {
      EXPECT_LE(mao, AverageLatency(MasterSlaveLatencies(rtt, master)) + 1e-6);
    }
    EXPECT_LE(mao, AverageLatency(MajorityLatencies(rtt)) + 1e-6);
  }
}

TEST_P(MaoPropertyTest, OffsetsAlwaysSatisfyRule1AndInvertThroughEq4) {
  Rng rng(GetParam() ^ 0x1234);
  for (int n : {3, 5, 7}) {
    const RttMatrix rtt = RandomRtt(rng, n, 250.0);
    const auto latencies = SolveMao(rtt).value();
    const auto offsets = CommitOffsetsFromLatencies(rtt, latencies);
    EXPECT_TRUE(ValidateOffsets(offsets).ok());
    const auto estimated = EstimateLatencies(rtt, offsets);
    for (int a = 0; a < n; ++a) {
      // Eq. 4 recovers at most the planned latency (exactly, when the
      // binding constraint is tight; never more).
      EXPECT_LE(estimated[a], latencies[a] + 1e-6);
      EXPECT_GE(estimated[a], -1e-9);
    }
  }
}

// The plan Helios installs (lp::EvenSplitOffsetsUs) over MAO's optimum.
struct InstalledPlan {
  RttMatrix rtt;
  std::vector<double> latencies;
  std::vector<std::vector<Duration>> offsets_us;
};

std::vector<InstalledPlan> RandomInstalledPlans(uint64_t seed) {
  Rng rng(seed);
  std::vector<InstalledPlan> plans;
  for (int n : {3, 5, 7}) {
    InstalledPlan p{RandomRtt(rng, n, 250.0), {}, {}};
    p.latencies = SolveMao(p.rtt).value();
    p.offsets_us = EvenSplitOffsetsUs(p.latencies);
    plans.push_back(std::move(p));
  }
  return plans;
}

TEST_P(MaoPropertyTest, InstalledOffsetsOfEachPairSumToZero) {
  for (const InstalledPlan& p : RandomInstalledPlans(GetParam() ^ 0x5EED)) {
    const int n = p.rtt.size();
    ASSERT_EQ(static_cast<int>(p.offsets_us.size()), n);
    for (int a = 0; a < n; ++a) {
      EXPECT_EQ(p.offsets_us[a][a], 0);
      for (int b = a + 1; b < n; ++b) {
        EXPECT_EQ(p.offsets_us[a][b] + p.offsets_us[b][a], 0)
            << "n=" << n << " pair " << a << "," << b;
      }
    }
  }
}

TEST_P(MaoPropertyTest, InstalledOffsetsInvertThroughEq4ToMao) {
  for (const InstalledPlan& p : RandomInstalledPlans(GetParam() ^ 0x5EED)) {
    const auto estimated = EstimateLatencies(p.rtt, OffsetsMs(p.offsets_us));
    for (int a = 0; a < p.rtt.size(); ++a) {
      EXPECT_NEAR(estimated[a], p.latencies[a], 1e-3)  // 1 us.
          << "n=" << p.rtt.size() << " dc " << a;
    }
  }
}

TEST_P(MaoPropertyTest, InstalledOffsetsNeverExceedEq5AndMatchItOnTightPairs) {
  int slack_pairs = 0;
  for (const InstalledPlan& p : RandomInstalledPlans(GetParam() ^ 0x5EED)) {
    const int n = p.rtt.size();
    const auto eq5 = CommitOffsetsFromLatencies(p.rtt, p.latencies);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a == b) continue;
        // Eq. 5 in microseconds; the installed plan rounds to the nearest.
        const double eq5_us = eq5[a][b] * 1000.0;
        const auto installed = static_cast<double>(p.offsets_us[a][b]);
        EXPECT_LE(installed, eq5_us + 0.5 + 1e-6) << a << "," << b;
        const double slack = p.latencies[a] + p.latencies[b] - p.rtt.Get(a, b);
        if (slack < 1e-6) {
          EXPECT_NEAR(installed, eq5_us, 0.5 + 1e-6) << a << "," << b;
        } else if (a < b) {
          ++slack_pairs;
        }
      }
    }
  }
  EXPECT_GT(slack_pairs, 0) << "no slack pair drawn: the split went untested";
}

TEST_P(MaoPropertyTest, ThroughputOptimizerStaysFeasibleAndBeatsNothingWorse) {
  Rng rng(GetParam() ^ 0x7777);
  const RttMatrix rtt = RandomRtt(rng, 4, 150.0);
  const auto plan = OptimizeThroughput(rtt, 1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(SatisfiesLowerBound(rtt, plan.value().latencies));
  const auto mao = SolveMao(rtt).value();
  EXPECT_GE(plan.value().rate_per_client, ThroughputRate(mao, 1.0) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaoPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(SimplexPropertyTest, RandomFeasibleProblemsSolve) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(4));
    LpProblem p;
    p.num_vars = n;
    for (int i = 0; i < n; ++i) {
      p.objective.push_back(0.1 + rng.NextDouble());
    }
    const int m = 1 + static_cast<int>(rng.Uniform(6));
    for (int c = 0; c < m; ++c) {
      std::vector<double> coeffs;
      for (int i = 0; i < n; ++i) coeffs.push_back(rng.NextDouble());
      p.AddGe(std::move(coeffs), rng.NextDouble() * 10.0);
    }
    auto sol = SolveLp(p);
    ASSERT_TRUE(sol.ok()) << "trial " << trial;
    // Verify feasibility of the reported solution.
    for (const auto& con : p.constraints) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i) lhs += con.coeffs[i] * sol.value().x[i];
      EXPECT_GE(lhs, con.rhs - 1e-6);
    }
    for (double x : sol.value().x) EXPECT_GE(x, -1e-9);
  }
}

}  // namespace
}  // namespace helios::lp
