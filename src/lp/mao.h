// Commit-latency planning: the Minimum Average Optimal (MAO) linear program
// of Section 3.3, the commit-offset assignment of Section 4.5, the analytic
// latency models behind Table 1, and the throughput-objective variant of
// Appendix A.2.
//
// All latencies in this module are in milliseconds (matching the paper's
// presentation), except the offsets Helios installs: EvenSplitOffsetsUs
// returns them as the engine's microsecond Durations.

#ifndef HELIOS_LP_MAO_H_
#define HELIOS_LP_MAO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace helios::lp {

/// Symmetric matrix of mean round-trip times between datacenters.
class RttMatrix {
 public:
  explicit RttMatrix(int n);

  int size() const { return n_; }
  double Get(int a, int b) const;
  /// Sets both (a, b) and (b, a). a != b; rtt_ms >= 0.
  void Set(int a, int b, double rtt_ms);

  /// Returns a copy with every entry transformed by `f(a, b, rtt)` — used to
  /// inject the RTT-estimation errors of Figure 5.
  template <typename F>
  RttMatrix Map(F f) const {
    RttMatrix out(n_);
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) {
        out.Set(a, b, f(a, b, Get(a, b)));
      }
    }
    return out;
  }

 private:
  int n_;
  std::vector<double> rtt_;
};

/// Solves Problem 1: minimize (1/n) * sum L_i subject to
/// L_a + L_b >= RTT(a, b) for all pairs, L >= 0. Returns per-datacenter
/// commit latencies in milliseconds.
Result<std::vector<double>> SolveMao(const RttMatrix& rtt);

/// Average of a latency vector.
double AverageLatency(const std::vector<double>& latencies);

/// True if L_a + L_b >= RTT(a, b) - eps for every pair (Lemma 1).
bool SatisfiesLowerBound(const RttMatrix& rtt,
                         const std::vector<double>& latencies,
                         double eps = 1e-6);

/// Shortest-path RTTs (Floyd-Warshall), the metric closure of `rtt`. The
/// timetables relay knowledge: A learns what B knows from C's envelope as
/// soon as from B's own, so knowledge travels the closure's paths. Where a
/// topology breaks the triangle inequality (Table 2: O-V-I is 150 ms
/// against a direct 175 ms), Lemma 1 binds measured latencies only through
/// the closure.
RttMatrix MetricClosure(const RttMatrix& rtt);

/// Commit offsets from target latencies (Eq. 5, the paper's plan):
///   co[a][b] = L_a - RTT(a, b) / 2        (diagonal entries are 0)
/// It keeps each pair's whole Lemma-1 slack L_a + L_b - RTT(a, b) inside
/// both offsets; EvenSplitOffsetsUs is the plan Helios installs.
std::vector<std::vector<double>> CommitOffsetsFromLatencies(
    const RttMatrix& rtt, const std::vector<double>& latencies);

/// The commit offsets Helios installs, in integer microseconds: each pair's
/// Lemma-1 slack split evenly between its two offsets,
///   co[a][b] = (L_a - L_b) / 2,   co[b][a] = -co[a][b] exactly
/// (rounded to the nearest microsecond; diagonal entries are 0). Rule 1
/// holds with equality by antisymmetry whatever L is. Where
/// L_a + L_b >= RTT(a, b) (Lemma 1), (L_a - L_b) / 2 <= L_a - RTT(a, b) / 2,
/// so no offset exceeds Eq. 5's and the two agree on tight pairs; for an
/// MAO optimum, Eq. 4 over these offsets still returns L.
std::vector<std::vector<Duration>> EvenSplitOffsetsUs(
    const std::vector<double>& latencies);

/// Microsecond offsets in milliseconds, for EstimateLatencies,
/// ValidateOffsets and PredictLatencies.
std::vector<std::vector<double>> OffsetsMs(
    const std::vector<std::vector<Duration>>& offsets_us);

/// Estimated commit latency from offsets (Eq. 4):
///   L_a = max_b (co[a][b] + RTT(a, b) / 2)
std::vector<double> EstimateLatencies(
    const RttMatrix& rtt, const std::vector<std::vector<double>>& offsets);

/// Verifies Rule 1: co[a][b] + co[b][a] >= -eps for every pair.
Status ValidateOffsets(const std::vector<std::vector<double>>& offsets,
                       double eps = 1e-6);

// --- Analytic models for Table 1 -----------------------------------------

/// Master/slave replication: the master commits immediately; every other
/// datacenter's commit latency is its RTT to the master.
std::vector<double> MasterSlaveLatencies(const RttMatrix& rtt, int master);

/// Majority replication: each datacenter waits for acknowledgments from a
/// majority (itself plus the closest floor(n/2) peers), so its latency is
/// the RTT to its floor(n/2)-th closest peer.
std::vector<double> MajorityLatencies(const RttMatrix& rtt);

// --- Appendix A.2: throughput-optimal assignment --------------------------

/// Maximizes sum_i 1 / (L_i + overhead_ms) over the feasibility polytope.
/// The objective is convex, so the maximum sits at a vertex; this heuristic
/// tries, for each datacenter k, pinning L_k = 0 and greedily minimizing
/// the rest, plus the MAO point, and returns the best. `overhead_ms` is the
/// constant c of Appendix A.2 (transaction execution overhead) and must be
/// positive.
struct ThroughputPlan {
  std::vector<double> latencies;
  double rate_per_client = 0.0;  ///< sum_i 1000 / (L_i + c), txns/sec.
};
Result<ThroughputPlan> OptimizeThroughput(const RttMatrix& rtt,
                                          double overhead_ms);

/// The rate objective for a given assignment (txns/sec per client).
double ThroughputRate(const std::vector<double>& latencies,
                      double overhead_ms);

}  // namespace helios::lp

#endif  // HELIOS_LP_MAO_H_
