// Appendix A.1: the analytic model of Helios's *observable* commit latency
// under clock skew and RTT-estimation error.
//
// With commit offsets co installed, A's commit waits on each peer B until
// B's log covers q(t) + co[A][B], which arrives
//
//     co[A][B] + RTT_true(A, B) / 2 + theta(A, B)
//
// after the request, where theta(A, B) is A's clock offset minus B's
// (positive when A's clock runs ahead — A must wait longer for B's
// timestamps to catch up). For the paper's Eq. 5 offsets planned from
// estimated RTTs, co[A][B] = L_A - RTT_est(A, B) / 2, this is Eq. 7:
//
//     L_A + theta(A, B) + rho(A, B) / 2                     (Eq. 7)
//
// with rho(A, B) the amount by which the true RTT exceeds the estimate.
// Helios installs the even-split plan (lp::EvenSplitOffsetsUs), whose
// co[A][B] = (L_A - L_B) / 2 lowers that term by half the pair's planned
// slack L_A + L_B - RTT_est(A, B), so Eq. 7 as written overstates every
// wait on a slack pair. The observable latency is the maximum over peers,
// floored at zero (a message can already have arrived before the commit
// request), plus the compute overheads C_local / C_remote of Eq. 8, which
// the caller supplies as a measured constant.

#ifndef HELIOS_LP_LATENCY_MODEL_H_
#define HELIOS_LP_LATENCY_MODEL_H_

#include <vector>

#include "lp/mao.h"

namespace helios::lp {

struct LatencyPrediction {
  /// Predicted per-datacenter observable commit latency, ms (before adding
  /// compute overhead).
  std::vector<double> latency_ms;
  /// For each datacenter, the peer whose log the commit ends up waiting on
  /// (the argmax of the per-peer wait).
  std::vector<int> binding_peer;
};

/// Evaluates the per-peer wait for every datacenter.
///
/// `true_rtt`        — the RTTs the network actually delivers;
/// `offsets_ms`      — the commit offsets in use, co[a][b] in ms;
/// `clock_offset_ms` — per-datacenter clock offsets (empty = synchronized);
/// `overhead_ms`     — constant compute/link overhead added to every
///                     prediction (C_local + typical C_remote of Eq. 8).
LatencyPrediction PredictLatencies(
    const RttMatrix& true_rtt,
    const std::vector<std::vector<double>>& offsets_ms,
    const std::vector<double>& clock_offset_ms, double overhead_ms = 0.0);

/// Convenience: the offsets Helios installs when it plans on
/// `estimated_rtt` — MAO, then lp::EvenSplitOffsetsUs.
LatencyPrediction PredictLatenciesFromEstimate(
    const RttMatrix& true_rtt, const RttMatrix& estimated_rtt,
    const std::vector<double>& clock_offset_ms, double overhead_ms = 0.0);

}  // namespace helios::lp

#endif  // HELIOS_LP_LATENCY_MODEL_H_
