#include "lp/latency_model.h"

#include <algorithm>
#include <cassert>

namespace helios::lp {

LatencyPrediction PredictLatencies(
    const RttMatrix& true_rtt,
    const std::vector<std::vector<double>>& offsets_ms,
    const std::vector<double>& clock_offset_ms, double overhead_ms) {
  const int n = true_rtt.size();
  assert(static_cast<int>(offsets_ms.size()) == n);
  assert(clock_offset_ms.empty() ||
         static_cast<int>(clock_offset_ms.size()) == n);

  auto offset = [&](int dc) {
    return clock_offset_ms.empty() ? 0.0 : clock_offset_ms[dc];
  };

  LatencyPrediction out;
  out.latency_ms.resize(n);
  out.binding_peer.assign(n, -1);
  for (int a = 0; a < n; ++a) {
    double worst = 0.0;  // The wait can never be negative.
    for (int b = 0; b < n; ++b) {
      if (b == a) continue;
      const double theta = offset(a) - offset(b);
      const double wait = offsets_ms[a][b] + true_rtt.Get(a, b) / 2.0 + theta;
      if (wait > worst) {
        worst = wait;
        out.binding_peer[a] = b;
      }
    }
    out.latency_ms[a] = worst + overhead_ms;
  }
  return out;
}

LatencyPrediction PredictLatenciesFromEstimate(
    const RttMatrix& true_rtt, const RttMatrix& estimated_rtt,
    const std::vector<double>& clock_offset_ms, double overhead_ms) {
  assert(estimated_rtt.size() == true_rtt.size());
  auto mao = SolveMao(estimated_rtt);
  assert(mao.ok());
  return PredictLatencies(true_rtt, OffsetsMs(EvenSplitOffsetsUs(mao.value())),
                          clock_offset_ms, overhead_ms);
}

}  // namespace helios::lp
