#include "lp/mao.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "lp/simplex.h"

namespace helios::lp {

RttMatrix::RttMatrix(int n) : n_(n), rtt_(static_cast<size_t>(n) * n, 0.0) {
  assert(n > 0);
}

double RttMatrix::Get(int a, int b) const {
  assert(a >= 0 && a < n_ && b >= 0 && b < n_);
  return rtt_[static_cast<size_t>(a) * n_ + b];
}

void RttMatrix::Set(int a, int b, double rtt_ms) {
  assert(a != b && rtt_ms >= 0.0);
  rtt_[static_cast<size_t>(a) * n_ + b] = rtt_ms;
  rtt_[static_cast<size_t>(b) * n_ + a] = rtt_ms;
}

Result<std::vector<double>> SolveMao(const RttMatrix& rtt) {
  const int n = rtt.size();
  LpProblem p;
  p.num_vars = n;
  p.objective.assign(static_cast<size_t>(n), 1.0 / n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      std::vector<double> coeffs(static_cast<size_t>(n), 0.0);
      coeffs[a] = 1.0;
      coeffs[b] = 1.0;
      p.AddGe(std::move(coeffs), rtt.Get(a, b));
    }
  }
  auto sol = SolveLp(p);
  if (!sol.ok()) return sol.status();
  return std::move(sol.value().x);
}

double AverageLatency(const std::vector<double>& latencies) {
  if (latencies.empty()) return 0.0;
  double sum = 0.0;
  for (double l : latencies) sum += l;
  return sum / static_cast<double>(latencies.size());
}

bool SatisfiesLowerBound(const RttMatrix& rtt,
                         const std::vector<double>& latencies, double eps) {
  const int n = rtt.size();
  if (static_cast<int>(latencies.size()) != n) return false;
  for (int a = 0; a < n; ++a) {
    if (latencies[a] < -eps) return false;
    for (int b = a + 1; b < n; ++b) {
      if (latencies[a] + latencies[b] < rtt.Get(a, b) - eps) return false;
    }
  }
  return true;
}

std::vector<std::vector<double>> CommitOffsetsFromLatencies(
    const RttMatrix& rtt, const std::vector<double>& latencies) {
  const int n = rtt.size();
  assert(static_cast<int>(latencies.size()) == n);
  std::vector<std::vector<double>> co(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      co[a][b] = latencies[a] - rtt.Get(a, b) / 2.0;
    }
  }
  return co;
}

std::vector<std::vector<Duration>> EvenSplitOffsetsUs(
    const std::vector<double>& latencies) {
  const size_t n = latencies.size();
  std::vector<std::vector<Duration>> co(n, std::vector<Duration>(n, 0));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      // (L_a - L_b) / 2 ms, in microseconds.
      co[a][b] = std::llround((latencies[a] - latencies[b]) * 500.0);
      co[b][a] = -co[a][b];
    }
  }
  return co;
}

std::vector<std::vector<double>> OffsetsMs(
    const std::vector<std::vector<Duration>>& offsets_us) {
  std::vector<std::vector<double>> out;
  out.reserve(offsets_us.size());
  for (const auto& row : offsets_us) {
    out.emplace_back();
    out.back().reserve(row.size());
    for (Duration co : row) out.back().push_back(ToMillis(co));
  }
  return out;
}

std::vector<double> EstimateLatencies(
    const RttMatrix& rtt, const std::vector<std::vector<double>>& offsets) {
  const int n = rtt.size();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (int a = 0; a < n; ++a) {
    double worst = 0.0;
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      worst = std::max(worst, offsets[a][b] + rtt.Get(a, b) / 2.0);
    }
    out[a] = worst;
  }
  return out;
}

Status ValidateOffsets(const std::vector<std::vector<double>>& offsets,
                       double eps) {
  const int n = static_cast<int>(offsets.size());
  for (int a = 0; a < n; ++a) {
    if (static_cast<int>(offsets[a].size()) != n) {
      return Status::InvalidArgument("offset matrix is not square");
    }
    for (int b = a + 1; b < n; ++b) {
      if (offsets[a][b] + offsets[b][a] < -eps) {
        return Status::FailedPrecondition(
            "Rule 1 violated: co[a][b] + co[b][a] < 0");
      }
    }
  }
  return Status::Ok();
}

std::vector<double> MasterSlaveLatencies(const RttMatrix& rtt, int master) {
  const int n = rtt.size();
  assert(master >= 0 && master < n);
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (int a = 0; a < n; ++a) {
    out[a] = a == master ? 0.0 : rtt.Get(a, master);
  }
  return out;
}

std::vector<double> MajorityLatencies(const RttMatrix& rtt) {
  const int n = rtt.size();
  const int peers_needed = n / 2;  // self + floor(n/2) peers = majority
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (int a = 0; a < n; ++a) {
    std::vector<double> peer_rtts;
    for (int b = 0; b < n; ++b) {
      if (b != a) peer_rtts.push_back(rtt.Get(a, b));
    }
    std::sort(peer_rtts.begin(), peer_rtts.end());
    out[a] = peers_needed == 0 ? 0.0 : peer_rtts[peers_needed - 1];
  }
  return out;
}

double ThroughputRate(const std::vector<double>& latencies,
                      double overhead_ms) {
  double rate = 0.0;
  for (double l : latencies) rate += 1000.0 / (l + overhead_ms);
  return rate;
}

namespace {

// Greedy minimal point: repeatedly lower each latency to the smallest value
// the pairwise constraints allow given the others, processing in the given
// order. Converges because each value only ever decreases and is bounded
// below.
std::vector<double> GreedyMinimize(const RttMatrix& rtt,
                                   std::vector<double> l,
                                   const std::vector<int>& order) {
  const int n = rtt.size();
  for (int pass = 0; pass < n + 2; ++pass) {
    for (int idx : order) {
      double lower = 0.0;
      for (int b = 0; b < n; ++b) {
        if (b == idx) continue;
        lower = std::max(lower, rtt.Get(idx, b) - l[b]);
      }
      l[idx] = lower;
    }
  }
  return l;
}

}  // namespace

Result<ThroughputPlan> OptimizeThroughput(const RttMatrix& rtt,
                                          double overhead_ms) {
  if (overhead_ms <= 0.0) {
    return Status::InvalidArgument(
        "overhead_ms must be positive (Appendix A.2: a zero execution "
        "overhead makes the objective unbounded in spirit)");
  }
  const int n = rtt.size();
  auto mao = SolveMao(rtt);
  if (!mao.ok()) return mao.status();

  ThroughputPlan best;
  best.latencies = mao.value();
  best.rate_per_client = ThroughputRate(best.latencies, overhead_ms);

  // Candidate vertices: pin datacenter k to 0 (its constraints force the
  // others up), then greedily minimize the rest in each rotation order.
  for (int k = 0; k < n; ++k) {
    std::vector<double> l(static_cast<size_t>(n), 0.0);
    for (int b = 0; b < n; ++b) {
      if (b != k) l[b] = rtt.Get(k, b);  // Forced by the pair (k, b).
    }
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
      if (i != k) order.push_back((k + 1 + i) % n);
    }
    // Raise to feasibility among the non-pinned pairs, then minimize.
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        const double need = rtt.Get(a, b) - (l[a] + l[b]);
        if (need > 0) l[b] += need;
      }
    }
    l = GreedyMinimize(rtt, std::move(l), order);
    if (!SatisfiesLowerBound(rtt, l)) continue;
    const double rate = ThroughputRate(l, overhead_ms);
    if (rate > best.rate_per_client) {
      best.latencies = std::move(l);
      best.rate_per_client = rate;
    }
  }
  return best;
}

}  // namespace helios::lp
