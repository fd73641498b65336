#include "core/rtt_estimator.h"

#include <string>

#include "common/check.h"

namespace helios::core {

RttEstimator::RttEstimator(DcId self, int n, double alpha)
    : self_(self),
      n_(n),
      alpha_(alpha),
      peers_(static_cast<size_t>(n)),
      rows_(static_cast<size_t>(n),
            std::vector<Duration>(static_cast<size_t>(n), 0)) {
  HELIOS_CHECK(self >= 0 && self < n, "estimator for dc" +
                                           std::to_string(self) + " of " +
                                           std::to_string(n));
}

void RttEstimator::StampOutgoing(DcId peer, Timestamp now, Envelope* env) {
  PeerState& state = peers_[static_cast<size_t>(peer)];
  env->ping_id = state.next_ping_id++;
  state.outstanding.emplace(env->ping_id, now);
  // Bound the outstanding window (lost replies just age out).
  while (state.outstanding.size() > 64) {
    state.outstanding.erase(state.outstanding.begin());
  }
  if (state.latest_ping_from_peer != 0) {
    env->pong_for = state.latest_ping_from_peer;
    env->pong_hold_us = now - state.latest_ping_recv_time;
  }
  env->rtt_row_us = rows_[static_cast<size_t>(self_)];
}

void RttEstimator::OnIncoming(DcId peer, Timestamp now, const Envelope& env) {
  PeerState& state = peers_[static_cast<size_t>(peer)];
  if (env.ping_id != 0) {
    state.latest_ping_from_peer = env.ping_id;
    state.latest_ping_recv_time = now;
  }
  if (env.pong_for != 0) {
    auto it = state.outstanding.find(env.pong_for);
    if (it != state.outstanding.end()) {
      const Duration sample = (now - it->second) - env.pong_hold_us;
      // Everything up to and including the echoed ping is resolved or
      // superseded.
      state.outstanding.erase(state.outstanding.begin(), std::next(it));
      if (sample > 0) {
        ++samples_;
        if (state.ewma_rtt_us <= 0.0) {
          state.ewma_rtt_us = static_cast<double>(sample);
        } else {
          state.ewma_rtt_us = (1.0 - alpha_) * state.ewma_rtt_us +
                              alpha_ * static_cast<double>(sample);
        }
        rows_[static_cast<size_t>(self_)][static_cast<size_t>(peer)] =
            static_cast<Duration>(state.ewma_rtt_us);
      }
    }
  }
  if (static_cast<int>(env.rtt_row_us.size()) == n_) {
    rows_[static_cast<size_t>(peer)] = env.rtt_row_us;
  }
}

Duration RttEstimator::EstimatedRttTo(DcId peer) const {
  if (peer == self_) return 0;
  return rows_[static_cast<size_t>(self_)][static_cast<size_t>(peer)];
}

bool RttEstimator::MatrixComplete() const {
  for (DcId a = 0; a < n_; ++a) {
    for (DcId b = 0; b < n_; ++b) {
      if (a == b) continue;
      if (rows_[static_cast<size_t>(a)][static_cast<size_t>(b)] <= 0) {
        return false;
      }
    }
  }
  return true;
}

lp::RttMatrix RttEstimator::MatrixMs() const {
  lp::RttMatrix out(n_);
  for (DcId a = 0; a < n_; ++a) {
    for (DcId b = a + 1; b < n_; ++b) {
      const double ab = static_cast<double>(
          rows_[static_cast<size_t>(a)][static_cast<size_t>(b)]);
      const double ba = static_cast<double>(
          rows_[static_cast<size_t>(b)][static_cast<size_t>(a)]);
      double rtt_us = 0.0;
      if (ab > 0 && ba > 0) {
        rtt_us = (ab + ba) / 2.0;
      } else {
        rtt_us = ab > 0 ? ab : ba;
      }
      out.Set(a, b, rtt_us / 1000.0);
    }
  }
  return out;
}

}  // namespace helios::core
