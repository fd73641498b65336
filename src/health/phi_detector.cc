#include "health/phi_detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace helios::health {

PhiDetector::PhiDetector() {
  intervals_.reserve(static_cast<size_t>(kPhiWindow));
}

void PhiDetector::Arrival(int64_t now) {
  if (last_arrival_ < 0) {
    // First contact: starts the silence clock but yields no interval.
    last_arrival_ = now;
    return;
  }
  assert(now >= last_arrival_);
  const int64_t interval = now - last_arrival_;
  last_arrival_ = now;
  if (static_cast<int>(intervals_.size()) < kPhiWindow) {
    intervals_.push_back(interval);
  } else {
    const int64_t evicted = intervals_[next_slot_];
    sum_ -= static_cast<double>(evicted);
    sum_sq_ -= static_cast<double>(evicted) * static_cast<double>(evicted);
    intervals_[next_slot_] = interval;
    next_slot_ = (next_slot_ + 1) % intervals_.size();
  }
  sum_ += static_cast<double>(interval);
  sum_sq_ += static_cast<double>(interval) * static_cast<double>(interval);
}

double PhiDetector::MeanInterval() const {
  if (static_cast<int>(intervals_.size()) < kPhiMinSamples) {
    return static_cast<double>(kPhiBootstrapInterval);
  }
  return sum_ / static_cast<double>(intervals_.size());
}

double PhiDetector::StddevInterval() const {
  double var = 0.0;
  if (static_cast<int>(intervals_.size()) >= kPhiMinSamples) {
    const double n = static_cast<double>(intervals_.size());
    const double mean = sum_ / n;
    var = std::max(0.0, sum_sq_ / n - mean * mean);
  }
  const double floor = std::max(static_cast<double>(kPhiMinStddev),
                                kPhiMinStddevFraction * MeanInterval());
  return std::max(std::sqrt(var), floor);
}

double PhiDetector::Phi(int64_t now) const {
  if (last_arrival_ < 0) return 0.0;
  const double elapsed = static_cast<double>(now - last_arrival_);
  if (elapsed <= 0.0) return 0.0;
  const double mean = MeanInterval();
  const double stddev = StddevInterval();
  // Akka/Cassandra's logistic approximation of the normal tail: monotone in
  // `elapsed`, accurate to a few percent over the range that matters, and
  // free of the catastrophic cancellation a naive 1 - CDF suffers once the
  // silence is many deviations past the mean.
  const double y = (elapsed - mean) / stddev;
  const double e = std::exp(-y * (1.5976 + 0.070566 * y * y));
  const double p_later =
      elapsed > mean ? e / (1.0 + e) : 1.0 - 1.0 / (1.0 + e);
  // Clamp away from zero so phi stays finite (and monotone) under
  // arbitrarily long silences.
  return -std::log10(std::max(p_later, 1e-300));
}

PeerHealth::PeerHealth(int num_datacenters, DcId self) : self_(self) {
  assert(num_datacenters > 0 && self >= 0 && self < num_datacenters);
  detectors_.assign(static_cast<size_t>(num_datacenters), PhiDetector());
}

void PeerHealth::OnArrival(DcId peer, int64_t now) {
  if (peer == self_ || peer < 0 || peer >= size()) return;
  detectors_[static_cast<size_t>(peer)].Arrival(now);
}

double PeerHealth::Phi(DcId peer, int64_t now) const {
  if (peer == self_ || peer < 0 || peer >= size()) return 0.0;
  return detectors_[static_cast<size_t>(peer)].Phi(now);
}

bool PeerHealth::Suspected(DcId peer, int64_t now) const {
  return Phi(peer, now) > kPhiThreshold;
}

}  // namespace helios::health
