// Phi-accrual failure detection (Hayashibara et al., SRDS'04) for gray
// failures: a slow-but-alive datacenter does not fail-stop, it just stops
// producing timely knowledge, silently inflating every peer's conclusive
// commit wait. The detector turns "how long since the last arrival" into a
// continuous suspicion level
//
//   phi(t) = -log10( P(an arrival takes longer than t - last_arrival) )
//
// over a sliding window of observed inter-arrival times, so the suspicion
// threshold adapts to each link's real heartbeat cadence and jitter instead
// of a fixed timeout. Helios feeds it from envelope arrivals (every gossip
// tick is a heartbeat); phi crossing the threshold drives the
// suspicion-refusal and degraded-commit machinery in core::HeliosNode.
//
// Everything here is a pure function of the arrival sequence and the query
// time: no clocks are read, no randomness, no scheduling — which keeps the
// simulator's bit-identity discipline intact and makes the math unit-
// testable with seeded arrival sequences (tests/health_test.cc).

#ifndef HELIOS_HEALTH_PHI_DETECTOR_H_
#define HELIOS_HEALTH_PHI_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace helios::health {

// Tuning, sized for the simulator's 10 ms gossip tick: with regular
// arrivals phi crosses kPhiThreshold after roughly a dozen missed ticks,
// and jittered-but-regular heartbeats stay far below it.

/// Suspicion threshold: phi = 8 means "the chance this silence is normal is
/// 10^-8". Larger = slower but more certain.
inline constexpr double kPhiThreshold = 8.0;
/// Sliding window of inter-arrival samples the distribution is fit to.
inline constexpr int kPhiWindow = 32;
/// Variance floor so a perfectly regular heartbeat (stddev 0) does not make
/// the detector hair-triggered on the first late tick.
inline constexpr Duration kPhiMinStddev = Millis(2);
/// Relative variance floor: stddev is never taken below this fraction of
/// the fitted mean, so slow-cadence links tolerate proportionally more
/// silence than fast ones even when their observed jitter is zero.
inline constexpr double kPhiMinStddevFraction = 0.2;
/// Assumed mean inter-arrival before kPhiMinSamples real samples exist.
inline constexpr Duration kPhiBootstrapInterval = Millis(50);
/// Arrivals needed before the fitted distribution replaces the bootstrap.
inline constexpr int kPhiMinSamples = 3;

/// Suspicion level for ONE peer. Feed Arrival() at every receipt; query
/// Phi() at any later instant. Times are any monotonic microsecond basis
/// (the simulator's scheduler time, CLOCK_MONOTONIC in live mode) — only
/// differences are used.
class PhiDetector {
 public:
  PhiDetector();

  /// Records a heartbeat/knowledge arrival at `now`. Arrivals must be fed
  /// in non-decreasing time order.
  void Arrival(int64_t now);

  /// Current suspicion level; 0 while nothing has arrived yet (a peer is
  /// innocent until it has ever spoken) or right after an arrival.
  /// Strictly non-decreasing between arrivals.
  double Phi(int64_t now) const;

  bool Suspected(int64_t now) const { return Phi(now) > kPhiThreshold; }

  int64_t last_arrival() const { return last_arrival_; }
  int samples() const { return static_cast<int>(intervals_.size()); }

  /// Fitted mean of the windowed inter-arrival distribution (bootstrap
  /// value until kPhiMinSamples arrivals), for introspection and tests.
  double MeanInterval() const;
  double StddevInterval() const;

 private:
  int64_t last_arrival_ = -1;
  /// Ring buffer of the last kPhiWindow inter-arrival durations.
  std::vector<int64_t> intervals_;
  size_t next_slot_ = 0;
  /// Running sums over the ring for O(1) mean/variance.
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// One node's view of every peer: a PhiDetector per datacenter plus the
/// suspected/readmitted edge tracking the reaction layer needs. `self` has
/// no detector (a node never suspects itself... through this class).
class PeerHealth {
 public:
  PeerHealth(int num_datacenters, DcId self);

  void OnArrival(DcId peer, int64_t now);

  double Phi(DcId peer, int64_t now) const;
  bool Suspected(DcId peer, int64_t now) const;

  const PhiDetector& detector(DcId peer) const {
    return detectors_[static_cast<size_t>(peer)];
  }
  int size() const { return static_cast<int>(detectors_.size()); }
  DcId self() const { return self_; }

 private:
  DcId self_;
  std::vector<PhiDetector> detectors_;  // indexed by DcId; self unused.
};

}  // namespace helios::health

#endif  // HELIOS_HEALTH_PHI_DETECTOR_H_
