// Clock discipline: every Helios node's delay estimator. It measures the
// apparent one-way delays to and from each peer and their round trip, and,
// once a step sink is installed, steps the datacenter's clock forward until
// those one-way delays are symmetric.
//
// Rule 2 makes a commit at A wait max_B(co[A][B] + δ(B→A)), where δ(B→A)
// is the *apparent* one-way delay: the network delay plus B's clock offset
// from A (Appendix A.1, Eq. 6). The commit offsets are planned on RTT/2,
// so any asymmetry between δ(A→B) and δ(B→A) is latency Helios pays for
// nothing. Correctness never depends on it (Rules 1–3 hold under any clock
// offsets), so the discipline is purely a performance mechanism.
//
// It rides the gossip exchange and adds no scheduler event:
//   * Measure: every gossip envelope from B is stamped with B's clock at
//     send time (T[B][B]); arrival clock minus that stamp is one sample of
//     δ(B→self). The estimate is the median of B's latest samples, over as
//     few of them as the window's spread allows (see Estimate).
//   * Report: the latest sample travels back to B on the next envelope
//     (Envelope::apparent_delay_us). A report plus the sample of the
//     envelope that carried it is one round-trip sample: both clocks'
//     offsets and B's own steps cancel out of that sum. The median of the
//     latest ones is the RTT (RttTo), Section 4.5's "estimation of the
//     RTT" that HeliosCluster::ReplanOffsetsFromEstimates plans from.
//   * Step: φ_B = RTT/2 − δ(B→self) is how far this clock runs behind B's
//     once the path's round trip is split evenly. When the mean of φ over
//     the peers exceeds a deadband of kDeadbandSigmas standard errors
//     (never less than kMinDeadband, or twice that once the clock has
//     settled) on kPersistTicks consecutive ticks, the clock steps forward
//     by that mean through the installed sink.
//
// Every node measures and reports; only a node with a sink steps. A
// simulated deployment installs none, because there the clock offsets are
// the experiment's input, so its clocks keep their configured offsets.
//
// Steps are forward-only. A backward step would freeze NowUnique, stalling
// every peer's Rule-2 wait on this node, and would let the grace-time
// refusal accept records that Eq. 3's η, computed from this clock's earlier
// promises, already counts as refused. The mean over peers (rather than,
// say, following the peer furthest ahead) keeps forward-only steps from
// ratcheting: φ_B and φ_self seen from B cancel, so the means sum to zero
// over the deployment, and a cyclic asymmetry that no clock offsets can
// express leaves every mean at zero.
//
// A step shifts this node's inbound samples by exactly the step. The
// peers' reports keep measuring the pre-step clock for about a round trip,
// so no round-trip sample is taken until then.

#ifndef HELIOS_CORE_CLOCK_DISCIPLINE_H_
#define HELIOS_CORE_CLOCK_DISCIPLINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/scheduler.h"

namespace helios::core {

/// What the discipline has done so far (exported as clock.* metrics).
struct ClockStepStats {
  uint64_t steps = 0;       ///< Forward steps taken.
  Duration stepped_us = 0;  ///< Their total, microseconds.
};

class ClockDiscipline {
 public:
  /// Advances the disciplined clock by exactly `step` (> 0) microseconds.
  using StepSink = std::function<void(Duration step)>;

  /// Inbound samples kept per peer.
  static constexpr int kWindow = 32;
  /// Inbound samples a peer needs before it takes part, and the fewest the
  /// median runs over.
  static constexpr int kMinSamples = 8;
  /// Round-trip samples kept per peer, and needed before it takes part.
  static constexpr int kRttWindow = 2 * kWindow;
  static constexpr int kMinRttSamples = 8;
  /// Deadband in standard errors of the mean φ.
  static constexpr double kDeadbandSigmas = 5.0;
  /// Smallest deadband, for jitter-free paths.
  static constexpr Duration kMinDeadband = Millis(1);
  /// Largest apparent delay or report taken as a measurement (about 12
  /// days); beyond it the envelope is corrupt.
  static constexpr Duration kMaxApparentDelay = Duration{1} << 40;
  /// Consecutive ticks the mean φ must stay past the deadband.
  static constexpr int kPersistTicks = 4;
  /// Ticks without a step after which the clock counts as settled; a
  /// settled clock needs twice kMinDeadband to step again, so the slow
  /// drift of loop and scheduling delays does not keep nudging it.
  static constexpr int kSettledTicks = 4 * kWindow;

  /// Without a `sink` the discipline measures and reports but never steps.
  ClockDiscipline(DcId self, int n, Duration log_interval,
                  StepSink sink = nullptr);

  /// Installs the sink that carries out steps from now on.
  void set_sink(StepSink sink) { sink_ = std::move(sink); }
  bool has_sink() const { return sink_ != nullptr; }

  /// A gossip envelope from `peer`, stamped `sent` on the peer's clock,
  /// arrived at local clock reading `arrived` (scheduler time `now`). It
  /// carried the peer's latest sample of δ(self→peer), if it has one.
  void OnGossip(DcId peer, Timestamp sent, Timestamp arrived,
                std::optional<Duration> report, sim::SimTime now);

  /// This node's latest sample of δ(peer→self), for the envelope to
  /// `peer`; nullopt before the first.
  std::optional<Duration> ReportFor(DcId peer) const;

  /// The round trip to `peer` in microseconds: the median of the latest
  /// round-trip samples, or nullopt below kMinRttSamples of them.
  std::optional<Duration> RttTo(DcId peer) const;

  /// Gossip tick: steps the clock forward if the peers persistently say
  /// it runs behind. Does nothing without a sink.
  void Tick(sim::SimTime now);

  /// Steps the clock forward by `step` (> 0) and shifts the estimates.
  /// Requires a sink.
  void Step(Duration step, sim::SimTime now);

  const ClockStepStats& stats() const { return stats_; }

 private:
  struct Peer {
    /// Inbound samples δ(peer→self), a ring of the latest kWindow.
    std::array<Duration, kWindow> samples{};
    int count = 0;  ///< Samples in the window (at most kWindow).
    int next = 0;   ///< Ring position of the next sample.
    sim::SimTime last_sample = 0;
    /// Round-trip samples, each the peer's report of δ(self→peer) plus the
    /// δ(peer→self) sample of the envelope that carried it; a ring of the
    /// latest kRttWindow.
    std::array<Duration, kRttWindow> rtts{};
    int rtt_count = 0;
    int rtt_next = 0;
    /// No round-trip samples before this (reports still predate a step).
    sim::SimTime rtt_hold_until = 0;
  };

  /// δ(peer→self) from `p`'s window: the median of its latest k samples
  /// and that median's standard error, with the spread taken over the
  /// whole window and k the fewest (at least kMinSamples) whose deadband
  /// stays at kMinDeadband. A quiet path so follows a peer's step within a
  /// few samples, while a jittery one averages over the whole window.
  static void Estimate(const Peer& p, Duration* median, double* std_error);
  /// Median of `p`'s round-trip samples (rtt_count must be positive).
  static double RttOf(const Peer& p);

  DcId self_;
  Duration log_interval_;
  StepSink sink_;
  std::vector<Peer> peers_;
  int streak_ = 0;
  sim::SimTime last_step_ = 0;
  ClockStepStats stats_;
};

}  // namespace helios::core

#endif  // HELIOS_CORE_CLOCK_DISCIPLINE_H_
