#include "core/clock_discipline.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/stats.h"

namespace helios::core {

ClockDiscipline::ClockDiscipline(DcId self, int n, Duration log_interval,
                                 StepSink sink)
    : self_(self),
      log_interval_(log_interval),
      sink_(std::move(sink)),
      peers_(static_cast<size_t>(n)) {}

void ClockDiscipline::OnGossip(DcId peer, Timestamp sent, Timestamp arrived,
                               std::optional<Duration> report,
                               sim::SimTime now) {
  if (peer < 0 || peer >= static_cast<DcId>(peers_.size()) || peer == self_) {
    return;
  }
  // Stamps and reports come off the wire; anything this far out is a
  // corrupt peer, not a clock offset, and must not overflow the sums.
  Duration delay = 0;
  if (__builtin_sub_overflow(arrived, sent, &delay) ||
      delay > kMaxApparentDelay || delay < -kMaxApparentDelay) {
    return;
  }
  Peer& p = peers_[static_cast<size_t>(peer)];
  // A peer silent for a whole window (down, restarted, partitioned) comes
  // back with fresh windows rather than stale medians.
  if (p.count > 0 && now - p.last_sample > kWindow * log_interval_) {
    p = Peer{};
  }
  p.samples[static_cast<size_t>(p.next)] = delay;
  p.next = (p.next + 1) % kWindow;
  p.count = std::min(p.count + 1, kWindow);
  p.last_sample = now;
  if (report.has_value() && *report <= kMaxApparentDelay &&
      *report >= -kMaxApparentDelay && now >= p.rtt_hold_until) {
    // The report and this sample were both taken against the peer's clock
    // as it read when it sent this envelope, so a step of the peer's own
    // cancels out of their sum.
    p.rtts[static_cast<size_t>(p.rtt_next)] = *report + delay;
    p.rtt_next = (p.rtt_next + 1) % kRttWindow;
    p.rtt_count = std::min(p.rtt_count + 1, kRttWindow);
  }
}

void ClockDiscipline::Estimate(const Peer& p, Duration* median,
                               double* std_error) {
  Distribution window;
  for (int i = 0; i < p.count; ++i) {
    window.Add(static_cast<double>(p.samples[static_cast<size_t>(i)]));
  }
  const double center = window.Median();
  Distribution deviations;
  for (int i = 0; i < p.count; ++i) {
    deviations.Add(std::round(std::fabs(
        static_cast<double>(p.samples[static_cast<size_t>(i)]) - center)));
  }
  // sigma = 1.4826 MAD for normal samples; the median of k of them has a
  // standard error of sqrt(pi / 2) sigma / sqrt(k).
  const double spread = 1.2533 * 1.4826 * deviations.Median();
  const double wanted =
      kDeadbandSigmas * spread / static_cast<double>(kMinDeadband);
  const int k = std::clamp(
      static_cast<int>(std::min(std::ceil(wanted * wanted),
                                static_cast<double>(p.count))),
      std::min(kMinSamples, p.count), p.count);
  Distribution latest;
  for (int i = 0; i < k; ++i) {
    latest.Add(static_cast<double>(
        p.samples[static_cast<size_t>((p.next - 1 - i + kWindow) % kWindow)]));
  }
  *median = static_cast<Duration>(std::llround(latest.Median()));
  *std_error = spread / std::sqrt(static_cast<double>(k));
}

double ClockDiscipline::RttOf(const Peer& p) {
  Distribution rtts;
  for (int i = 0; i < p.rtt_count; ++i) {
    rtts.Add(static_cast<double>(p.rtts[static_cast<size_t>(i)]));
  }
  return rtts.Median();
}

std::optional<Duration> ClockDiscipline::ReportFor(DcId peer) const {
  const Peer& p = peers_[static_cast<size_t>(peer)];
  if (p.count == 0) return std::nullopt;
  return p.samples[static_cast<size_t>((p.next - 1 + kWindow) % kWindow)];
}

std::optional<Duration> ClockDiscipline::RttTo(DcId peer) const {
  const Peer& p = peers_[static_cast<size_t>(peer)];
  if (p.rtt_count < kMinRttSamples) return std::nullopt;
  return static_cast<Duration>(std::llround(RttOf(p)));
}

void ClockDiscipline::Tick(sim::SimTime now) {
  if (sink_ == nullptr) return;
  double phi_sum = 0.0;
  double variance_sum = 0.0;
  int counted = 0;
  for (const Peer& p : peers_) {
    if (p.count == 0 || now - p.last_sample > kWindow * log_interval_) {
      continue;  // Silent: down, partitioned, or not started.
    }
    if (p.count < kMinSamples || p.rtt_count < kMinRttSamples) {
      // A peer that gossips but is not yet estimated holds every step: a
      // mean over part of the peers would move this clock by an amount
      // the rest then have to follow.
      streak_ = 0;
      return;
    }
    Duration inbound = 0;
    double std_error = 0.0;
    Estimate(p, &inbound, &std_error);
    phi_sum += RttOf(p) / 2.0 - static_cast<double>(inbound);
    variance_sum += std_error * std_error;
    ++counted;
  }
  if (counted == 0) {
    streak_ = 0;
    return;
  }
  const double phi = phi_sum / counted;
  const bool settled = now - last_step_ > kSettledTicks * log_interval_;
  const double deadband =
      std::max(static_cast<double>((settled ? 2 : 1) * kMinDeadband),
               kDeadbandSigmas * std::sqrt(variance_sum) / counted);
  streak_ = phi > deadband ? streak_ + 1 : 0;
  if (streak_ < kPersistTicks) return;
  streak_ = 0;
  Step(static_cast<Duration>(std::llround(phi)), now);
}

void ClockDiscipline::Step(Duration step, sim::SimTime now) {
  HELIOS_CHECK(sink_ != nullptr, "clock step without a step sink");
  HELIOS_CHECK(step > 0, "clock step of " + std::to_string(step) +
                             " us: the discipline never steps backward");
  for (Peer& p : peers_) {
    for (int i = 0; i < p.count; ++i) p.samples[static_cast<size_t>(i)] += step;
    // Until the peer has sampled an envelope stamped after the step (sent
    // right after this call) and answered on its next tick, its reports
    // are measured against the pre-step clock and would read as a longer
    // round trip.
    const double rtt = p.rtt_count > 0 ? std::max(0.0, RttOf(p)) : 0.0;
    p.rtt_hold_until =
        now + static_cast<Duration>(rtt) + 4 * log_interval_;
  }
  last_step_ = now;
  ++stats_.steps;
  stats_.stepped_us += step;
  sink_(step);
}

}  // namespace helios::core
