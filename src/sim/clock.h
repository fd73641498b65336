// Per-datacenter loosely synchronized clocks.
//
// Helios requires no clock synchronization for correctness, but its
// performance depends on the degree of synchronization (paper Section A.1,
// Figure 5). The `Clock` lets experiments inject a fixed offset per
// datacenter, reproducing the paper's "+100ms at Virginia" style
// scenarios.

#ifndef HELIOS_SIM_CLOCK_H_
#define HELIOS_SIM_CLOCK_H_

#include "common/types.h"
#include "sim/scheduler.h"

namespace helios::sim {

/// A datacenter-local clock derived from the simulated true time.
///
/// `Now()` returns true_time + offset. `NowUnique()` additionally
/// guarantees strictly increasing readings, which the replicated log
/// requires for per-origin record ordering.
class Clock {
 public:
  /// `scheduler` must outlive the clock.
  explicit Clock(const Scheduler* scheduler, Duration offset = 0)
      : scheduler_(scheduler), offset_(offset) {}

  /// Current local-clock reading.
  Timestamp Now() const { return scheduler_->Now() + offset_; }

  /// Strictly increasing local-clock reading: max(Now(), last + 1).
  Timestamp NowUnique() {
    Timestamp t = Now();
    if (t <= last_unique_) t = last_unique_ + 1;
    last_unique_ = t;
    return t;
  }

  /// Raises the unique-timestamp floor so future NowUnique() readings
  /// exceed `ts` — used on recovery so a restarted node never reuses a
  /// timestamp it already persisted.
  void AdvanceTo(Timestamp ts) {
    if (ts > last_unique_) last_unique_ = ts;
  }

  /// The unique-timestamp floor: every future NowUnique() reading is
  /// strictly greater. Recovery asserts this exceeds all persisted
  /// timestamps.
  Timestamp floor() const { return last_unique_; }

  /// Manual offset adjustment, e.g. to emulate an NTP step or the paper's
  /// skew-injection experiments.
  void set_offset(Duration offset) { offset_ = offset; }
  Duration offset() const { return offset_; }

 private:
  const Scheduler* scheduler_;
  Duration offset_;
  Timestamp last_unique_ = kMinTimestamp;
};

}  // namespace helios::sim

#endif  // HELIOS_SIM_CLOCK_H_
