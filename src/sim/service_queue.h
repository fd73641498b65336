// Single-server processing queue modeling compute and I/O overhead.
//
// The paper's Appendix A.1 calls the cumulative effect of request
// processing, log handling, and storage I/O the "compute overhead"
// (C_local, C_remote in Eq. 8); it is what caps peak throughput in
// Figure 4 and what makes the 2PC/Paxos coordinator thrash. Each simulated
// server owns one of these queues: every piece of work occupies the server
// for its service time, and work arriving while the server is busy waits.
//
// Work comes in two classes. Foreground work (Submit, Charge) is served in
// arrival order. Deferred work (Defer) is work nobody is waiting on, such
// as the storage I/O of a transaction whose client already heard: the
// server starts a deferred unit only when no foreground work is waiting,
// and runs it to completion once started, so a foreground arrival waits
// at most one unit. The deferred backlog is capped at kDeferredCap; past
// it, Defer serves units in arrival order like Charge. Without the cap a
// saturated server would never pay for deferred work, and its throughput
// would be bounded by the foreground work alone. A queue that never
// receives a Defer call keeps the plain FIFO schedule.

#ifndef HELIOS_SIM_SERVICE_QUEUE_H_
#define HELIOS_SIM_SERVICE_QUEUE_H_

#include <algorithm>
#include <deque>

#include "common/types.h"
#include "sim/scheduler.h"

namespace helios::sim {

/// Single-server queue with a FIFO foreground class and a capped deferred
/// class. Not a container of work: it tracks when the server frees up,
/// schedules completions on the shared scheduler, and keeps the deferred
/// units' durations until idle time takes them.
class ServiceQueue {
 public:
  /// Most deferred work that may wait for idle time.
  static constexpr Duration kDeferredCap = Millis(100);

  explicit ServiceQueue(Scheduler* scheduler) : scheduler_(scheduler) {}

  /// Submits work with the given service time; `done` runs when the server
  /// has finished it (after any queueing delay).
  void Submit(Duration service_time, Scheduler::Callback done) {
    Occupy(service_time);
    scheduler_->At(busy_until_, std::move(done));
  }

  /// Occupies the server without a completion callback (e.g. background
  /// bookkeeping cost that delays subsequent work).
  void Charge(Duration service_time) { Occupy(service_time); }

  /// Queues one unit of deferred work. It starts once the server is idle
  /// with no foreground work waiting (foreground work arriving at that
  /// same instant goes first), or, past kDeferredCap, like Charge.
  void Defer(Duration unit) {
    if (unit <= 0) return;
    StartDeferredUnits();
    if (deferred_backlog_ + unit > kDeferredCap) {
      Occupy(unit);
      return;
    }
    // An idle server's free time starts at this arrival, not before it.
    busy_until_ = std::max(busy_until_, scheduler_->Now());
    deferred_.push_back(unit);
    deferred_backlog_ += unit;
  }

  /// Instantaneous queueing delay a new foreground arrival would see.
  Duration backlog() const {
    StartDeferredUnits();
    return std::max<Duration>(0, busy_until_ - scheduler_->Now());
  }

  /// Deferred work not yet started; never above kDeferredCap.
  Duration deferred_backlog() const {
    StartDeferredUnits();
    return deferred_backlog_;
  }

  /// Cumulative busy time, for utilization reporting: foreground work once
  /// queued, deferred units once started.
  Duration total_busy() const {
    StartDeferredUnits();
    return total_busy_;
  }

 private:
  void Occupy(Duration service_time) {
    StartDeferredUnits();
    const SimTime start = std::max(scheduler_->Now(), busy_until_);
    busy_until_ = start + std::max<Duration>(service_time, 0);
    total_busy_ += busy_until_ - start;
  }

  /// Starts, back to back, the deferred units the server took while it
  /// was idle before now. Nothing is scheduled for them, so every call
  /// catches up first; an idle instant equal to now is left to foreground
  /// work arriving now.
  void StartDeferredUnits() const {
    const SimTime now = scheduler_->Now();
    while (!deferred_.empty() && busy_until_ < now) {
      const Duration unit = deferred_.front();
      deferred_.pop_front();
      deferred_backlog_ -= unit;
      busy_until_ += unit;
      total_busy_ += unit;
    }
  }

  Scheduler* scheduler_;
  // Mutable so the const accessors can catch up on idle time first.
  mutable SimTime busy_until_ = 0;
  mutable Duration total_busy_ = 0;
  mutable std::deque<Duration> deferred_;
  mutable Duration deferred_backlog_ = 0;
};

}  // namespace helios::sim

#endif  // HELIOS_SIM_SERVICE_QUEUE_H_
