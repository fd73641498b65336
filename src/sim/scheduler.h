// Discrete-event scheduler: the heart of the deterministic simulation
// substrate that stands in for the paper's five-datacenter AWS deployment.

#ifndef HELIOS_SIM_SCHEDULER_H_
#define HELIOS_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace helios::sim {

/// Global simulated ("true") time in microseconds. Individual datacenters
/// observe it through their own, possibly skewed, `Clock`.
using SimTime = int64_t;

/// Single-threaded discrete-event scheduler.
///
/// Events fire in (time, insertion-sequence) order, so simultaneous events
/// run in the order they were scheduled — the whole simulation is
/// deterministic given deterministic callbacks.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Valid inside callbacks and between runs.
  SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (clamped to Now() if in the past).
  void At(SimTime t, Callback cb);

  /// Schedules `cb` `delay` from now (negative delays clamp to now).
  void After(Duration delay, Callback cb);

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with time <= `t`, then sets Now() to `t`.
  /// Returns the number of events processed by this call.
  size_t RunUntil(SimTime t);

  /// Runs at most one event; returns false if the queue was empty.
  bool Step();

  bool empty() const { return queue_.empty(); }

  /// Time of the earliest pending event, or -1 if none. (Used by the
  /// real-time driver to size its sleeps.)
  SimTime NextEventTime() const {
    return queue_.empty() ? -1 : queue_.front().time;
  }
  size_t pending() const { return queue_.size(); }
  uint64_t events_processed() const { return events_processed_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Callback cb;
  };
  /// Heap order: the earliest (time, seq) on top. (time, seq) is a total
  /// order, so the dispatch order does not depend on the heap's layout.
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest event and runs it. The callback is moved out of
  /// the heap, never copied.
  void DispatchNext();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  /// Binary heap under EventCompare (std::push_heap / std::pop_heap).
  std::vector<Event> queue_;
};

}  // namespace helios::sim

#endif  // HELIOS_SIM_SCHEDULER_H_
