#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace helios::sim {

void Scheduler::At(SimTime t, Callback cb) {
  assert(cb);
  if (t < now_) t = now_;
  queue_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), EventCompare{});
}

void Scheduler::After(Duration delay, Callback cb) {
  At(now_ + (delay > 0 ? delay : 0), std::move(cb));
}

void Scheduler::DispatchNext() {
  std::pop_heap(queue_.begin(), queue_.end(), EventCompare{});
  Event e = std::move(queue_.back());
  queue_.pop_back();
  now_ = e.time;
  ++events_processed_;
  e.cb();
}

void Scheduler::Run() {
  while (!queue_.empty()) DispatchNext();
}

size_t Scheduler::RunUntil(SimTime t) {
  size_t n = 0;
  while (!queue_.empty() && queue_.front().time <= t) {
    DispatchNext();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

bool Scheduler::Step() {
  if (queue_.empty()) return false;
  DispatchNext();
  return true;
}

}  // namespace helios::sim
