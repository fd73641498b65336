#include "transport/realtime_loop.h"

#include <future>

#include "common/check.h"

namespace helios::transport {

void RealtimeLoop::Start() {
  HELIOS_CHECK(!running_, "RealtimeLoop::Start on a running loop");
  stop_requested_ = false;
  running_ = true;
  epoch_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this]() { Run(); });
}

void RealtimeLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_ = false;
}

void RealtimeLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(fn));
  }
  cv_.notify_all();
}

void RealtimeLoop::PostAndWait(std::function<void()> fn) {
  HELIOS_CHECK(std::this_thread::get_id() != thread_.get_id(),
               "PostAndWait from the loop thread would deadlock");
  std::promise<void> done;
  Post([&fn, &done]() {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

Duration RealtimeLoop::Elapsed() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void RealtimeLoop::Run() {
  for (;;) {
    // Drain externally posted work first; each item runs as a scheduler
    // event at the current time so its own After()/At() calls compose.
    std::deque<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) return;
      batch.swap(posted_);
    }
    for (auto& fn : batch) {
      scheduler_.At(Elapsed(), std::move(fn));
    }

    // Run everything due by now.
    scheduler_.RunUntil(Elapsed());

    // Sleep until the next scheduled event or an external post.
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_requested_) return;
    if (!posted_.empty()) continue;
    // Sleep until the next scheduled event (bounded so the loop stays
    // responsive even without wakeups).
    auto wait_for = std::chrono::microseconds(1000);
    const sim::SimTime next = scheduler_.NextEventTime();
    if (next >= 0) {
      const Duration until = next - Elapsed();
      if (until <= 0) continue;
      wait_for = std::min(wait_for, std::chrono::microseconds(until));
    }
    cv_.wait_for(lock, wait_for);
  }
}

}  // namespace helios::transport
