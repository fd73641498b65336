// Unit tests for the discrete-event simulation substrate: scheduler,
// clocks, WAN model, and the service queue.

#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/service_queue.h"

namespace helios::sim {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(30, [&] { order.push_back(3); });
  s.At(10, [&] { order.push_back(1); });
  s.At(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST(SchedulerTest, SimultaneousEventsRunInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(5, [&] { order.push_back(1); });
  s.At(5, [&] { order.push_back(2); });
  s.At(5, [&] { order.push_back(3); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, AfterIsRelative) {
  Scheduler s;
  SimTime fired = -1;
  s.At(100, [&] {
    s.After(50, [&] { fired = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(fired, 150);
}

TEST(SchedulerTest, PastEventsClampToNow) {
  Scheduler s;
  SimTime fired = -1;
  s.At(100, [&] {
    s.At(10, [&] { fired = s.Now(); });  // In the past: runs "now".
  });
  s.Run();
  EXPECT_EQ(fired, 100);
}

TEST(SchedulerTest, RunUntilStopsAtBoundary) {
  Scheduler s;
  int count = 0;
  for (SimTime t = 10; t <= 100; t += 10) {
    s.At(t, [&] { ++count; });
  }
  s.RunUntil(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.Now(), 50);
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(SchedulerTest, NestedSchedulingWorks) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.After(1, recurse);
  };
  s.After(1, recurse);
  s.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.Now(), 5);
}

TEST(SchedulerTest, DispatchDoesNotCopyCallbacks) {
  // Callbacks carry whole closures (envelopes, reply functions); the
  // scheduler must move them from schedule to dispatch, never copy.
  struct CountingCallback {
    int* copies;
    int* calls;
    CountingCallback(int* copies_in, int* calls_in)
        : copies(copies_in), calls(calls_in) {}
    CountingCallback(const CountingCallback& other)
        : copies(other.copies), calls(other.calls) {
      ++*copies;
    }
    CountingCallback(CountingCallback&&) = default;
    void operator()() const { ++*calls; }
  };
  Scheduler s;
  int copies = 0;
  int calls = 0;
  // Out of order and with ties, so the heap really reorders.
  for (int i = 0; i < 64; ++i) {
    s.At((i * 37) % 16, CountingCallback(&copies, &calls));
  }
  ASSERT_TRUE(s.Step());
  s.RunUntil(8);
  s.Run();
  EXPECT_EQ(calls, 64);
  EXPECT_EQ(copies, 0);
}

TEST(ClockTest, OffsetApplied) {
  Scheduler s;
  Clock c(&s, Millis(100));
  s.At(Millis(50), [&] { EXPECT_EQ(c.Now(), Millis(150)); });
  s.Run();
}

TEST(ClockTest, NegativeOffset) {
  Scheduler s;
  Clock c(&s, -Millis(20));
  s.At(Millis(50), [&] { EXPECT_EQ(c.Now(), Millis(30)); });
  s.Run();
}

TEST(ClockTest, NowUniqueStrictlyIncreasing) {
  Scheduler s;
  Clock c(&s, 0);
  Timestamp prev = kMinTimestamp;
  for (int i = 0; i < 10; ++i) {
    const Timestamp t = c.NowUnique();  // Time not advancing: still unique.
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(ClockTest, DriftAccumulates) {
  Scheduler s;
  Clock c(&s, 0, /*drift_ppm=*/100.0);  // 100us per second.
  s.At(Seconds(10), [&] {
    EXPECT_NEAR(static_cast<double>(c.Now() - s.Now()), 1000.0, 1.0);
  });
  s.Run();
}

TEST(NetworkTest, DeliversWithConfiguredLatency) {
  Scheduler s;
  Network net(&s, 2, /*seed=*/1);
  net.SetRtt(0, 1, Millis(80), 0);
  SimTime arrived = -1;
  net.Send(0, 1, [&] { arrived = s.Now(); });
  s.Run();
  EXPECT_EQ(arrived, Millis(40));  // One way = RTT/2.
  EXPECT_EQ(net.MeanRtt(0, 1), Millis(80));
}

TEST(NetworkTest, FifoPerChannel) {
  Scheduler s;
  Network net(&s, 2, /*seed=*/2);
  net.SetRtt(0, 1, Millis(50), Millis(30));  // Heavy jitter.
  std::vector<int> arrivals;
  for (int i = 0; i < 50; ++i) {
    s.At(i * Millis(1), [&net, &arrivals, i] {
      net.Send(0, 1, [&arrivals, i] { arrivals.push_back(i); });
    });
  }
  s.Run();
  ASSERT_EQ(arrivals.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(arrivals[i], i);
}

TEST(NetworkTest, JitterVariesLatency) {
  Scheduler s;
  Network net(&s, 2, /*seed=*/3);
  net.SetRtt(0, 1, Millis(100), Millis(20));
  Duration lo = Seconds(10);
  Duration hi = 0;
  for (int i = 0; i < 200; ++i) {
    const Duration rtt = net.SampleRtt(0, 1);
    lo = std::min(lo, rtt);
    hi = std::max(hi, rtt);
  }
  EXPECT_LT(lo, Millis(95));
  EXPECT_GT(hi, Millis(105));
  EXPECT_GE(lo, Millis(50));  // Propagation floor: one-way >= mean / 2.
}

TEST(NetworkTest, CrashedReceiverDropsMessages) {
  Scheduler s;
  Network net(&s, 2, /*seed=*/4);
  net.SetRtt(0, 1, Millis(10), 0);
  int delivered = 0;
  net.CrashNode(1);
  net.Send(0, 1, [&] { ++delivered; });
  s.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(net.messages_dropped(), 1u);

  net.RecoverNode(1);
  net.Send(0, 1, [&] { ++delivered; });
  s.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, CrashedSenderDropsMessages) {
  Scheduler s;
  Network net(&s, 2, /*seed=*/5);
  net.SetRtt(0, 1, Millis(10), 0);
  int delivered = 0;
  net.CrashNode(0);
  net.Send(0, 1, [&] { ++delivered; });
  s.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkTest, PartitionCutsBothDirections) {
  Scheduler s;
  Network net(&s, 3, /*seed=*/6);
  net.SetRtt(0, 1, Millis(10), 0);
  net.SetRtt(0, 2, Millis(10), 0);
  net.SetRtt(1, 2, Millis(10), 0);
  net.SetPartitioned(0, 1, true);
  EXPECT_TRUE(net.IsPartitioned(0, 1));
  int delivered = 0;
  net.Send(0, 1, [&] { ++delivered; });
  net.Send(1, 0, [&] { ++delivered; });
  net.Send(0, 2, [&] { ++delivered; });  // Unaffected link.
  s.Run();
  EXPECT_EQ(delivered, 1);

  net.SetPartitioned(0, 1, false);
  net.Send(0, 1, [&] { ++delivered; });
  s.Run();
  EXPECT_EQ(delivered, 2);
}

TEST(ServiceQueueTest, SerializesWork) {
  Scheduler s;
  ServiceQueue q(&s);
  std::vector<SimTime> done;
  s.At(0, [&] {
    q.Submit(Millis(10), [&] { done.push_back(s.Now()); });
    q.Submit(Millis(10), [&] { done.push_back(s.Now()); });
    q.Submit(Millis(10), [&] { done.push_back(s.Now()); });
  });
  s.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], Millis(10));
  EXPECT_EQ(done[1], Millis(20));
  EXPECT_EQ(done[2], Millis(30));
  EXPECT_EQ(q.total_busy(), Millis(30));
}

TEST(ServiceQueueTest, IdleServerStartsImmediately) {
  Scheduler s;
  ServiceQueue q(&s);
  SimTime done = -1;
  s.At(Millis(100), [&] { q.Submit(Millis(5), [&] { done = s.Now(); }); });
  s.Run();
  EXPECT_EQ(done, Millis(105));
}

TEST(ServiceQueueTest, ChargeDelaysLaterWork) {
  Scheduler s;
  ServiceQueue q(&s);
  SimTime done = -1;
  s.At(0, [&] {
    q.Charge(Millis(50));
    q.Submit(Millis(10), [&] { done = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(done, Millis(60));
}

TEST(ServiceQueueTest, BacklogReflectsQueuedWork) {
  Scheduler s;
  ServiceQueue q(&s);
  s.At(0, [&] {
    EXPECT_EQ(q.backlog(), 0);
    q.Charge(Millis(30));
    EXPECT_EQ(q.backlog(), Millis(30));
  });
  s.Run();
}

}  // namespace
}  // namespace helios::sim
