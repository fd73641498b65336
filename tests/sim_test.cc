// Unit tests for the discrete-event simulation substrate: scheduler,
// clocks, WAN model, and the service queue.

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(ServiceQueueTest, ForegroundOvertakesQueuedDeferredUnits) {
  Scheduler s;
  ServiceQueue q(&s);
  SimTime done = -1;
  s.At(0, [&] {
    q.Charge(Millis(10));
    q.Defer(Millis(5));
    q.Defer(Millis(5));
    q.Submit(Millis(1), [&] { done = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(done, Millis(11));
  // The deferred units ran after it, back to back.
  s.At(Millis(30), [&] { EXPECT_EQ(q.total_busy(), Millis(21)); });
  s.Run();
}

TEST(ServiceQueueTest, DeferredUnitInServiceIsNotPreempted) {
  Scheduler s;
  ServiceQueue q(&s);
  SimTime done = -1;
  s.At(0, [&] {
    for (int i = 0; i < 3; ++i) q.Defer(Millis(10));
  });
  // Arrives 3 ms into the first unit: waits for it, not for the others.
  s.At(Millis(3), [&] {
    q.Submit(Millis(1), [&] { done = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(done, Millis(11));
}

TEST(ServiceQueueTest, DeferredUnitStartsTheInstantTheServerFallsIdle) {
  Scheduler s;
  ServiceQueue q(&s);
  SimTime tie = -1;
  SimTime later = -1;
  s.At(0, [&] {
    q.Charge(Millis(10));
    q.Defer(Millis(5));
  });
  // Foreground work arriving at the idle instant itself goes first ...
  s.At(Millis(10), [&] {
    EXPECT_EQ(q.backlog(), 0);
    q.Submit(Millis(1), [&] { tie = s.Now(); });
  });
  // ... and the deferred unit takes the server the moment it is free.
  s.At(Millis(12), [&] {
    EXPECT_EQ(q.backlog(), Millis(4));
    q.Submit(Millis(1), [&] { later = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(tie, Millis(11));
  EXPECT_EQ(later, Millis(17));
}

TEST(ServiceQueueTest, PastTheCapUnitsAreServedInArrivalOrder) {
  Scheduler s;
  ServiceQueue q(&s);
  SimTime done = -1;
  s.At(0, [&] {
    q.Charge(Millis(1));
    const Duration unit = ServiceQueue::kDeferredCap / 4;
    for (int i = 0; i < 4; ++i) q.Defer(unit);  // Exactly at the cap.
    EXPECT_EQ(q.backlog(), Millis(1));
    q.Defer(unit);  // Over it: queued like Charge.
    EXPECT_EQ(q.backlog(), Millis(1) + unit);
    q.Submit(Millis(1), [&] { done = s.Now(); });
    EXPECT_EQ(q.deferred_backlog(), ServiceQueue::kDeferredCap);
  });
  s.Run();
  EXPECT_EQ(done, Millis(2) + ServiceQueue::kDeferredCap / 4);
}

TEST(ServiceQueueTest, DeferredBacklogNeverExceedsTheCap) {
  Scheduler s;
  ServiceQueue q(&s);
  Duration deferred = 0;
  Duration max_backlog = 0;
  // Foreground work keeps the server busy 90% of each 1 ms while 7 ms of
  // deferred work arrives every 10 ms: far past what idle time drains.
  for (int step = 0; step < 2000; ++step) {
    s.At(Millis(step), [&, step] {
      q.Charge(Micros(900));
      if (step % 10 == 0) {
        q.Defer(Millis(7));
        deferred += Millis(7);
      }
      max_backlog = std::max(max_backlog, q.deferred_backlog());
      EXPECT_LE(q.deferred_backlog(), ServiceQueue::kDeferredCap);
    });
  }
  s.Run();
  EXPECT_GT(max_backlog, ServiceQueue::kDeferredCap - Millis(7));
  // No unit is lost: what is not still waiting has been served.
  s.At(Seconds(10), [&] {
    EXPECT_EQ(q.deferred_backlog(), 0);
    EXPECT_EQ(q.total_busy(), 2000 * Micros(900) + deferred);
  });
  s.Run();
}

TEST(ServiceQueueTest, AccessorsCountUnitsThatRanWhileIdle) {
  Scheduler s;
  ServiceQueue q(&s);
  s.At(0, [&] {
    for (int i = 0; i < 3; ++i) q.Defer(Millis(5));
    EXPECT_EQ(q.total_busy(), 0);
    EXPECT_EQ(q.deferred_backlog(), Millis(15));
  });
  // No queue call since t = 0: the first unit ran and the second is in
  // service, so a foreground arrival would wait out its last 3 ms.
  s.At(Millis(7), [&] {
    EXPECT_EQ(q.total_busy(), Millis(10));
    EXPECT_EQ(q.backlog(), Millis(3));
    EXPECT_EQ(q.deferred_backlog(), Millis(5));
  });
  s.At(Millis(20), [&] {
    EXPECT_EQ(q.total_busy(), Millis(15));
    EXPECT_EQ(q.backlog(), 0);
  });
  s.Run();
}

}  // namespace
}  // namespace helios::sim
