// Tests for the live deployment stack: the real-time loop, the TCP
// transport, and full LiveDatacenter clusters committing over actual
// sockets with wire-serialized envelopes.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/helios_cluster.h"
#include "core/history.h"
#include "lp/mao.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "transport/io_util.h"
#include "transport/live_datacenter.h"
#include "transport/realtime_loop.h"
#include "transport/tcp_transport.h"
#include "txn/transaction.h"

namespace helios::transport {
namespace {

using namespace std::chrono_literals;

TEST(RealtimeLoopTest, PostRunsOnLoopThread) {
  RealtimeLoop loop;
  loop.Start();
  std::atomic<bool> ran{false};
  std::thread::id loop_thread;
  loop.PostAndWait([&]() {
    ran = true;
    loop_thread = std::this_thread::get_id();
  });
  EXPECT_TRUE(ran.load());
  EXPECT_NE(loop_thread, std::this_thread::get_id());
  loop.Stop();
}

TEST(RealtimeLoopTest, ScheduledEventsFireNearWallTime) {
  RealtimeLoop loop;
  loop.Start();
  std::promise<Duration> fired;
  const auto start = std::chrono::steady_clock::now();
  loop.Post([&]() {
    loop.scheduler().After(Millis(50), [&]() {
      fired.set_value(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    });
  });
  const Duration elapsed = fired.get_future().get();
  EXPECT_GE(elapsed, Millis(45));
  EXPECT_LE(elapsed, Millis(250));  // Generous: CI machines can stall.
  loop.Stop();
}

TEST(RealtimeLoopTest, StopIsIdempotentAndJoins) {
  RealtimeLoop loop;
  loop.Start();
  loop.Post([]() {});
  loop.Stop();
  loop.Stop();
  SUCCEED();
}

TEST(RealtimeLoopTest, ManyPostsAllRunInOrder) {
  RealtimeLoop loop;
  loop.Start();
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    loop.Post([&order, i]() { order.push_back(i); });
  }
  loop.PostAndWait([]() {});
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  loop.Stop();
}

TEST(TcpTransportTest, SendReceiveRoundTrip) {
  std::promise<std::vector<uint8_t>> received;
  TcpTransport server([&](std::vector<uint8_t> payload) {
    received.set_value(std::move(payload));
  });
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_GT(server.port(), 0);

  TcpTransport client([](std::vector<uint8_t>) {});
  ASSERT_TRUE(client.Connect(0, server.port()).ok());
  const std::vector<uint8_t> msg = {1, 2, 3, 250, 251};
  ASSERT_TRUE(client.Send(0, msg).ok());

  auto future = received.get_future();
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), msg);
  EXPECT_EQ(client.messages_sent(), 1u);
  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, ManyMessagesArriveInOrder) {
  std::mutex mu;
  std::vector<uint32_t> got;
  std::promise<void> all;
  TcpTransport server([&](std::vector<uint8_t> payload) {
    ASSERT_EQ(payload.size(), 4u);
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(static_cast<uint32_t>(payload[0]) |
                  static_cast<uint32_t>(payload[1]) << 8 |
                  static_cast<uint32_t>(payload[2]) << 16 |
                  static_cast<uint32_t>(payload[3]) << 24);
    if (got.size() == 500) all.set_value();
  });
  ASSERT_TRUE(server.Listen(0).ok());
  TcpTransport client([](std::vector<uint8_t>) {});
  ASSERT_TRUE(client.Connect(0, server.port()).ok());
  for (uint32_t i = 0; i < 500; ++i) {
    std::vector<uint8_t> msg = {static_cast<uint8_t>(i),
                                static_cast<uint8_t>(i >> 8),
                                static_cast<uint8_t>(i >> 16),
                                static_cast<uint8_t>(i >> 24)};
    ASSERT_TRUE(client.Send(0, msg).ok());
  }
  ASSERT_EQ(all.get_future().wait_for(10s), std::future_status::ready);
  std::lock_guard<std::mutex> lock(mu);
  for (uint32_t i = 0; i < 500; ++i) EXPECT_EQ(got[i], i);
  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, SendWithoutConnectionFails) {
  TcpTransport t([](std::vector<uint8_t>) {});
  EXPECT_FALSE(t.Send(3, {1}).ok());
}

TEST(TcpTransportTest, ConnectToClosedPortFailsEventually) {
  TcpTransport t([](std::vector<uint8_t>) {});
  // Port 1 on loopback is essentially never listening; expect a clean
  // failure after the bounded retries.
  const Status s = t.Connect(0, 1);
  EXPECT_FALSE(s.ok());
}

TEST(TcpTransportTest, SendReconnectsAfterPeerRestart) {
  std::promise<void> got_first;
  auto server1 = std::make_unique<TcpTransport>(
      [&](std::vector<uint8_t>) { got_first.set_value(); });
  ASSERT_TRUE(server1->Listen(0).ok());
  const uint16_t port = server1->port();

  TcpTransport client([](std::vector<uint8_t>) {});
  ASSERT_TRUE(client.Connect(0, port).ok());
  ASSERT_TRUE(client.Send(0, {1}).ok());
  ASSERT_EQ(got_first.get_future().wait_for(5s), std::future_status::ready);

  // Kill the peer and bring a new one up on the same port.
  server1->Shutdown();
  server1.reset();
  std::promise<void> got_again;
  std::atomic<bool> got_again_set{false};
  TcpTransport server2([&](std::vector<uint8_t>) {
    if (!got_again_set.exchange(true)) got_again.set_value();
  });
  ASSERT_TRUE(server2.Listen(port).ok());

  // The old connection is dead. Send() notices — possibly only on the
  // second call, since the first write can land in the kernel buffer
  // before the RST comes back — then redials and delivers.
  auto delivered = got_again.get_future();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (delivered.wait_for(0s) != std::future_status::ready &&
         std::chrono::steady_clock::now() < deadline) {
    (void)client.Send(0, {2});
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(delivered.wait_for(0s), std::future_status::ready)
      << "send never reached the restarted peer";
  EXPECT_GE(client.reconnects(), 1u);
  client.Shutdown();
  server2.Shutdown();
}

TEST(TcpTransportTest, RedialCooldownIsReportedAndReconnectCountsOnce) {
  auto server1 =
      std::make_unique<TcpTransport>([](std::vector<uint8_t>) {});
  ASSERT_TRUE(server1->Listen(0).ok());
  const uint16_t port = server1->port();

  TcpTransport client([](std::vector<uint8_t>) {});
  ASSERT_TRUE(client.Connect(0, port).ok());
  EXPECT_EQ(client.redial_cooldown_remaining_ms(), 0);
  ASSERT_TRUE(client.Send(0, {1}).ok());

  // Kill the peer; nothing re-listens, so every redial is refused.
  server1->Shutdown();
  server1.reset();

  // The first failing Send marks the connection dead and arms the
  // cooldown; its own dial attempt fails before any socket is
  // registered, which must NOT count as a reconnect.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (client.Send(0, {2}).ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(client.reconnects(), 0u);
  const int64_t remaining = client.redial_cooldown_remaining_ms();
  EXPECT_GT(remaining, 0);
  EXPECT_LE(remaining, 50);

  // Inside the cooldown the next failure returns without redialing.
  EXPECT_FALSE(client.Send(0, {3}).ok());
  EXPECT_EQ(client.reconnects(), 0u);

  // Bring the peer back and let the cooldown lapse: exactly one
  // reconnect is recorded, for the redial that actually installs.
  std::promise<void> got;
  std::atomic<bool> got_set{false};
  TcpTransport server2([&](std::vector<uint8_t>) {
    if (!got_set.exchange(true)) got.set_value();
  });
  ASSERT_TRUE(server2.Listen(port).ok());
  auto delivered = got.get_future();
  const auto deadline2 = std::chrono::steady_clock::now() + 10s;
  while (delivered.wait_for(0s) != std::future_status::ready &&
         std::chrono::steady_clock::now() < deadline2) {
    (void)client.Send(0, {4});
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(delivered.wait_for(0s), std::future_status::ready)
      << "send never reached the restarted peer";
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.redial_cooldown_remaining_ms(), 0);
  client.Shutdown();
  server2.Shutdown();
}

TEST(TcpTransportTest, ShutdownRacingAnAcceptNeverHangs) {
  // Connect() returns once the kernel has queued the connection, so the
  // server's accept thread may still be spawning its reader when
  // Shutdown() runs. That reader must not be left parked in recv() on a
  // connection the live client keeps open: Shutdown() would join it
  // forever. Each round gives the race another chance to land.
  for (int round = 0; round < 1000; ++round) {
    TcpTransport server([](std::vector<uint8_t>) {});
    ASSERT_TRUE(server.Listen(0).ok());
    TcpTransport client([](std::vector<uint8_t>) {});
    // The watchdog starts before the connection, so nothing delays the
    // Shutdown() that follows Connect(). If Shutdown() hangs, closing
    // the client's end releases the stuck reader and the test fails
    // instead of hanging.
    std::promise<void> stopped;
    std::atomic<bool> hung{false};
    std::thread watchdog([&client, &hung, done = stopped.get_future()]() {
      if (done.wait_for(5s) != std::future_status::ready) {
        hung = true;
        client.Shutdown();
      }
    });
    const bool connected = client.Connect(0, server.port()).ok();
    server.Shutdown();
    stopped.set_value();
    watchdog.join();
    ASSERT_TRUE(connected);
    ASSERT_FALSE(hung.load()) << "server Shutdown() hung in round " << round;
  }
}

// --- Live clusters over real sockets -----------------------------------------

struct LiveCluster {
  std::vector<std::unique_ptr<LiveDatacenter>> dcs;

  explicit LiveCluster(int n, Duration inbound_delay,
                       int fault_tolerance = 0, bool health = false) {
    core::HeliosConfig cfg;
    cfg.num_datacenters = n;
    cfg.fault_tolerance = fault_tolerance;
    cfg.health_enabled = health;
    cfg.log_interval = Millis(5);
    cfg.grace_time = Millis(2000);  // Generous: wall-clock jitter is real.
    for (DcId dc = 0; dc < n; ++dc) {
      dcs.push_back(
          std::make_unique<LiveDatacenter>(dc, cfg, inbound_delay));
      EXPECT_TRUE(dcs.back()->Listen(0).ok());
    }
    std::vector<uint16_t> ports;
    for (auto& dc : dcs) ports.push_back(dc->port());
    for (auto& dc : dcs) EXPECT_TRUE(dc->ConnectPeers(ports).ok());
  }

  void Start() {
    for (auto& dc : dcs) dc->Start();
  }
  void Stop() {
    for (auto& dc : dcs) dc->Stop();
  }
};

TEST(LiveDatacenterTest, CommitOverRealSockets) {
  LiveCluster cluster(3, /*inbound_delay=*/Millis(10));
  cluster.Start();

  const auto t0 = std::chrono::steady_clock::now();
  const CommitOutcome outcome = cluster.dcs[0]->CommitSync({}, {{"x", "42"}});
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_TRUE(outcome.committed);
  // Helios-B with a 10ms inbound delay: the wait is one emulated one-way
  // (10ms) plus ticks; allow slack for wall-clock scheduling.
  EXPECT_GE(elapsed, 9);
  EXPECT_LE(elapsed, 1000);

  // Replication: the write becomes visible at the other datacenters.
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto r = cluster.dcs[2]->ReadSync("x");
    if (r.ok()) {
      EXPECT_EQ(r.value().value, "42");
      break;
    }
    std::this_thread::sleep_for(10ms);
    ASSERT_LT(attempt, 99) << "write never replicated";
  }
  cluster.Stop();
}

// Helios-1 over real sockets: Rule 3 holds each commit until a peer
// acknowledged it, and the acks cross the wire as their own envelope kind.
TEST(LiveDatacenterTest, Helios1CommitsAndAcknowledgesOverRealSockets) {
  LiveCluster cluster(3, /*inbound_delay=*/Millis(5), /*fault_tolerance=*/1);
  cluster.Start();
  for (DcId dc = 0; dc < 3; ++dc) {
    const std::string key = "k" + std::to_string(dc);
    const CommitOutcome outcome = cluster.dcs[dc]->CommitSync({}, {{key, "v"}});
    EXPECT_TRUE(outcome.committed) << "dc" << dc << ": "
                                   << outcome.abort_reason;
  }
  // Every write replicates everywhere, and every node acknowledged the
  // preparing records its two peers gossiped to it.
  for (DcId dc = 0; dc < 3; ++dc) {
    for (DcId writer = 0; writer < 3; ++writer) {
      const std::string key = "k" + std::to_string(writer);
      for (int attempt = 0;; ++attempt) {
        const auto r = cluster.dcs[dc]->ReadSync(key);
        if (r.ok()) break;
        ASSERT_LT(attempt, 100) << key << " never reached dc" << dc;
        std::this_thread::sleep_for(10ms);
      }
    }
    EXPECT_GT(cluster.dcs[dc]->CountersSnapshot().acks_sent, 0u)
        << "dc" << dc;
  }
  cluster.Stop();
}

TEST(LiveDatacenterTest, ConflictingLiveTransactionsNeverBothCommit) {
  LiveCluster cluster(2, /*inbound_delay=*/Millis(20));
  cluster.Start();

  // Fire conflicting commits from both sides nearly simultaneously.
  std::promise<CommitOutcome> p0;
  std::promise<CommitOutcome> p1;
  cluster.dcs[0]->Commit({}, {{"hot", "a"}},
                         [&](const CommitOutcome& o) { p0.set_value(o); });
  cluster.dcs[1]->Commit({}, {{"hot", "b"}},
                         [&](const CommitOutcome& o) { p1.set_value(o); });
  auto f0 = p0.get_future();
  auto f1 = p1.get_future();
  ASSERT_EQ(f0.wait_for(10s), std::future_status::ready);
  ASSERT_EQ(f1.wait_for(10s), std::future_status::ready);
  const CommitOutcome o0 = f0.get();
  const CommitOutcome o1 = f1.get();
  EXPECT_LE(o0.committed + o1.committed, 1)
      << "double commit over the live transport";
  cluster.Stop();
}

TEST(LiveDatacenterTest, ThroughputSmokeOverSockets) {
  LiveCluster cluster(3, /*inbound_delay=*/Millis(5));
  cluster.Start();
  int committed = 0;
  for (int i = 0; i < 30; ++i) {
    const CommitOutcome o = cluster.dcs[i % 3]->CommitSync(
        {}, {{"k" + std::to_string(i), "v"}});
    committed += o.committed;
  }
  EXPECT_EQ(committed, 30);
  const auto counters = cluster.dcs[0]->CountersSnapshot();
  EXPECT_GE(counters.commits, 10u);
  EXPECT_GT(counters.envelopes_sent, 0u);
  cluster.Stop();
}

TEST(LiveDatacenterTest, WalSurvivesRestart) {
  const std::string path = ::testing::TempDir() + "/live_wal_" +
                           std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  // Run a cluster with DC0 journaling; commit; tear everything down.
  {
    LiveCluster cluster(2, Millis(5));
    ASSERT_TRUE(cluster.dcs[0]->EnableWal(path, wal::FileWalOptions{}).ok());
    cluster.Start();
    const CommitOutcome o =
        cluster.dcs[0]->CommitSync({}, {{"persist", "me"}});
    ASSERT_TRUE(o.committed);
    cluster.Stop();
  }
  // Restart: a fresh cluster where DC0 recovers from its WAL.
  {
    LiveCluster cluster(2, Millis(5));
    ASSERT_TRUE(cluster.dcs[0]->EnableWal(path, wal::FileWalOptions{}).ok());
    cluster.Start();
    // Restore triggers a real catch-up round with the peer, and the node
    // answers "recovering" until it completes — wait for the counters.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (cluster.dcs[0]->recovery_snapshot().recoveries == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    const RecoveryStats rec = cluster.dcs[0]->recovery_snapshot();
    ASSERT_EQ(rec.recoveries, 1u) << "catch-up never completed";
    EXPECT_GT(rec.records_replayed, 0u);
    auto r = cluster.dcs[0]->ReadSync("persist");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().value, "me");
    // And it still commits new transactions.
    EXPECT_TRUE(cluster.dcs[0]->CommitSync({}, {{"again", "1"}}).committed);
    cluster.Stop();
  }
  std::remove(path.c_str());
}

// --- io_util: partial writes, EINTR, dead peers ------------------------------

// A connected stream pair whose writer has a deliberately tiny send
// buffer, so multi-megabyte WriteFull calls are guaranteed to hit partial
// transfers (and EAGAIN when the writer is non-blocking).
struct TinyBufferPair {
  int writer = -1;
  int reader = -1;

  TinyBufferPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer = fds[0];
    reader = fds[1];
    // The kernel clamps this upward to its floor, but the result is still
    // a few KB — far below the payloads the tests push through.
    int small = 1;
    EXPECT_EQ(::setsockopt(writer, SOL_SOCKET, SO_SNDBUF, &small,
                           sizeof(small)),
              0);
    EXPECT_EQ(::setsockopt(reader, SOL_SOCKET, SO_RCVBUF, &small,
                           sizeof(small)),
              0);
  }
  ~TinyBufferPair() {
    if (writer >= 0) ::close(writer);
    if (reader >= 0) ::close(reader);
  }
};

std::vector<uint8_t> PatternedBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131) ^ (i >> 8));
  }
  return bytes;
}

TEST(IoUtilTest, WriteFullSurvivesTinySendBufferNonBlocking) {
  TinyBufferPair pair;
  ASSERT_EQ(::fcntl(pair.writer, F_SETFL,
                    ::fcntl(pair.writer, F_GETFL) | O_NONBLOCK),
            0);

  const std::vector<uint8_t> sent = PatternedBytes(2 << 20);
  std::atomic<bool> write_ok{false};
  std::thread writer([&]() {
    write_ok = WriteFull(pair.writer, sent.data(), sent.size());
  });

  // Let the writer saturate both kernel buffers and park in poll(POLLOUT)
  // before draining — the EAGAIN path must actually run.
  std::this_thread::sleep_for(50ms);
  std::vector<uint8_t> got(sent.size());
  EXPECT_TRUE(ReadFull(pair.reader, got.data(), got.size()));
  writer.join();
  EXPECT_TRUE(write_ok.load());
  EXPECT_EQ(got, sent);
}

TEST(IoUtilTest, WriteFullRetriesThroughSignals) {
  // A signal landing mid-send makes a blocking send() return EINTR or a
  // short count; WriteFull must treat both as "keep going", not as a dead
  // connection. Install a no-op SIGUSR1 handler WITHOUT SA_RESTART so the
  // kernel actually interrupts the syscall.
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // No SA_RESTART: let send() fail with EINTR.
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  TinyBufferPair pair;
  const std::vector<uint8_t> sent = PatternedBytes(2 << 20);
  std::atomic<bool> write_ok{false};
  std::atomic<bool> done{false};
  std::thread writer([&]() {
    write_ok = WriteFull(pair.writer, sent.data(), sent.size());
    done = true;
  });

  // Pepper the blocked writer with signals while slowly draining the
  // reader side, so send() is interrupted many times mid-transfer.
  std::vector<uint8_t> got(sent.size());
  size_t off = 0;
  while (off < got.size()) {
    if (!done.load()) pthread_kill(writer.native_handle(), SIGUSR1);
    const size_t chunk = std::min<size_t>(64 * 1024, got.size() - off);
    ASSERT_TRUE(ReadFull(pair.reader, got.data() + off, chunk));
    off += chunk;
  }
  writer.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
  EXPECT_TRUE(write_ok.load());
  EXPECT_EQ(got, sent);
}

TEST(IoUtilTest, WriteFullReportsClosedPeerWithoutSigpipe) {
  TinyBufferPair pair;
  ::close(pair.reader);
  pair.reader = -1;
  // MSG_NOSIGNAL must turn the dead peer into a clean `false` (EPIPE),
  // not a process-killing SIGPIPE. The payload exceeds the send buffer so
  // the failure cannot hide in the kernel buffer.
  const std::vector<uint8_t> sent = PatternedBytes(1 << 20);
  EXPECT_FALSE(WriteFull(pair.writer, sent.data(), sent.size()));
}

TEST(IoUtilTest, ReadFullReportsEofMidFrame) {
  TinyBufferPair pair;
  const std::vector<uint8_t> partial = PatternedBytes(100);
  ASSERT_TRUE(WriteFull(pair.writer, partial.data(), partial.size()));
  ::close(pair.writer);
  pair.writer = -1;
  // The peer died 100 bytes into a 200-byte frame: ReadFull must report
  // failure, not return half a buffer as success.
  std::vector<uint8_t> got(200);
  EXPECT_FALSE(ReadFull(pair.reader, got.data(), got.size()));
}

TEST(TcpTransportTest, LargeFrameSurvivesPartialWrites) {
  // A 4 MB frame dwarfs the default kernel socket buffers, so the send
  // path must go through many partial writes; the frame has to arrive
  // byte-identical on the other side.
  std::promise<std::vector<uint8_t>> received;
  TcpTransport server([&](std::vector<uint8_t> payload) {
    received.set_value(std::move(payload));
  });
  ASSERT_TRUE(server.Listen(0).ok());
  TcpTransport client([](std::vector<uint8_t>) {});
  ASSERT_TRUE(client.Connect(0, server.port()).ok());

  const std::vector<uint8_t> msg = PatternedBytes(4 << 20);
  ASSERT_TRUE(client.Send(0, msg).ok());
  auto future = received.get_future();
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(future.get(), msg);
  client.Shutdown();
  server.Shutdown();
}

// --- Administrative peer blocking (live chaos partitions) --------------------

TEST(TcpTransportTest, BlockedPeerShedsSendsThenHeals) {
  std::mutex mu;
  uint64_t delivered = 0;
  TcpTransport server([&](std::vector<uint8_t>) {
    std::lock_guard<std::mutex> lock(mu);
    ++delivered;
  });
  ASSERT_TRUE(server.Listen(0).ok());
  TcpTransport client([](std::vector<uint8_t>) {});
  ASSERT_TRUE(client.Connect(0, server.port()).ok());
  ASSERT_TRUE(client.Send(0, {1}).ok());

  client.SetPeerBlocked(0, true);
  // Blocked sends fail fast with Unavailable, count as sends_blocked, and
  // never redial (a partition must not heal itself).
  for (int i = 0; i < 5; ++i) {
    const Status s = client.Send(0, {2});
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(client.sends_blocked(), 5u);
  EXPECT_EQ(client.messages_sent(), 1u);

  client.SetPeerBlocked(0, false);
  // Healing does not resurrect the old socket — the block closed it — but
  // the next sends redial and delivery resumes.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool healed = false;
  while (!healed && std::chrono::steady_clock::now() < deadline) {
    (void)client.Send(0, {3});
    std::this_thread::sleep_for(20ms);
    std::lock_guard<std::mutex> lock(mu);
    healed = delivered >= 2;
  }
  EXPECT_TRUE(healed) << "sends never resumed after the block was lifted";
  EXPECT_GE(client.reconnects(), 1u);
  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, BlockBeforeConnectIsRemembered) {
  TcpTransport server([](std::vector<uint8_t>) {});
  ASSERT_TRUE(server.Listen(0).ok());
  TcpTransport client([](std::vector<uint8_t>) {});
  // Block first (the supervisor may apply a partition plan before the
  // relaunched peer ever dialed), then connect: sends must still shed.
  client.SetPeerBlocked(0, true);
  ASSERT_TRUE(client.Connect(0, server.port()).ok());
  EXPECT_FALSE(client.Send(0, {1}).ok());
  EXPECT_GE(client.sends_blocked(), 1u);

  client.SetPeerBlocked(0, false);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool sent = false;
  while (!sent && std::chrono::steady_clock::now() < deadline) {
    sent = client.Send(0, {1}).ok();
    if (!sent) std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(sent);
  client.Shutdown();
  server.Shutdown();
}


// --- Clock discipline over real sockets --------------------------------------

/// `dc`'s clock steps as its metrics export reports them.
core::ClockStepStats ExportedClockSteps(LiveDatacenter& dc) {
  obs::MetricsRegistry reg;
  dc.ExportMetrics(&reg);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const auto* steps = snap.FindCounter("clock.steps");
  const auto* stepped = snap.FindCounter("clock.stepped_us");
  EXPECT_NE(steps, nullptr);
  EXPECT_NE(stepped, nullptr);
  if (steps == nullptr || stepped == nullptr) return {};
  return {steps->value, static_cast<Duration>(stepped->value)};
}

/// The config of a deployment whose datacenter `dc` receives every
/// envelope after delays[dc]: commit offsets planned on RTT(a, b) =
/// delays[a] + delays[b], a 5 ms log interval.
core::HeliosConfig DelayedConfig(const std::vector<Duration>& delays) {
  const int n = static_cast<int>(delays.size());
  lp::RttMatrix rtt(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      rtt.Set(a, b, ToMillis(delays[static_cast<size_t>(a)] +
                             delays[static_cast<size_t>(b)]));
    }
  }
  core::HeliosConfig cfg;
  cfg.num_datacenters = n;
  cfg.log_interval = Millis(5);
  cfg.grace_time = Millis(2000);
  cfg.commit_offsets = lp::EvenSplitOffsetsUs(lp::SolveMao(rtt).value());
  return cfg;
}

/// Listening datacenters for DelayedConfig(delays); the caller connects
/// and starts them.
std::vector<std::unique_ptr<LiveDatacenter>> DelayedDatacenters(
    const std::vector<Duration>& delays) {
  const core::HeliosConfig cfg = DelayedConfig(delays);
  std::vector<std::unique_ptr<LiveDatacenter>> dcs;
  for (DcId dc = 0; dc < cfg.num_datacenters; ++dc) {
    dcs.push_back(std::make_unique<LiveDatacenter>(
        dc, cfg, delays[static_cast<size_t>(dc)]));
    EXPECT_TRUE(dcs.back()->Listen(0).ok());
  }
  return dcs;
}

std::vector<uint16_t> PortsOf(
    const std::vector<std::unique_ptr<LiveDatacenter>>& dcs) {
  std::vector<uint16_t> ports;
  for (const auto& dc : dcs) ports.push_back(dc->port());
  return ports;
}

/// Wall-clock milliseconds of one committed write at `dc`.
double CommitMillis(LiveDatacenter& dc, const std::string& key) {
  const auto t0 = std::chrono::steady_clock::now();
  const CommitOutcome o = dc.CommitSync({}, {{key, "v"}});
  EXPECT_TRUE(o.committed) << o.abort_reason;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The fastest of three commits at `dc`, so one scheduler hiccup on a
/// loaded machine does not decide the test.
double BestCommitMillis(LiveDatacenter& dc, const std::string& key) {
  double best = CommitMillis(dc, key + "0");
  for (int i = 1; i < 3; ++i) {
    best = std::min(best, CommitMillis(dc, key + std::to_string(i)));
  }
  return best;
}

TEST(LiveClockDisciplineTest, AsymmetricInboundDelaysConvergeAndHoldStill) {
  // perfbench's live-voc shape: every envelope reaches V after 62.5 ms, O
  // after 3.5 ms and C after 15.5 ms. Undisciplined, V's commits wait
  // about 92 ms against a planned 62.5 ms.
  auto dcs = DelayedDatacenters({Micros(62500), Micros(3500), Micros(15500)});
  for (auto& dc : dcs) ASSERT_TRUE(dc->ConnectPeers(PortsOf(dcs)).ok());
  for (auto& dc : dcs) dc->Start();
  std::this_thread::sleep_for(1500ms);
  EXPECT_LT(BestCommitMillis(*dcs[0], "v"), 75.0);
  const auto snapshot = [&dcs]() {
    std::vector<core::ClockStepStats> stats;
    for (auto& dc : dcs) stats.push_back(ExportedClockSteps(*dc));
    return stats;
  };
  const auto same = [](const std::vector<core::ClockStepStats>& a,
                       const std::vector<core::ClockStepStats>& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].steps != b[i].steps) return false;
    }
    return true;
  };
  // The last steps of the convergence are a deadband wide; on a loaded
  // machine (or a sanitizer build) they can trail the commit above. Once
  // no clock has stepped for a second, none may step again.
  std::vector<core::ClockStepStats> steps = snapshot();
  auto quiet_since = std::chrono::steady_clock::now();
  const auto deadline = quiet_since + 5s;
  while (std::chrono::steady_clock::now() < deadline &&
         std::chrono::steady_clock::now() - quiet_since < 1s) {
    std::this_thread::sleep_for(50ms);
    std::vector<core::ClockStepStats> now = snapshot();
    if (!same(now, steps)) {
      steps = std::move(now);
      quiet_since = std::chrono::steady_clock::now();
    }
  }
  EXPECT_GT(steps[1].steps, 0u);
  EXPECT_GT(steps[2].steps, 0u);
  std::this_thread::sleep_for(5s);
  const std::vector<core::ClockStepStats> later = snapshot();
  for (size_t dc = 0; dc < dcs.size(); ++dc) {
    EXPECT_EQ(later[dc].steps, steps[dc].steps)
        << "dc" << dc << " stepped again after converging: "
        << steps[dc].stepped_us << " -> " << later[dc].stepped_us << " us";
  }
  for (auto& dc : dcs) dc->Stop();
}

TEST(LiveClockDisciplineTest, StaggeredStartsConverge) {
  // Each loop clock counts from its own Start: started 500 ms after dc0,
  // dc1 runs 500 ms behind, and every dc0 commit would wait that long.
  auto dcs = DelayedDatacenters({Millis(5), Millis(5)});
  for (auto& dc : dcs) ASSERT_TRUE(dc->ConnectPeers(PortsOf(dcs)).ok());
  dcs[0]->Start();
  std::this_thread::sleep_for(500ms);
  dcs[1]->Start();
  std::this_thread::sleep_for(2s);
  EXPECT_LT(BestCommitMillis(*dcs[0], "s"), 50.0);
  // dc1 closed the gap; dc0, ahead all along, never chased it.
  EXPECT_GE(ExportedClockSteps(*dcs[1]).stepped_us, Millis(400));
  EXPECT_LT(ExportedClockSteps(*dcs[0]).stepped_us, Millis(10));
  for (auto& dc : dcs) dc->Stop();
}

TEST(LiveClockDisciplineTest, WalRestartConverges) {
  // A datacenter restarted from its WAL restores the promises it made on
  // its old clock, while its new loop clock starts again at zero; its
  // peer's commits would wait out the old uptime.
  const std::string path = ::testing::TempDir() + "/live_clock_wal_" +
                           std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  const std::vector<Duration> delays = {Millis(5), Millis(5)};
  auto dcs = DelayedDatacenters(delays);
  ASSERT_TRUE(dcs[0]->EnableWal(path, wal::FileWalOptions{}).ok());
  const std::vector<uint16_t> ports = PortsOf(dcs);
  for (auto& dc : dcs) ASSERT_TRUE(dc->ConnectPeers(ports).ok());
  for (auto& dc : dcs) dc->Start();
  ASSERT_TRUE(dcs[0]->CommitSync({}, {{"before", "1"}}).committed);
  std::this_thread::sleep_for(1500ms);
  dcs[0]->Stop();

  dcs[0] = std::make_unique<LiveDatacenter>(0, DelayedConfig(delays),
                                            delays[0]);
  ASSERT_TRUE(dcs[0]->EnableWal(path, wal::FileWalOptions{}).ok());
  ASSERT_TRUE(dcs[0]->Listen(ports[0]).ok());
  ASSERT_TRUE(dcs[0]->ConnectPeers(ports).ok());
  dcs[0]->Start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (dcs[0]->recovery_snapshot().recoveries == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(dcs[0]->recovery_snapshot().recoveries, 1u);
  std::this_thread::sleep_for(1s);
  EXPECT_LT(BestCommitMillis(*dcs[1], "r"), 50.0);
  for (auto& dc : dcs) dc->Stop();
  std::remove(path.c_str());
}

// The transport's lifecycle checks stop the process in every build, this
// NDEBUG one included.
#if GTEST_HAS_DEATH_TEST
TEST(LiveDatacenterDeathTest, ShortPeerPortListAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::HeliosConfig cfg;
  cfg.num_datacenters = 3;
  EXPECT_DEATH(
      {
        LiveDatacenter dc(0, cfg);
        (void)dc.ConnectPeers({1});
      },
      "check failed: .*dc0: 1 peer ports for 3 datacenters");
}

TEST(LiveDatacenterDeathTest, SecondStartAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::HeliosConfig cfg;
  cfg.num_datacenters = 1;
  EXPECT_DEATH(
      {
        LiveDatacenter dc(0, cfg);
        (void)dc.Listen(0);
        dc.Start();
        dc.Start();
      },
      "check failed: .*dc0: Start twice");
}

TEST(LiveDatacenterDeathTest, UnjournaledRecordAborts) {
  // A datacenter whose disk is full must stop rather than commit records
  // it never journaled. /dev/full reads as an empty journal and fails
  // every write.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto recovered = wal::RecoverFileWal("/dev/full");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().contents.entries, 0u);
  core::HeliosConfig cfg;
  cfg.num_datacenters = 1;
  EXPECT_DEATH(
      {
        LiveDatacenter dc(0, cfg);
        if (dc.EnableWal("/dev/full", wal::FileWalOptions{}).ok() &&
            dc.Listen(0).ok() && dc.ConnectPeers({dc.port()}).ok()) {
          dc.Start();
          (void)dc.CommitSync({}, {{"k", "v"}});
        }
      },
      "check failed: .*dc0: .*WAL flush failed");
}
#endif

TEST(LiveDatacenterTest, RepeatedKeyInWriteSetIsRefused) {
  LiveCluster cluster(2, Millis(5));
  for (auto& dc : cluster.dcs) dc->LoadInitial("x", "0");
  cluster.Start();
  const CommitOutcome dup =
      cluster.dcs[0]->CommitSync({}, {{"x", "1"}, {"x", "2"}});
  EXPECT_FALSE(dup.committed);
  EXPECT_EQ(dup.abort_reason, kDuplicateWriteAbortReason);
  EXPECT_TRUE(cluster.dcs[0]->CommitSync({}, {{"y", "1"}}).committed);
  for (auto& dc : cluster.dcs) {
    auto r = dc->ReadSync("x");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().value, "0");
  }
  const core::NodeCounters c = cluster.dcs[0]->CountersSnapshot();
  EXPECT_EQ(c.commit_requests, 2u);
  EXPECT_EQ(c.aborts_on_request, 1u);
  EXPECT_EQ(c.commit_requests, c.commits + c.total_aborts());
  cluster.Stop();
}

/// The counter and gauge names of a snapshot.
std::set<std::string> NamesOf(const obs::MetricsSnapshot& snap) {
  std::set<std::string> names;
  for (const auto& c : snap.counters) names.insert(c.name);
  for (const auto& g : snap.gauges) names.insert(g.name);
  return names;
}

/// True for a node.*, protocol.* or health.* name that speaks for
/// datacenter 0: cluster-wide, or naming dc0 as the exporting datacenter.
bool SharedNameOfDc0(const std::string& name) {
  for (const std::string prefix : {"node.", "protocol.", "health."}) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string rest = name.substr(prefix.size());
    return rest.rfind("dc", 0) != 0 || rest.rfind("dc0.", 0) == 0;
  }
  return false;
}

TEST(LiveDatacenterTest, ExportsTheSimulatorsNames) {
  // The live node exports, for its own datacenter, exactly the node.*,
  // protocol.* and health.* names a simulated cluster of the same shape
  // (Helios-1, health on) exports for that datacenter.
  LiveCluster live(3, Millis(5), /*fault_tolerance=*/1, /*health=*/true);
  live.Start();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        live.dcs[0]->CommitSync({}, {{"k" + std::to_string(i), "v"}})
            .committed);
  }
  obs::MetricsRegistry live_reg;
  live.dcs[0]->ExportMetrics(&live_reg);
  live.Stop();
  const obs::MetricsSnapshot live_snap = live_reg.Snapshot();

  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 3, 1);
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) network.SetRtt(a, b, Millis(10), 0);
  }
  core::HeliosConfig cfg;
  cfg.num_datacenters = 3;
  cfg.fault_tolerance = 1;
  cfg.health_enabled = true;
  core::HeliosCluster sim_cluster(&scheduler, &network, cfg);
  sim_cluster.Start();
  scheduler.RunUntil(Millis(200));
  obs::MetricsRegistry sim_reg;
  sim_cluster.ExportMetrics(&sim_reg);

  std::set<std::string> sim_dc0;
  for (const std::string& name : NamesOf(sim_reg.Snapshot())) {
    if (SharedNameOfDc0(name)) sim_dc0.insert(name);
  }
  const std::set<std::string> live_names = NamesOf(live_snap);
  std::set<std::string> live_shared;
  for (const std::string& name : live_names) {
    if (SharedNameOfDc0(name)) live_shared.insert(name);
  }
  // Not vacuous: the gated names are there on both sides.
  for (const char* name : {"node.commits", "node.acks_sent",
                           "protocol.commits", "node.dc0.pt_pool",
                           "health.suspicions", "health.dc0.phi.dc1",
                           "health.dc0.suspected"}) {
    EXPECT_EQ(sim_dc0.count(name), 1u) << name;
  }
  EXPECT_EQ(live_shared, sim_dc0);
  // The live-only names, and no other datacenter's.
  for (const char* name :
       {"clock.steps", "clock.stepped_us", "overload.admitted",
        "overload.shed", "overload.inflight", "overload.queue_depth",
        "recovery.recoveries", "recovery.records_replayed",
        "recovery.catchup_records", "recovery.duration_us",
        "transport.messages_sent", "transport.messages_received",
        "transport.reconnects", "transport.sends_blocked",
        "transport.redial_cooldown_remaining_ms"}) {
    EXPECT_EQ(live_names.count(name), 1u) << name;
  }
  for (const std::string& name : live_names) {
    EXPECT_EQ(name.find(".dc1."), std::string::npos) << name;
    EXPECT_EQ(name.rfind("wal.", 0), std::string::npos) << name;
  }
  const auto* requests = live_snap.FindCounter("node.commit_requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, 3u);
}

TEST(LiveDatacenterTest, InitialDataVisibleBeforeTraffic) {
  LiveCluster cluster(2, Millis(5));
  for (auto& dc : cluster.dcs) dc->LoadInitial("seed", "1");
  cluster.Start();
  auto r = cluster.dcs[1]->ReadSync("seed");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, "1");
  cluster.Stop();
}

}  // namespace
}  // namespace helios::transport
