// Live-cluster integration tests (ctest label "live", serial): real
// heliosd processes on fixed loopback ports driven by helios_supervisor,
// plus in-process overload tests against a pair of LiveDatacenters.
//
// These fork whole daemons, SIGKILL them mid-load, and measure wall-clock
// throughput — deliberately not tier1. CI runs them in the dedicated
// live-smoke job (`ctest -L live`).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/helios_config.h"
#include "json_check.h"
#include "transport/cluster_spec.h"
#include "transport/live_datacenter.h"
#include "workload/open_loop.h"

namespace helios {
namespace {

/// A test's scratch directory, removed when the test passed. A failed test
/// keeps it: its messages point there, and CI uploads /tmp/helios_live_*
/// on failure.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "/helios_live_" + tag + "_" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    if (::testing::Test::HasFailure()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

int RunCommand(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status < 0) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

// --- Supervised chaos: SIGKILL + relaunch + partition, must converge ------

TEST(LiveClusterTest, SupervisedKillRestartConverges) {
  const ScratchDir scratch("chaos");
  const std::string& dir = scratch.path();
  const std::string cluster_path = dir + "/cluster.json";
  const std::string plan_path = dir + "/plan.json";

  transport::ClusterSpec spec;
  spec.datacenters = {{7441, dir + "/dc0.wal"},
                      {7442, dir + "/dc1.wal"},
                      {7443, dir + "/dc2.wal"}};
  spec.grace_time = Millis(2000);
  spec.log_interval = Millis(5);
  spec.wal_options.policy = wal::SyncPolicy::kGroupCommit;
  ASSERT_TRUE(spec.Validate().ok());
  WriteFileOrDie(cluster_path, spec.ToJson());

  // 2s of load. At 0.6s DC 1 dies (SIGKILL: no shutdown path runs); at
  // 0.7s the 0<->2 link partitions and heals at 1.2s; at 1.4s DC 1
  // relaunches, replays its WAL, and catches up from the survivors.
  WriteFileOrDie(plan_path,
                 "{\"node_events\":["
                 "{\"at_us\":600000,\"node\":1,\"up\":false},"
                 "{\"at_us\":1400000,\"node\":1,\"up\":true}],"
                 "\"partition_events\":["
                 "{\"at_us\":700000,\"a\":0,\"b\":2,\"partitioned\":true},"
                 "{\"at_us\":1200000,\"a\":0,\"b\":2,\"partitioned\":false}"
                 "]}");

  const std::string cmd = std::string(HELIOS_SUPERVISOR_BIN) +
                          " --cluster=" + cluster_path +
                          " --plan=" + plan_path +
                          " --heliosd=" HELIOS_HELIOSD_BIN
                          " --out_dir=" + dir +
                          " --load_rate=150 --load_duration_s=2"
                          " --settle_s=4 --seed=11";
  EXPECT_EQ(RunCommand(cmd), 0)
      << "supervisor reported divergence or a crashed daemon; artifacts in "
      << dir;
}

// --- Clock discipline: daemons launched a second apart still commit fast ---

/// The number after `"key":` in a metrics document (MetricsSnapshot::
/// ToJson(), one line per metric), or -1.
double JsonNumber(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(LiveClusterTest, RelaunchedDaemonsClockDoesNotHoldCommitsBack) {
  // heliosd starts its loop, and with it its clock, once every peer
  // listens, so daemons launched apart start their clocks together. A
  // daemon relaunched from its WAL cannot: its new clock starts at zero,
  // below the promises it restored, and without the discipline every
  // commit at its peers would wait out the gap (seconds).
  const ScratchDir scratch("clock");
  const std::string& dir = scratch.path();
  const std::string cluster_path = dir + "/cluster.json";
  transport::ClusterSpec spec;
  spec.datacenters = {{7451, dir + "/dc0.wal"},
                      {7452, dir + "/dc1.wal"},
                      {7453, dir + "/dc2.wal"}};
  spec.grace_time = Millis(2000);
  spec.log_interval = Millis(5);
  spec.inbound_delay = Millis(20);
  spec.wal_options.policy = wal::SyncPolicy::kGroupCommit;
  ASSERT_TRUE(spec.Validate().ok());
  WriteFileOrDie(cluster_path, spec.ToJson());

  // A daemon leaves on stdin EOF (or, for dc1's first life, SIGKILL at
  // 2 s) and writes its metrics on the way out. dc0 offers itself 9 s of
  // load from launch; dc1 is relaunched at about 3 s.
  const auto launch = [&](int dc, const std::string& life,
                          const std::string& extra) {
    const std::string cmd =
        "(" + life + " " HELIOS_HELIOSD_BIN " --cluster=" + cluster_path +
        " --dc=" + std::to_string(dc) + " --metrics_out=" + dir + "/m" +
        std::to_string(dc) + ".json" + extra + ") >> " + dir + "/d" +
        std::to_string(dc) + ".log 2>&1 &";
    ASSERT_EQ(RunCommand(cmd), 0);
  };
  launch(0, "sleep 12 |", " --load_rate=100 --load_duration_s=9");
  launch(1, "sleep 3 | timeout -s KILL 2", "");
  launch(2, "sleep 12 |", "");
  ::sleep(3);
  launch(1, "sleep 9 |", "");

  std::string m[3];
  for (int waited = 0; waited < 40; ++waited) {
    ::sleep(1);
    bool all = true;
    for (int dc = 0; dc < 3; ++dc) {
      m[dc] = ReadFileOrEmpty(dir + "/m" + std::to_string(dc) + ".json");
      all = all && !m[dc].empty();
    }
    if (all) break;
  }
  ASSERT_FALSE(m[0].empty()) << "dc0 wrote no metrics; see " << dir;
  ASSERT_FALSE(m[1].empty()) << "dc1 wrote no metrics; see " << dir;
  for (int dc = 0; dc < 3; ++dc) {
    if (m[dc].empty()) continue;
    testing::JsonChecker checker(m[dc]);
    EXPECT_TRUE(checker.Valid())
        << "dc" << dc << " metrics invalid at byte " << checker.error_pos();
  }
  // Most of dc0's commits come after the relaunch. Helios-B waits one
  // apparent one-way delay (20 ms) plus ticks.
  const double p50 = JsonNumber(m[0], "load.latency_p50_ms");
  EXPECT_GT(p50, 0.0) << m[0];
  EXPECT_LT(p50, 20.0 + 5 * 5.0) << m[0];
  // dc1's second life stepped up to its restored floor and then over
  // the downtime; dc0 never chased it.
  EXPECT_EQ(JsonNumber(m[1], "recovery.recoveries"), 1.0) << m[1];
  EXPECT_GT(JsonNumber(m[1], "clock.stepped_us"), 2e6) << m[1];
  EXPECT_LT(JsonNumber(m[0], "clock.stepped_us"), 1e4) << m[0];
  // Group commit: dc0's syncer fsynced its journal while it took load.
  EXPECT_GT(JsonNumber(m[0], "wal.fsyncs"), 0.0) << m[0];
  EXPECT_GT(JsonNumber(m[0], "wal.entries_appended"), 0.0) << m[0];
}

// --- Overload: graceful degradation under far-beyond-capacity load --------

// A live node's service time is its real CPU time, so one node alone
// decides a commit in microseconds and no offered rate fills an admission
// budget. Real latency does: two Helios-B datacenters 10 ms apart (each
// one's inbound delay), with every commit at dc 0 waiting for dc 1's
// knowledge, hold each admitted transaction for about 10 ms plus ticks.
constexpr Duration kOverloadInboundDelay = Millis(10);

core::HeliosConfig PairConfig() {
  core::HeliosConfig config;
  config.num_datacenters = 2;
  config.log_interval = Millis(5);
  config.grace_time = Millis(1000);
  return config;
}

workload::OpenLoopStats OfferLoad(double rate_per_sec, int duration_ms,
                                  uint64_t max_inflight) {
  std::vector<std::unique_ptr<transport::LiveDatacenter>> dcs;
  std::vector<uint16_t> ports;
  for (DcId id = 0; id < 2; ++id) {
    dcs.push_back(std::make_unique<transport::LiveDatacenter>(
        id, PairConfig(), kOverloadInboundDelay));
    EXPECT_TRUE(dcs.back()->Listen(0).ok());
    ports.push_back(dcs.back()->port());
  }
  transport::LiveDatacenter& dc = *dcs[0];
  transport::AdmissionConfig admission;
  admission.max_inflight = max_inflight;
  dc.SetAdmissionControl(admission);
  for (auto& node : dcs) EXPECT_TRUE(node->ConnectPeers(ports).ok());
  for (auto& node : dcs) node->Start();

  workload::OpenLoopOptions opts;
  opts.rate_per_sec = rate_per_sec;
  opts.duration = std::chrono::milliseconds(duration_ms);
  opts.seed = 42;
  opts.backoff.max_retries = 4;
  workload::OpenLoopLoadGen gen(
      opts, [&dc](std::vector<WriteEntry> writes, CommitCallback done) {
        dc.Commit({}, std::move(writes), std::move(done));
      });
  workload::OpenLoopStats stats = gen.Run();

  const transport::OverloadStats overload = dc.overload_snapshot();
  if (max_inflight > 0) {
    EXPECT_EQ(overload.admitted + overload.shed, stats.issued)
        << "every issue is either admitted or shed";
    // The generator's busy count is the server's shed count.
    EXPECT_EQ(overload.shed, stats.busy_rejected);
  }
  for (auto& node : dcs) node->Stop();
  return stats;
}

TEST(LiveClusterTest, OverloadShedsInsteadOfCollapsing) {
  // Moderate load: everything admitted, nothing shed.
  const workload::OpenLoopStats calm = OfferLoad(
      /*rate_per_sec=*/60, /*duration_ms=*/1200, /*max_inflight=*/32);
  EXPECT_GT(calm.committed, 0u);
  EXPECT_EQ(calm.busy_rejected, 0u);

  // Far-beyond-capacity load against the same admission budget: the
  // server must shed (BUSY) rather than queue without bound, keep
  // admitted latency bounded, and keep goodput at least at the calm
  // level — the knee flattens, it does not collapse.
  const workload::OpenLoopStats storm = OfferLoad(
      /*rate_per_sec=*/4000, /*duration_ms=*/1500, /*max_inflight=*/32);
  EXPECT_GT(storm.busy_rejected, 0u) << "overload never tripped admission";
  EXPECT_GT(storm.committed, 0u);
  EXPECT_GE(storm.goodput_per_sec(), 0.8 * calm.goodput_per_sec())
      << "goodput collapsed under overload: storm="
      << storm.goodput_per_sec() << "/s calm=" << calm.goodput_per_sec()
      << "/s";
  ASSERT_GT(storm.commit_latency_ms.count(), 0u);
  // Admitted work rides a bounded queue: p99 stays within the same order
  // as the uncontended commit path (seconds would mean unbounded queue).
  EXPECT_LT(storm.commit_latency_ms.Percentile(99.0), 1000.0);
  // Retry storms are bounded: every arrival reached a terminal state.
  EXPECT_EQ(storm.undrained, 0u);
  EXPECT_EQ(storm.committed + storm.aborted + storm.dropped,
            storm.arrivals);
}

TEST(LiveClusterTest, AdmissionDisabledNeverSheds) {
  const workload::OpenLoopStats stats = OfferLoad(
      /*rate_per_sec=*/100, /*duration_ms=*/600, /*max_inflight=*/0);
  EXPECT_GT(stats.committed, 0u);
  EXPECT_EQ(stats.busy_rejected, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

}  // namespace
}  // namespace helios
