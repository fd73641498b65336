// heliosd: one Helios datacenter as a standalone daemon.
//
// Wraps transport::LiveDatacenter — the HeliosNode engine on a real-time
// event loop with TCP peering — into the process shape a real deployment
// runs: every datacenter is its own OS process, configured from a shared
// cluster-spec JSON (transport/cluster_spec.h), journaling to its own
// file WAL, and supervised from outside (tools/helios_supervisor.cc or an
// init system).
//
// Startup is crash-consistent: if the WAL named in the spec has contents,
// the node restores from it (truncating a torn tail) *before* the
// listening socket serves anything, then catches the missed log suffix up
// from its peers; clients see "recovering" rejections instead of stale
// data. Shutdown on SIGTERM/SIGINT (or the `quit` command, or stdin EOF)
// is clean: stop serving, fsync the WAL, write the store dump and metrics
// files, exit 0.
//
// Control protocol (one command per stdin line; each answered with
// "ok <cmd>" or "err <reason>" on stdout):
//   partition <peer>   refuse the outbound connection to <peer>
//   heal <peer>        lift the refusal
//   dump <path>        write the deterministic store dump to <path>
//   metrics <path>     write the metrics JSON to <path>
//   quit               clean shutdown
//
// Readiness: "heliosd dc=<i> listening port=<p>" on stdout once the
// socket is bound (and any WAL recovery has completed). In a sharded
// spec (cluster "shards" > 1) each process serves one (dc, shard) cell —
// selected by --dc and --shard, listening on PortOf(dc, shard),
// journaling to WalPathFor(dc, shard), and peering only with its own
// shard plane — and the readiness line gains " shard=<k>".
//
// With --load_rate > 0 the daemon also offers itself open-loop Poisson
// load (blind writes, workload::OpenLoopLoadGen) — the overload and
// chaos harnesses use this to generate traffic without a separate client
// binary; the resulting load stats land in the metrics JSON.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "harness/cli.h"
#include "transport/cluster_spec.h"
#include "transport/live_datacenter.h"
#include "workload/open_loop.h"

namespace {

using helios::Duration;
using helios::Status;
using helios::transport::ClusterSpec;
using helios::transport::LiveDatacenter;
using helios::transport::OverloadStats;
namespace cli = helios::harness::cli;

std::atomic<bool> g_shutdown{false};

void OnSignal(int) { g_shutdown.store(true); }

void InstallSignalHandlers() {
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: interrupt the poll() below.
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

struct LoadResult {
  bool ran = false;
  /// The load thread sets this after filling `stats`; readers (the
  /// `metrics` command can race a still-running load) skip stats until
  /// then.
  std::atomic<bool> done{false};
  helios::workload::OpenLoopStats stats;
};

std::string MetricsJson(int dc, int shard, int shards, LiveDatacenter& node,
                        const LoadResult& load) {
  namespace json = helios::json;
  const OverloadStats overload = node.overload_snapshot();
  const helios::RecoveryStats recovery = node.recovery_snapshot();
  const helios::core::ClockStepStats clock = node.clock_snapshot();

  std::string clock_doc;
  {
    json::ObjectWriter w(&clock_doc);
    w.Field("stepped_us", clock.stepped_us);
    w.Field("steps", clock.steps);
    w.Close();
  }
  std::string overload_doc;
  {
    json::ObjectWriter w(&overload_doc);
    w.Field("admitted", overload.admitted);
    w.Field("inflight", overload.inflight);
    w.Field("queue_depth", overload.queue_depth);
    w.Field("shed", overload.shed);
    w.Close();
  }
  std::string recovery_doc;
  {
    json::ObjectWriter w(&recovery_doc);
    w.Field("catchup_records", recovery.catchup_records);
    w.Field("duration_us", recovery.duration_us);
    w.Field("records_replayed", recovery.records_replayed);
    w.Field("recoveries", recovery.recoveries);
    w.Close();
  }
  std::string transport_doc;
  {
    json::ObjectWriter w(&transport_doc);
    w.Field("messages_received", node.transport().messages_received());
    w.Field("messages_sent", node.transport().messages_sent());
    w.Field("reconnects", node.transport().reconnects());
    w.Field("redial_cooldown_remaining_ms",
            node.transport().redial_cooldown_remaining_ms());
    w.Field("sends_blocked", node.transport().sends_blocked());
    w.Close();
  }
  const helios::transport::HealthSnapshot health = node.health_snapshot();
  std::string health_doc;
  if (health.enabled) {
    json::ObjectWriter w(&health_doc);
    int64_t suspected = 0;
    for (size_t p = 0; p < health.phi.size(); ++p) {
      if (static_cast<int>(p) == dc) continue;
      w.Field(("phi_dc" + std::to_string(p)).c_str(), health.phi[p]);
      suspected += health.suspected[p] ? 1 : 0;
    }
    w.Field("suspected", suspected);
    w.Close();
  }

  const helios::transport::WalStats wal = node.wal_snapshot();
  std::string wal_doc;
  if (wal.enabled) {
    json::ObjectWriter w(&wal_doc);
    w.Field("bytes_written", wal.bytes_written);
    w.Field("entries_appended", wal.entries_appended);
    w.Field("fsync_us_max", wal.fsync_us_max);
    w.Field("fsync_us_total", wal.fsync_us_total);
    w.Field("fsyncs", wal.fsyncs);
    w.Close();
  }

  std::string out;
  json::ObjectWriter w(&out);
  w.Raw("clock", clock_doc);
  w.Field("dc", static_cast<int64_t>(dc));
  if (health.enabled) w.Raw("health", health_doc);
  if (load.ran && load.done.load()) {
    std::string load_doc;
    json::ObjectWriter lw(&load_doc);
    lw.Field("aborted", load.stats.aborted);
    lw.Field("arrivals", load.stats.arrivals);
    lw.Field("busy_rejected", load.stats.busy_rejected);
    lw.Field("committed", load.stats.committed);
    lw.Field("dropped", load.stats.dropped);
    lw.Field("goodput_per_sec", load.stats.goodput_per_sec());
    lw.Field("issued", load.stats.issued);
    lw.Field("latency_p50_ms", load.stats.commit_latency_ms.count() > 0
                                   ? load.stats.commit_latency_ms.Median()
                                   : 0.0);
    lw.Field("latency_p99_ms",
             load.stats.commit_latency_ms.count() > 0
                 ? load.stats.commit_latency_ms.Percentile(99.0)
                 : 0.0);
    lw.Field("retries", load.stats.retries);
    lw.Field("undrained", load.stats.undrained);
    lw.Close();
    w.Raw("load", load_doc);
  }
  w.Raw("overload", overload_doc);
  w.Raw("recovery", recovery_doc);
  if (shards > 1) w.Field("shard", static_cast<int64_t>(shard));
  w.Raw("transport", transport_doc);
  if (wal.enabled) w.Raw("wal", wal_doc);
  w.Close();
  return out;
}

/// Parses "cmd arg" lines; returns false once the daemon should exit.
bool HandleCommand(const std::string& line, LiveDatacenter& node, int dc,
                   int shard, int shards, const LoadResult& load) {
  const size_t space = line.find(' ');
  const std::string cmd = line.substr(0, space);
  const std::string arg =
      space == std::string::npos ? "" : line.substr(space + 1);
  if (cmd == "quit") return false;
  if (cmd == "partition" || cmd == "heal") {
    char* end = nullptr;
    const long peer = std::strtol(arg.c_str(), &end, 10);
    if (end == arg.c_str() || *end != '\0') {
      std::printf("err %s: bad peer '%s'\n", cmd.c_str(), arg.c_str());
    } else {
      node.BlockPeer(static_cast<helios::DcId>(peer), cmd == "partition");
      std::printf("ok %s %ld\n", cmd.c_str(), peer);
    }
  } else if (cmd == "dump") {
    node.SyncWal();
    const Status s = cli::WriteWholeFile(arg, node.DumpStore());
    if (s.ok()) {
      std::printf("ok dump\n");
    } else {
      std::printf("err dump: %s\n", s.message().c_str());
    }
  } else if (cmd == "metrics") {
    const Status s =
        cli::WriteWholeFile(arg, MetricsJson(dc, shard, shards, node, load));
    if (s.ok()) {
      std::printf("ok metrics\n");
    } else {
      std::printf("err metrics: %s\n", s.message().c_str());
    }
  } else {
    std::printf("err unknown command '%s'\n", cmd.c_str());
  }
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  helios::FlagSet flags;
  flags.DefineString("cluster", "", "Cluster spec JSON file (required)");
  flags.DefineInt("dc", -1, "This process's datacenter index (required)");
  flags.DefineInt("shard", 0,
                  "This process's shard index (sharded cluster specs)");
  flags.DefineString("dump_out", "",
                     "Write the store dump here on clean shutdown");
  flags.DefineString("metrics_out", "",
                     "Write the metrics JSON here on clean shutdown");
  flags.DefineDouble("load_rate", 0.0,
                     "Self-offered open-loop load, txn/s (0 = none)");
  flags.DefineDouble("load_duration_s", 1.0,
                     "How long to offer load once started");
  flags.DefineInt("load_retries", 6,
                  "Busy-rejection retry budget for the load generator");
  flags.DefineInt("max_inflight", 0,
                  "Admission control: max in-flight commits (0 = unlimited)");
  flags.DefineInt("queue_watermark", 0,
                  "Admission control: max loop backlog (0 = unlimited)");
  flags.DefineInt("seed", 1, "Load generator seed");
  flags.DefineBool("help", false, "Show usage");
  cli::ParseOrExit(&flags, argc, argv);

  const std::string cluster_path = flags.GetString("cluster");
  const int dc = static_cast<int>(flags.GetInt("dc"));
  if (cluster_path.empty() || dc < 0) {
    std::fprintf(stderr, "--cluster and --dc are required\n%s",
                 flags.Help().c_str());
    return cli::kExitUsage;
  }
  auto text = cli::ReadWholeFile(cluster_path);
  if (!text.ok()) return cli::FailWith(text.status(), cli::kExitUsage);
  auto spec = ClusterSpec::FromJson(text.value());
  if (!spec.ok()) return cli::FailWith(spec.status(), cli::kExitUsage);
  const Status valid = spec.value().Validate();
  if (!valid.ok()) return cli::FailWith(valid, cli::kExitUsage);
  if (dc >= spec.value().num_datacenters()) {
    std::fprintf(stderr, "--dc %d out of range (spec has %d datacenters)\n",
                 dc, spec.value().num_datacenters());
    return cli::kExitUsage;
  }
  const int shard = static_cast<int>(flags.GetInt("shard"));
  if (shard < 0 || shard >= spec.value().shards) {
    std::fprintf(stderr, "--shard %d out of range (spec has %d shard%s)\n",
                 shard, spec.value().shards,
                 spec.value().shards == 1 ? "" : "s");
    return cli::kExitUsage;
  }
  const ClusterSpec& cluster = spec.value();

  InstallSignalHandlers();

  LiveDatacenter node(static_cast<helios::DcId>(dc), cluster.MakeConfig(),
                      cluster.inbound_delay);
  helios::transport::AdmissionConfig admission;
  admission.max_inflight =
      static_cast<uint64_t>(flags.GetInt("max_inflight"));
  admission.queue_watermark =
      static_cast<uint64_t>(flags.GetInt("queue_watermark"));
  node.SetAdmissionControl(admission);

  // Recover-then-serve: the WAL replay happens before the socket exists,
  // so no peer or client ever observes pre-crash state. In a sharded
  // spec each (dc, shard) cell journals to its own derived WAL path.
  const std::string wal_path = cluster.WalPathFor(dc, shard);
  if (!wal_path.empty()) {
    const Status s = node.EnableWal(wal_path, cluster.wal_options);
    if (!s.ok()) return cli::FailWith(s, cli::kExitFailure);
  }

  Status s = node.Listen(cluster.PortOf(dc, shard));
  if (!s.ok()) return cli::FailWith(s, cli::kExitFailure);
  if (cluster.shards > 1) {
    std::printf("heliosd dc=%d listening port=%u shard=%d\n", dc,
                node.port(), shard);
  } else {
    std::printf("heliosd dc=%d listening port=%u\n", dc, node.port());
  }
  std::fflush(stdout);

  // Peers are the same shard plane at every other datacenter: shard
  // planes are independent live Helios clusters and never interconnect.
  s = node.ConnectPeers(cluster.ports(shard));
  if (!s.ok()) return cli::FailWith(s, cli::kExitFailure);
  node.Start();

  // Self-offered load (for the overload / chaos harnesses).
  LoadResult load;
  std::thread load_thread;
  if (flags.GetDouble("load_rate") > 0.0) {
    helios::workload::OpenLoopOptions opts;
    opts.rate_per_sec = flags.GetDouble("load_rate");
    opts.duration = std::chrono::milliseconds(
        static_cast<int64_t>(flags.GetDouble("load_duration_s") * 1000.0));
    opts.seed = static_cast<uint64_t>(flags.GetInt("seed")) +
                static_cast<uint64_t>(dc + shard * cluster.num_datacenters()) *
                    0x9E3779B97F4A7C15ULL;
    opts.backoff.max_retries =
        static_cast<int>(flags.GetInt("load_retries"));
    load.ran = true;
    load_thread = std::thread([&node, &load, opts]() {
      helios::workload::OpenLoopLoadGen gen(
          opts, [&node](std::vector<helios::WriteEntry> writes,
                        helios::CommitCallback done) {
            node.Commit({}, std::move(writes), std::move(done));
          });
      load.stats = gen.Run();
      load.done.store(true);
    });
  }

  // Command loop: poll stdin so SIGTERM (no SA_RESTART) interrupts the
  // wait instead of leaving the daemon parked in a blocking read.
  std::string buffer;
  bool run = true;
  while (run && !g_shutdown.load()) {
    struct pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) continue;  // EINTR: loop re-checks g_shutdown.
    if (ready == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n <= 0) break;  // Supervisor went away: clean shutdown.
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while (run && (nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty()) {
        run = HandleCommand(line, node, dc, shard, cluster.shards, load);
      }
    }
  }

  if (load_thread.joinable()) load_thread.join();
  node.Stop();  // Syncs the WAL.
  const std::string dump_out = flags.GetString("dump_out");
  if (!dump_out.empty()) {
    (void)cli::WriteWholeFile(dump_out, node.DumpStore());
  }
  const std::string metrics_out = flags.GetString("metrics_out");
  if (!metrics_out.empty()) {
    (void)cli::WriteWholeFile(
        metrics_out, MetricsJson(dc, shard, cluster.shards, node, load));
  }
  std::printf("heliosd dc=%d exiting\n", dc);
  return cli::kExitOk;
}
