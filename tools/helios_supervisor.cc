// helios_supervisor: crash-restart supervisor and chaos driver for a live
// heliosd cluster.
//
// Launches one heliosd child process per (datacenter, shard) cell in the
// cluster spec (loopback TCP, per-cell file WALs; an unsharded spec is
// the classic one-child-per-DC layout), lets the daemons offer themselves
// open-loop load, and executes a sim::FaultPlan's timed events against
// real processes — the same JSON schema the deterministic simulator's
// chaos harness runs, reinterpreted on the wall clock. Plan node indices
// address whole datacenters: in a sharded cluster every shard child of
// the named DC is killed / relaunched / stalled / partitioned together
// (shards are not individually addressable, matching the simulator):
//
//   node_events:      up=false -> SIGKILL the child (true amnesia crash);
//                     up=true  -> relaunch it (WAL recovery + catch-up).
//   partition_events: administratively refuse the TCP connection in both
//                     directions, via the `partition`/`heal` stdin
//                     commands of both endpoint daemons.
//   gray_faults:      process_stall -> SIGSTOP the child for the window,
//                     SIGCONT at its end (a real "alive but frozen" fault:
//                     the kernel keeps its sockets open, peers see silence,
//                     not a reset). asym_partition -> the `partition` stdin
//                     command at the *a* endpoint only, so a->b dies while
//                     b->a keeps flowing (the half-open link). slow_link /
//                     fsync_stall cannot be modeled from outside a process
//                     and are rejected at load time, as are wildcard
//                     endpoints and unbounded windows.
//   link_faults:      not supported live (a kernel can't be asked to lose
//                     5% of loopback packets per-flow from here); rejected
//                     at load time.
//
// After the load window plus a settle period, every surviving daemon is
// asked to `quit` cleanly; the supervisor then diffs the store dumps of
// all survivors pairwise within each shard plane (the planes are
// independent Helios clusters holding disjoint data, so only same-shard
// dumps must be identical — the log replicates values, timestamps, and
// writer ids deterministically) and, for every child that was killed and
// relaunched, asserts its metrics JSON shows a nonzero `recovery.*` (WAL
// records replayed and a completed catch-up). Exit 0 on convergence, 1
// on any divergence, crash, or missing recovery.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "harness/cli.h"
#include "sim/fault_plan.h"
#include "transport/cluster_spec.h"

namespace {

using helios::Status;
using helios::transport::ClusterSpec;
namespace cli = helios::harness::cli;

using Clock = std::chrono::steady_clock;

struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< Command pipe into the daemon.
  int stdout_fd = -1;  ///< Readiness / ack stream out of it.
  std::string pending;  ///< Partial line buffered from stdout_fd.
  bool running = false;
  bool was_killed = false;     ///< SIGKILLed by the plan at least once.
  bool was_relaunched = false; ///< Relaunched after a kill.
  std::string dump_path;
  std::string metrics_path;
};

/// Reads one '\n'-terminated line from the child's stdout, waiting up to
/// `timeout_ms`. Returns false on EOF/timeout.
bool ReadLine(Child* child, int timeout_ms, std::string* line) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const size_t nl = child->pending.find('\n');
    if (nl != std::string::npos) {
      *line = child->pending.substr(0, nl);
      child->pending.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    struct pollfd pfd{child->stdout_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) return false;
      continue;
    }
    char chunk[512];
    const ssize_t n = ::read(child->stdout_fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    child->pending.append(chunk, static_cast<size_t>(n));
  }
}

void CloseChildFds(Child* child) {
  if (child->stdin_fd >= 0) ::close(child->stdin_fd);
  if (child->stdout_fd >= 0) ::close(child->stdout_fd);
  child->stdin_fd = -1;
  child->stdout_fd = -1;
}

void SendCommand(Child* child, const std::string& cmd) {
  if (!child->running || child->stdin_fd < 0) return;
  // A child that died behind our back (crash, OOM kill) leaves a pipe
  // that would take the write and drop it on the floor — or SIGPIPE a
  // supervisor that forgot to ignore it. Reap-check first so the failure
  // is a crisp message instead of a silently ignored command. WNOHANG
  // returns 0 for a merely SIGSTOPped child, so stalled daemons still
  // queue commands for when they thaw.
  int status = 0;
  const pid_t reaped = ::waitpid(child->pid, &status, WNOHANG);
  if (reaped == child->pid) {
    std::fprintf(stderr,
                 "supervisor: child pid %d died unexpectedly (status %d); "
                 "dropping command '%s'\n",
                 static_cast<int>(child->pid), status, cmd.c_str());
    CloseChildFds(child);
    child->running = false;
    return;
  }
  const std::string line = cmd + "\n";
  (void)!::write(child->stdin_fd, line.data(), line.size());
}

struct LaunchOptions {
  std::string heliosd;
  std::string cluster_path;
  std::string out_dir;
  double load_rate = 0.0;
  double load_duration_s = 0.0;
  int64_t max_inflight = 0;
  int64_t queue_watermark = 0;
  int64_t seed = 1;
  int shards = 1;  ///< From the cluster spec; > 1 adds --shard per child.
};

bool Launch(const LaunchOptions& opts, int dc, int shard, bool with_load,
            Child* child) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<std::string> args = {
        opts.heliosd,
        "--cluster=" + opts.cluster_path,
        "--dc=" + std::to_string(dc),
        "--dump_out=" + child->dump_path,
        "--metrics_out=" + child->metrics_path,
        "--max_inflight=" + std::to_string(opts.max_inflight),
        "--queue_watermark=" + std::to_string(opts.queue_watermark),
        "--seed=" + std::to_string(opts.seed),
    };
    if (opts.shards > 1) {
      args.push_back("--shard=" + std::to_string(shard));
    }
    if (with_load && opts.load_rate > 0.0) {
      args.push_back("--load_rate=" + std::to_string(opts.load_rate));
      args.push_back("--load_duration_s=" +
                     std::to_string(opts.load_duration_s));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(opts.heliosd.c_str(), argv.data());
    std::perror("execv heliosd");
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  child->pid = pid;
  child->stdin_fd = to_child[1];
  child->stdout_fd = from_child[0];
  child->pending.clear();
  child->running = true;

  // Readiness: the daemon prints its listening line only after any WAL
  // recovery completed and the socket is bound.
  std::string line;
  if (!ReadLine(child, /*timeout_ms=*/10000, &line) ||
      line.find("listening") == std::string::npos) {
    if (opts.shards > 1) {
      std::fprintf(stderr,
                   "supervisor: dc %d shard %d failed to become ready\n", dc,
                   shard);
    } else {
      std::fprintf(stderr, "supervisor: dc %d failed to become ready\n", dc);
    }
    return false;
  }
  return true;
}

void KillChild(Child* child) {
  if (!child->running) return;
  ::kill(child->pid, SIGKILL);
  int status = 0;
  ::waitpid(child->pid, &status, 0);
  CloseChildFds(child);
  child->running = false;
  child->was_killed = true;
}

/// Waits for a clean exit; returns false on crash / nonzero status.
bool WaitClean(Child* child, int dc) {
  if (!child->running) return true;
  int status = 0;
  ::waitpid(child->pid, &status, 0);
  CloseChildFds(child);
  child->running = false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "supervisor: dc %d exited abnormally (status %d)\n",
                 dc, status);
    return false;
  }
  return true;
}

/// Pulls the recovery.recoveries and recovery.records_replayed counters
/// out of a heliosd metrics document (MetricsSnapshot::ToJson()).
bool ReadRecoveryCounters(const std::string& path, uint64_t* recoveries,
                          uint64_t* records_replayed) {
  auto text = cli::ReadWholeFile(path);
  if (!text.ok()) return false;
  auto parsed = helios::json::Parse(text.value());
  if (!parsed.ok()) return false;
  for (const auto& [key, value] : parsed.value().members) {
    if (key != "counters") continue;
    for (const auto& [name, counter] : value.members) {
      if (name == "recovery.recoveries") {
        (void)helios::json::ReadUint64(name, counter, recoveries);
      } else if (name == "recovery.records_replayed") {
        (void)helios::json::ReadUint64(name, counter, records_replayed);
      }
    }
    return true;
  }
  return false;
}

/// First line where the two dumps differ, for the failure report.
std::string FirstDiff(const std::string& a, const std::string& b) {
  size_t pos_a = 0;
  size_t pos_b = 0;
  int line_no = 1;
  while (pos_a < a.size() || pos_b < b.size()) {
    const size_t nl_a = a.find('\n', pos_a);
    const size_t nl_b = b.find('\n', pos_b);
    const std::string line_a =
        a.substr(pos_a, nl_a == std::string::npos ? std::string::npos
                                                  : nl_a - pos_a);
    const std::string line_b =
        b.substr(pos_b, nl_b == std::string::npos ? std::string::npos
                                                  : nl_b - pos_b);
    if (line_a != line_b) {
      return "line " + std::to_string(line_no) + ": '" + line_a +
             "' vs '" + line_b + "'";
    }
    if (nl_a == std::string::npos || nl_b == std::string::npos) break;
    pos_a = nl_a + 1;
    pos_b = nl_b + 1;
    ++line_no;
  }
  return "identical";
}

}  // namespace

int main(int argc, char** argv) {
  helios::FlagSet flags;
  flags.DefineString("cluster", "", "Cluster spec JSON file (required)");
  flags.DefineString("heliosd", "./heliosd", "Path to the heliosd binary");
  flags.DefineString("plan", "",
                     "FaultPlan JSON of timed kill/relaunch/partition "
                     "events (times are microseconds after load start)");
  flags.DefineString("out_dir", "/tmp",
                     "Directory for per-DC dump and metrics files");
  flags.DefineDouble("load_rate", 200.0,
                     "Per-DC self-offered load, txn/s (0 = none)");
  flags.DefineDouble("load_duration_s", 2.0, "Load window length");
  flags.DefineDouble("settle_s", 2.0,
                     "Post-load convergence wait before quiescing");
  flags.DefineInt("max_inflight", 0, "heliosd admission: max in-flight");
  flags.DefineInt("queue_watermark", 0, "heliosd admission: loop backlog");
  flags.DefineInt("seed", 1, "Load seed");
  flags.DefineBool("help", false, "Show usage");
  cli::ParseOrExit(&flags, argc, argv);

  const std::string cluster_path = flags.GetString("cluster");
  if (cluster_path.empty()) {
    std::fprintf(stderr, "--cluster is required\n%s", flags.Help().c_str());
    return cli::kExitUsage;
  }
  auto text = cli::ReadWholeFile(cluster_path);
  if (!text.ok()) return cli::FailWith(text.status(), cli::kExitUsage);
  auto spec = ClusterSpec::FromJson(text.value());
  if (!spec.ok()) return cli::FailWith(spec.status(), cli::kExitUsage);
  Status valid = spec.value().Validate();
  if (!valid.ok()) return cli::FailWith(valid, cli::kExitUsage);
  const ClusterSpec& cluster = spec.value();
  const int n = cluster.num_datacenters();

  // The chaos schedule, reusing the simulator's declarative plan format.
  helios::sim::FaultPlan plan;
  if (!flags.GetString("plan").empty()) {
    auto plan_text = cli::ReadWholeFile(flags.GetString("plan"));
    if (!plan_text.ok()) {
      return cli::FailWith(plan_text.status(), cli::kExitUsage);
    }
    auto parsed = helios::sim::FaultPlan::FromJson(plan_text.value());
    if (!parsed.ok()) return cli::FailWith(parsed.status(), cli::kExitUsage);
    plan = parsed.value();
    valid = plan.Validate(n);
    if (!valid.ok()) return cli::FailWith(valid, cli::kExitUsage);
    if (plan.HasMessageFaults()) {
      return cli::FailWith(
          Status::InvalidArgument(
              "link_faults are not supported against live processes; use "
              "node_events / partition_events"),
          cli::kExitUsage);
    }
    for (const helios::sim::GrayFault& g : plan.gray_faults) {
      // Stalls and half-open links map onto real processes (SIGSTOP /
      // one-sided refusal); in-flight latency scaling and storage
      // slowness do not — they live inside the victim, which this
      // supervisor only controls from outside.
      if (g.kind == helios::sim::GrayFaultKind::kSlowLink ||
          g.kind == helios::sim::GrayFaultKind::kFsyncStall) {
        return cli::FailWith(
            Status::InvalidArgument(
                std::string("gray fault kind '") +
                helios::sim::GrayFaultKindName(g.kind) +
                "' is not supported against live processes; use "
                "process_stall / asym_partition"),
            cli::kExitUsage);
      }
      if (g.a == helios::sim::kAnyDc ||
          (g.kind == helios::sim::GrayFaultKind::kAsymPartition &&
           g.b == helios::sim::kAnyDc)) {
        return cli::FailWith(
            Status::InvalidArgument(
                "gray faults need concrete endpoints live (no wildcards)"),
            cli::kExitUsage);
      }
      if (g.active_until >= helios::sim::kMaxSimTime) {
        return cli::FailWith(
            Status::InvalidArgument(
                "gray faults need a finite window live (a daemon left "
                "SIGSTOPped forever would wedge the convergence check)"),
            cli::kExitUsage);
      }
    }
  }

  // One time-ordered stream of plan events. Window-shaped gray faults
  // unroll into a start and an end edge.
  enum class EventKind { kNode, kPartition, kGrayStart, kGrayEnd };
  struct TimedEvent {
    helios::sim::SimTime at = 0;
    EventKind kind = EventKind::kNode;
    helios::sim::NodeEvent node;
    helios::sim::PartitionEvent partition;
    helios::sim::GrayFault gray;
  };
  std::vector<TimedEvent> events;
  for (const auto& e : plan.node_events) {
    TimedEvent t;
    t.at = e.at;
    t.kind = EventKind::kNode;
    t.node = e;
    events.push_back(t);
  }
  for (const auto& e : plan.partition_events) {
    TimedEvent t;
    t.at = e.at;
    t.kind = EventKind::kPartition;
    t.partition = e;
    events.push_back(t);
  }
  for (const auto& g : plan.gray_faults) {
    TimedEvent start;
    start.at = g.active_from;
    start.kind = EventKind::kGrayStart;
    start.gray = g;
    events.push_back(start);
    TimedEvent end;
    end.at = g.active_until;
    end.kind = EventKind::kGrayEnd;
    end.gray = g;
    events.push_back(end);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimedEvent& a, const TimedEvent& b) {
                     return a.at < b.at;
                   });

  LaunchOptions opts;
  opts.heliosd = flags.GetString("heliosd");
  opts.cluster_path = cluster_path;
  opts.out_dir = flags.GetString("out_dir");
  opts.load_rate = flags.GetDouble("load_rate");
  opts.load_duration_s = flags.GetDouble("load_duration_s");
  opts.max_inflight = flags.GetInt("max_inflight");
  opts.queue_watermark = flags.GetInt("queue_watermark");
  opts.seed = flags.GetInt("seed");
  opts.shards = cluster.shards;
  const int shards = cluster.shards;

  ::signal(SIGPIPE, SIG_IGN);

  // One child per (dc, shard) cell, dc-major. Unsharded output file
  // names stay exactly as before (dc0.dump, not dc0.s0.dump).
  const auto child_index = [shards](int dc, int s) {
    return static_cast<size_t>(dc * shards + s);
  };
  std::vector<Child> children(static_cast<size_t>(n * shards));
  for (int dc = 0; dc < n; ++dc) {
    for (int s = 0; s < shards; ++s) {
      Child& child = children[child_index(dc, s)];
      const std::string stem =
          opts.out_dir + "/dc" + std::to_string(dc) +
          (shards > 1 ? ".s" + std::to_string(s) : "");
      child.dump_path = stem + ".dump";
      child.metrics_path = stem + ".metrics.json";
      if (!Launch(opts, dc, s, /*with_load=*/true, &child)) {
        for (Child& c : children) KillChild(&c);
        return cli::kExitFailure;
      }
    }
  }
  std::printf("supervisor: %d daemons up, load %.0f txn/s for %.1fs\n",
              n * shards, opts.load_rate, opts.load_duration_s);

  const Clock::time_point t0 = Clock::now();
  for (const TimedEvent& event : events) {
    std::this_thread::sleep_until(t0 + std::chrono::microseconds(event.at));
    if (event.kind == EventKind::kNode) {
      // Plan node indices address whole datacenters; every shard child
      // of the DC shares its fate (a machine crash takes all its
      // colocated shard daemons with it).
      if (!event.node.up) {
        std::printf("supervisor: SIGKILL dc %d at t=%.2fs\n",
                    event.node.node,
                    static_cast<double>(event.at) / 1e6);
        for (int s = 0; s < shards; ++s) {
          KillChild(&children[child_index(event.node.node, s)]);
        }
      } else {
        std::printf("supervisor: relaunch dc %d at t=%.2fs\n",
                    event.node.node,
                    static_cast<double>(event.at) / 1e6);
        // Relaunched daemons offer no load of their own: the survivors
        // keep the cluster busy while this one recovers.
        for (int s = 0; s < shards; ++s) {
          Child& child = children[child_index(event.node.node, s)];
          if (!Launch(opts, event.node.node, s, /*with_load=*/false,
                      &child)) {
            for (Child& c : children) KillChild(&c);
            return cli::kExitFailure;
          }
          child.was_relaunched = true;
        }
      }
    } else if (event.kind == EventKind::kPartition) {
      const int a = event.partition.a;
      const int b = event.partition.b;
      const char* verb = event.partition.partitioned ? "partition" : "heal";
      std::printf("supervisor: %s %d <-> %d at t=%.2fs\n", verb, a, b,
                  static_cast<double>(event.at) / 1e6);
      // Outbound refusal at both endpoints = a full bidirectional cut,
      // applied on every shard plane (the link between two sites carries
      // all of their planes).
      for (int s = 0; s < shards; ++s) {
        SendCommand(&children[child_index(a, s)],
                    std::string(verb) + " " + std::to_string(b));
        SendCommand(&children[child_index(b, s)],
                    std::string(verb) + " " + std::to_string(a));
      }
    } else if (event.gray.kind ==
               helios::sim::GrayFaultKind::kProcessStall) {
      const bool start = event.kind == EventKind::kGrayStart;
      std::printf("supervisor: %s dc %d at t=%.2fs\n",
                  start ? "SIGSTOP" : "SIGCONT", event.gray.a,
                  static_cast<double>(event.at) / 1e6);
      // A frozen-not-dead process: the kernel keeps its listening socket
      // and peer connections open, so from outside the daemon is silent
      // yet every probe still connects — the textbook gray failure.
      for (int s = 0; s < shards; ++s) {
        Child& child = children[child_index(event.gray.a, s)];
        if (child.running) {
          ::kill(child.pid, start ? SIGSTOP : SIGCONT);
        }
      }
    } else if (event.gray.kind ==
               helios::sim::GrayFaultKind::kAsymPartition) {
      const bool start = event.kind == EventKind::kGrayStart;
      const char* verb = start ? "partition" : "heal";
      std::printf("supervisor: %s %d -> %d (one-way) at t=%.2fs\n", verb,
                  event.gray.a, event.gray.b,
                  static_cast<double>(event.at) / 1e6);
      // Refusal at the *a* endpoint only: a->b messages die while b->a
      // still flows, the half-open link a bidirectional cut can't model.
      for (int s = 0; s < shards; ++s) {
        SendCommand(&children[child_index(event.gray.a, s)],
                    std::string(verb) + " " + std::to_string(event.gray.b));
      }
    }
  }

  // Let the load window finish, then give replication and catch-up time
  // to quiesce before comparing stores.
  const auto settle_end =
      t0 +
      std::chrono::milliseconds(
          static_cast<int64_t>((opts.load_duration_s +
                                flags.GetDouble("settle_s")) *
                               1000.0));
  std::this_thread::sleep_until(settle_end);

  bool ok = true;
  for (Child& child : children) SendCommand(&child, "quit");
  for (int dc = 0; dc < n; ++dc) {
    for (int s = 0; s < shards; ++s) {
      if (!WaitClean(&children[child_index(dc, s)], dc)) ok = false;
    }
  }

  // Convergence: within each shard plane, every daemon alive at the end
  // must dump an identical store (values, commit timestamps, and writer
  // ids all replicate). Planes hold disjoint data and are never compared
  // against each other.
  size_t total_survivors = 0;
  for (int s = 0; s < shards; ++s) {
    std::vector<int> survivors;
    for (int dc = 0; dc < n; ++dc) {
      const Child& child = children[child_index(dc, s)];
      if (child.was_killed && !child.was_relaunched) continue;  // Down.
      survivors.push_back(dc);
    }
    total_survivors += survivors.size();
    std::map<int, std::string> dumps;
    for (int dc : survivors) {
      auto dump = cli::ReadWholeFile(children[child_index(dc, s)].dump_path);
      if (!dump.ok()) {
        std::fprintf(stderr, "supervisor: missing dump for dc %d shard %d\n",
                     dc, s);
        ok = false;
        continue;
      }
      dumps[dc] = dump.value();
    }
    for (size_t i = 1; i < survivors.size(); ++i) {
      const int a = survivors[0];
      const int b = survivors[i];
      if (dumps.count(a) == 0 || dumps.count(b) == 0) continue;
      if (dumps[a] != dumps[b]) {
        std::fprintf(
            stderr,
            "supervisor: store divergence dc %d vs dc %d (shard %d): %s\n",
            a, b, s, FirstDiff(dumps[a], dumps[b]).c_str());
        ok = false;
      }
    }
  }

  // Every relaunched child must show real recovery work.
  for (int dc = 0; dc < n; ++dc) {
    for (int s = 0; s < shards; ++s) {
      const Child& child = children[child_index(dc, s)];
      if (!child.was_relaunched) continue;
      const std::string who =
          "dc " + std::to_string(dc) +
          (shards > 1 ? " shard " + std::to_string(s) : "");
      uint64_t recoveries = 0;
      uint64_t replayed = 0;
      if (!ReadRecoveryCounters(child.metrics_path, &recoveries,
                                &replayed)) {
        std::fprintf(stderr, "supervisor: no metrics for relaunched %s\n",
                     who.c_str());
        ok = false;
        continue;
      }
      if (recoveries == 0 || replayed == 0) {
        std::fprintf(stderr,
                     "supervisor: %s relaunched but recovery.* empty "
                     "(recoveries=%llu records_replayed=%llu)\n",
                     who.c_str(),
                     static_cast<unsigned long long>(recoveries),
                     static_cast<unsigned long long>(replayed));
        ok = false;
      }
      std::printf("supervisor: %s recovery recoveries=%llu replayed=%llu\n",
                  who.c_str(), static_cast<unsigned long long>(recoveries),
                  static_cast<unsigned long long>(replayed));
    }
  }

  if (ok) {
    std::printf("supervisor: converged (%zu survivors, %d datacenters)\n",
                total_survivors, n);
    return cli::kExitOk;
  }
  std::fprintf(stderr, "supervisor: FAILED\n");
  return cli::kExitFailure;
}
