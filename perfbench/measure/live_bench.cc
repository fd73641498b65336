#include "live_bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "lp/mao.h"
#include "replay.h"
#include "transport/live_datacenter.h"
#include "wal/file_wal.h"
#include "workload/tycsb.h"

namespace helios::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double Us(SteadyClock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Probe write that marks the end of set-up: the first committed
/// transaction. Outside the workload's key space.
constexpr const char* kProbeKey = "perfbench.probe";

// --- Inputs -----------------------------------------------------------------

struct Arrival {
  double due_s = 0.0;  ///< Offset from the start of the phase.
  int home = 0;
  std::vector<Key> reads;
  std::vector<WriteEntry> writes;
  bool measured = false;  ///< Past the warm-up.
};

/// Poisson arrivals over warm-up + `measure_s`, fully determined by `seed`.
std::vector<Arrival> MakeArrivals(const LiveWorkload& w, double measure_s,
                                  uint64_t seed) {
  Rng rng(seed);
  workload::TYcsbGenerator gen(w.txn, seed ^ 0x5EEDF00DULL);
  std::vector<Arrival> out;
  const double end = w.warmup_s + measure_s;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / w.rate_per_s;
    if (t >= end) break;
    Arrival a;
    a.due_s = t;
    a.home = static_cast<int>(rng.Uniform(w.names.size()));
    const workload::TxnPlan plan = gen.NextTxn();
    a.reads = plan.reads;
    for (const Key& k : plan.writes) a.writes.push_back({k, gen.NextValue()});
    a.measured = t >= w.warmup_s;
    out.push_back(std::move(a));
  }
  return out;
}

// --- Cluster ----------------------------------------------------------------

struct Cluster {
  std::vector<std::unique_ptr<transport::LiveDatacenter>> dcs;
  std::vector<std::string> wal_paths;

  ~Cluster() { Stop(); }
  void Stop() {
    for (auto& dc : dcs) dc->Stop();
  }
  void RemoveFiles() {
    for (const std::string& p : wal_paths) std::remove(p.c_str());
  }
};

Status CommitProbe(transport::LiveDatacenter& dc) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto promise = std::make_shared<std::promise<CommitOutcome>>();
    auto future = promise->get_future();
    dc.Commit({}, {{kProbeKey, std::to_string(attempt)}},
              [promise](const CommitOutcome& o) { promise->set_value(o); });
    if (future.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      return Status::Unavailable("set-up probe commit got no decision");
    }
    if (future.get().committed) return Status::Ok();
  }
  return Status::Unavailable("set-up probe commit never committed");
}

/// Construct, journal, listen, connect, preload, start, and commit the
/// first transaction.
Result<std::unique_ptr<Cluster>> BuildCluster(const LiveWorkload& w,
                                              const std::string& dir,
                                              int rep, uint64_t max_inflight) {
  const int n = static_cast<int>(w.names.size());
  harness::Topology topology(n);
  topology.names = w.names;
  const lp::RttMatrix rtt = w.Rtt();
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) topology.Set(a, b, rtt.Get(a, b), 0.0);
  }
  core::HeliosConfig config;
  config.num_datacenters = n;
  config.commit_offsets = harness::PlanCommitOffsets(topology, std::nullopt);

  auto cluster = std::make_unique<Cluster>();
  wal::FileWalOptions wal_options;
  wal_options.policy = wal::SyncPolicy::kGroupCommit;
  transport::AdmissionConfig admission;
  admission.max_inflight = max_inflight;
  admission.queue_watermark = w.queue_watermark;
  std::vector<uint16_t> ports;
  for (DcId dc = 0; dc < n; ++dc) {
    const Duration delay = static_cast<Duration>(
        std::llround(w.inbound_delay_ms[static_cast<size_t>(dc)] * 1000.0));
    cluster->dcs.push_back(
        std::make_unique<transport::LiveDatacenter>(dc, config, delay));
    transport::LiveDatacenter& node = *cluster->dcs.back();
    const std::string path = dir + "/live-" + std::to_string(rep) + "-" +
                             std::to_string(dc) + ".wal";
    std::remove(path.c_str());
    cluster->wal_paths.push_back(path);
    Status st = node.EnableWal(path, wal_options);
    if (!st.ok()) return st;
    node.SetAdmissionControl(admission);
    st = node.Listen(0);
    if (!st.ok()) return st;
    ports.push_back(node.port());
  }
  for (auto& node : cluster->dcs) {
    const Status st = node->ConnectPeers(ports);
    if (!st.ok()) return st;
  }
  for (uint64_t i = 0; i < w.txn.num_keys; ++i) {
    const Key key = workload::TYcsbGenerator::KeyName(i);
    for (auto& node : cluster->dcs) node->LoadInitial(key, "init");
  }
  for (auto& node : cluster->dcs) node->Start();
  const Status probe = CommitProbe(*cluster->dcs[1]);
  if (!probe.ok()) return probe;
  return cluster;
}

// --- One generation phase ---------------------------------------------------

struct TxnState {
  SteadyClock::time_point due;
  SteadyClock::time_point issued;
  SteadyClock::time_point decided;
  std::vector<ReadEntry> reads;
  std::vector<double> read_us;
  int reads_left = 0;
  bool read_failed = false;
  double commit_call_us = 0.0;
  int decisions = 0;
  bool committed = false;
  bool busy = false;
};

/// Everything the loop threads' callbacks touch. Must outlive the cluster's
/// Stop(): an undrained transaction can still be decided after the phase.
struct Phase {
  std::vector<Arrival> arrivals;
  std::vector<TxnState> txns;
  bool traced = false;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;  ///< Reads done, commit not yet issued.
  size_t settled = 0;        ///< Decided or failed on a read.

  std::vector<double> queue_depth;  ///< Traced: sampled per arrival.
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

void Settle(Phase* ph) {
  std::lock_guard<std::mutex> lock(ph->mu);
  ++ph->settled;
  ph->cv.notify_all();
}

void IssueReads(Cluster& c, Phase* ph, size_t i) {
  const Arrival& a = ph->arrivals[i];
  TxnState& tx = ph->txns[i];
  transport::LiveDatacenter& dc = *c.dcs[static_cast<size_t>(a.home)];
  tx.reads.resize(a.reads.size());
  tx.read_us.assign(a.reads.size(), 0.0);
  tx.reads_left = static_cast<int>(a.reads.size());
  tx.issued = SteadyClock::now();
  if (ph->traced) {
    ph->queue_depth.push_back(static_cast<double>(dc.loop().queue_depth()));
  }
  if (a.reads.empty()) {
    std::lock_guard<std::mutex> lock(ph->mu);
    ph->ready.push_back(i);
    return;
  }
  for (size_t j = 0; j < a.reads.size(); ++j) {
    const SteadyClock::time_point sent = SteadyClock::now();
    // Every read of one transaction completes on its home loop thread, so
    // the countdown needs no lock; the hand-off to the generator does.
    dc.Read(a.reads[j], [ph, i, j, sent](Result<VersionedValue> r) {
      TxnState& t = ph->txns[i];
      t.read_us[j] = Us(SteadyClock::now() - sent);
      if (r.ok()) {
        t.reads[j] = {ph->arrivals[i].reads[j], r.value().ts, r.value().writer};
      } else {
        t.read_failed = true;
      }
      if (--t.reads_left == 0) {
        std::lock_guard<std::mutex> lock(ph->mu);
        ph->ready.push_back(i);
        ph->cv.notify_all();
      }
    });
  }
}

void IssueCommit(Cluster& c, Phase* ph, size_t i) {
  TxnState& tx = ph->txns[i];
  if (tx.read_failed) {
    Settle(ph);
    return;
  }
  const Arrival& a = ph->arrivals[i];
  const SteadyClock::time_point t0 = SteadyClock::now();
  c.dcs[static_cast<size_t>(a.home)]->Commit(
      tx.reads, a.writes, [ph, i](const CommitOutcome& o) {
        const SteadyClock::time_point now = SteadyClock::now();
        {
          std::lock_guard<std::mutex> lock(ph->mu);
          TxnState& t = ph->txns[i];
          ++t.decisions;
          t.decided = now;
          t.committed = o.committed;
          t.busy = o.abort_reason == "busy";
          ++ph->settled;
        }
        ph->cv.notify_all();
      });
  tx.commit_call_us = Us(SteadyClock::now() - t0);
}

/// Offers the phase's arrivals on schedule from this thread, then drains.
void RunPhase(Cluster& c, Phase* ph, double drain_timeout_s) {
  ph->txns.resize(ph->arrivals.size());
  const double cpu0 = UserCpuSeconds();
  const SteadyClock::time_point start =
      SteadyClock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < ph->arrivals.size(); ++i) {
    ph->txns[i].due = start + std::chrono::duration_cast<SteadyClock::duration>(
                                  std::chrono::duration<double>(
                                      ph->arrivals[i].due_s));
  }
  std::unique_lock<std::mutex> lock(ph->mu);
  const auto commit_ready = [&]() {
    while (!ph->ready.empty()) {
      const size_t i = ph->ready.front();
      ph->ready.pop_front();
      lock.unlock();
      IssueCommit(c, ph, i);
      lock.lock();
    }
  };
  for (size_t next = 0; next < ph->arrivals.size();) {
    commit_ready();
    const SteadyClock::time_point due = ph->txns[next].due;
    if (SteadyClock::now() < due) {
      ph->cv.wait_until(lock, due, [&] { return !ph->ready.empty(); });
      continue;
    }
    lock.unlock();
    IssueReads(c, ph, next++);
    lock.lock();
  }
  const SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(drain_timeout_s));
  while (ph->settled < ph->arrivals.size() && SteadyClock::now() < deadline) {
    commit_ready();
    ph->cv.wait_until(lock, deadline, [&] {
      return !ph->ready.empty() || ph->settled == ph->arrivals.size();
    });
  }
  ph->wall_s =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  ph->cpu_s = UserCpuSeconds() - cpu0;
}

struct PhaseStats {
  std::vector<Distribution> latency_ms;  ///< Per home datacenter.
  Distribution gen_lag_ms;
  Distribution read_us;
  Distribution commit_call_us;
  uint64_t arrivals = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t shed = 0;
  uint64_t read_failed = 0;
  uint64_t undrained = 0;
  uint64_t commits_all = 0;  ///< Including warm-up: the CPU window's work.

  uint64_t failed() const { return aborted + shed + read_failed + undrained; }
};

Result<PhaseStats> Summarize(Phase* ph, int n) {
  std::lock_guard<std::mutex> lock(ph->mu);
  PhaseStats s;
  s.latency_ms.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < ph->arrivals.size(); ++i) {
    const TxnState& t = ph->txns[i];
    if (t.decisions > 1) {
      return Status::FailedPrecondition("a transaction was decided twice");
    }
    const bool undrained = !t.read_failed && t.decisions == 0;
    if (t.committed) ++s.commits_all;
    if (!ph->arrivals[i].measured) continue;
    ++s.arrivals;
    s.gen_lag_ms.Add(Us(t.issued - t.due) / 1e3);
    for (double us : t.read_us) s.read_us.Add(us);
    if (t.read_failed) {
      ++s.read_failed;
    } else if (undrained) {
      ++s.undrained;
    } else {
      s.commit_call_us.Add(t.commit_call_us);
      if (t.committed) {
        ++s.committed;
        s.latency_ms[static_cast<size_t>(ph->arrivals[i].home)].Add(
            Us(t.decided - t.due) / 1e3);
      } else if (t.busy) {
        ++s.shed;
      } else {
        ++s.aborted;
      }
    }
  }
  if (s.committed + s.failed() != s.arrivals) {
    return Status::Internal("live accounting does not add up to arrivals");
  }
  return s;
}

/// Waits for every datacenter to hold the same store; returns the dump.
Result<std::string> Converge(Cluster& c) {
  const SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::seconds(10);
  for (;;) {
    const std::string first = c.dcs[0]->DumpStore();
    bool same = true;
    for (size_t dc = 1; dc < c.dcs.size() && same; ++dc) {
      same = c.dcs[dc]->DumpStore() == first;
    }
    if (same) return first;
    if (SteadyClock::now() > deadline) {
      return Status::FailedPrecondition(
          "datacenter stores still differ 10 s after the drain");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// Parses DumpStore's "key\tvalue\tts\torigin:seq" lines.
std::map<Key, VersionedValue> ParseDump(const std::string& dump) {
  std::map<Key, VersionedValue> out;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string key;
    std::string value;
    std::string ts;
    std::string writer;
    std::getline(fields, key, '\t');
    std::getline(fields, value, '\t');
    std::getline(fields, ts, '\t');
    std::getline(fields, writer, '\t');
    VersionedValue vv;
    vv.value = value;
    vv.ts = std::stoll(ts);
    const size_t colon = writer.find(':');
    vv.writer.origin = static_cast<DcId>(std::stol(writer.substr(0, colon)));
    vv.writer.seq = std::stoull(writer.substr(colon + 1));
    out[key] = vv;
  }
  return out;
}

struct NodeTotals {
  core::NodeCounters node;
  uint64_t messages_sent = 0;
  uint64_t shed = 0;
};

NodeTotals Snapshot(Cluster& c) {
  NodeTotals t;
  for (auto& dc : c.dcs) {
    const core::NodeCounters k = dc->CountersSnapshot();
    t.node.commit_requests += k.commit_requests;
    t.node.commits += k.commits;
    t.node.aborts_on_request += k.aborts_on_request;
    t.node.aborts_by_remote += k.aborts_by_remote;
    t.node.aborts_liveness += k.aborts_liveness;
    t.node.records_ingested += k.records_ingested;
    t.node.envelopes_sent += k.envelopes_sent;
    t.messages_sent += dc->transport().messages_sent();
    t.shed += dc->overload_snapshot().shed;
  }
  return t;
}

void EndToEnd(const PhaseStats& s, const std::vector<double>& mao,
              double measure_s, double cpu_s, Report* report) {
  double p50_sum = 0.0;
  double mean_sum = 0.0;
  size_t worst = 0;
  for (size_t dc = 0; dc < s.latency_ms.size(); ++dc) {
    p50_sum += s.latency_ms[dc].Median();
    mean_sum += s.latency_ms[dc].mean();
    if (s.latency_ms[dc].Percentile(99) > s.latency_ms[worst].Percentile(99)) {
      worst = dc;
    }
  }
  const double n = static_cast<double>(s.latency_ms.size());
  report->Set("commit_p50_ms", "ms", p50_sum / n);
  report->Count("commit_p50_ms.samples", s.committed);
  report->Set("commit_p99_ms", "ms", s.latency_ms[worst].Percentile(99));
  report->Count("commit_p99_ms.samples", s.latency_ms[worst].count());
  report->Set("mao_gap_ms", "ms", mean_sum / n - lp::AverageLatency(mao));
  report->Set("goodput_txn_s", "txn/s",
              static_cast<double>(s.committed) / measure_s);
  report->Set("failed_ratio", "ratio", Ratio(s.failed(), s.arrivals));
  report->Absent("sim_commits_per_wall_s", "txn/s");
  report->Set("commits_per_cpu_s", "txn/s",
              static_cast<double>(s.commits_all) / std::max(1e-9, cpu_s));
  report->Set("gen_lag_p99_ms", "ms", s.gen_lag_ms.Percentile(99));
}

}  // namespace

Status RunLive(const LiveOptions& opt, Report* report) {
  const LiveWorkload w = LiveSpec(opt.seed, opt.seconds, opt.scale);
  const int n = static_cast<int>(w.names.size());
  const uint64_t max_inflight =
      opt.max_inflight > 0 ? opt.max_inflight : w.max_inflight;
  auto mao = lp::SolveMao(w.Rtt());
  if (!mao.ok()) return mao.status();

  // Phases: one untraced measurement, or an untraced and a traced half.
  // Declared before the cluster so they outlive its loop threads.
  std::vector<std::unique_ptr<Phase>> phases;
  const double phase_s = opt.trace ? w.measure_s / 2.0 : w.measure_s;
  for (int i = 0; i < (opt.trace ? 2 : 1); ++i) {
    auto ph = std::make_unique<Phase>();
    ph->arrivals = MakeArrivals(w, phase_s, opt.seed + 7919ULL * i);
    ph->traced = i == 1;
    phases.push_back(std::move(ph));
  }

  // Set-up, timed several times; the last cluster runs the workload.
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    if (cluster != nullptr) {
      cluster->Stop();
      cluster->RemoveFiles();
      cluster.reset();
    }
    const double t0 = WallSeconds();
    auto built = BuildCluster(w, opt.tmp_dir, rep, max_inflight);
    if (!built.ok()) return built.status();
    setup_s.push_back(WallSeconds() - t0);
    cluster = std::move(built).value();
  }

  NodeTotals before;
  NodeTotals after;
  for (auto& ph : phases) {
    before = Snapshot(*cluster);
    RunPhase(*cluster, ph.get(), w.drain_timeout_s);
    after = Snapshot(*cluster);
  }
  auto dump = Converge(*cluster);
  if (!dump.ok()) return dump.status();
  // Stopped before anything reads the phases: no callback can race.
  cluster->Stop();
  uint64_t events = 0;
  for (auto& dc : cluster->dcs) {
    events += dc->loop().scheduler().events_processed();
  }

  std::vector<PhaseStats> stats;
  for (auto& ph : phases) {
    auto s = Summarize(ph.get(), n);
    if (!s.ok()) return s.status();
    stats.push_back(std::move(s).value());
  }
  const PhaseStats& last = stats.back();
  uint64_t arrivals = 0;
  uint64_t failed = 0;
  for (const PhaseStats& s : stats) {
    arrivals += s.arrivals;
    failed += s.shed + s.read_failed + s.undrained;
  }
  report->Count("attempted", arrivals);
  // Requests that got no decision; aborts are in failed_ratio.
  report->Count("failed", failed);
  report->Count("live.committed", last.committed);
  report->Count("live.aborted", last.aborted);
  report->Count("live.shed", last.shed);
  report->Count("live.read_failed", last.read_failed);
  report->Count("live.undrained", last.undrained);

  if (!opt.trace) {
    if (opt.scale == Scale::kFull) {
      for (int dc = 0; dc < n; ++dc) {
        if (last.latency_ms[static_cast<size_t>(dc)].count() < 1000) {
          return Status::FailedPrecondition(
              "datacenter " + w.names[static_cast<size_t>(dc)] +
              " committed fewer than 1000 measured transactions");
        }
      }
    }
    EndToEnd(last, mao.value(), phase_s, phases[0]->cpu_s, report);
    report->Set("setup_s", "s", Median(setup_s));
    report->Set("peak_rss_mb", "MB", PeakRssMb());
    return Status::Ok();
  }

  // --- Per-layer metrics of the traced half --------------------------------
  const Phase& traced = *phases[1];
  const Phase& untraced = *phases[0];
  const double cpu_per_commit_traced =
      traced.cpu_s /
      static_cast<double>(std::max<uint64_t>(1, last.commits_all));
  const double cpu_per_commit_untraced =
      untraced.cpu_s /
      static_cast<double>(std::max<uint64_t>(1, stats[0].commits_all));
  report->Set("trace_overhead_ratio", "ratio",
              cpu_per_commit_traced / cpu_per_commit_untraced);
  const core::NodeCounters& a = after.node;
  const core::NodeCounters& b = before.node;
  const uint64_t requests = a.commit_requests - b.commit_requests;
  const uint64_t commits = a.commits - b.commits;
  report->Set("core.abort_conflict_ratio", "ratio",
              Ratio(a.aborts_on_request - b.aborts_on_request, requests));
  report->Set("core.abort_remote_ratio", "ratio",
              Ratio(a.aborts_by_remote - b.aborts_by_remote, requests));
  report->Set("core.abort_liveness_ratio", "ratio",
              Ratio(a.aborts_liveness - b.aborts_liveness, requests));
  report->Set("core.records_ingested_per_commit", "records",
              Ratio(a.records_ingested - b.records_ingested, commits));
  report->Set("core.envelopes_per_commit", "envelopes",
              Ratio(a.envelopes_sent - b.envelopes_sent, commits));
  // The realtime loops run the simulator's scheduler; whole-run total.
  report->Set("sim.events_per_commit", "events",
              Ratio(events, a.commits));
  report->SetQuantiles("transport.commit_call_us", "us", last.commit_call_us);
  report->SetQuantiles("transport.read_us", "us", last.read_us);
  Distribution depth;
  for (double d : traced.queue_depth) depth.Add(d);
  report->Set("transport.loop_queue_depth_p99", "items", depth.Percentile(99));
  report->Set("transport.messages_per_commit", "messages",
              Ratio(after.messages_sent - before.messages_sent, commits));
  report->Set("transport.shed_ratio", "ratio",
              Ratio(after.shed - before.shed, last.arrivals));
  for (const char* stage : {"uplink", "queue", "pre_wait", "commit_wait",
                            "decide", "downlink", "over_mao"}) {
    report->Absent(std::string("core.") + stage + "_us.p50", "us");
    report->Absent(std::string("core.") + stage + "_us.p99", "us");
  }
  report->Absent("core.ledger_coverage", "ratio");
  report->Absent("core.service_busy_share", "ratio");
  report->Absent("sim.messages_per_commit", "messages");
  report->Absent("sim.events_per_wall_s", "events/s");
  report->Absent("shard.cross_shard_ratio", "ratio");
  report->Absent("shard.slice_wait_ratio", "ratio");
  report->Absent("shard.xshard_abort_ratio", "ratio");

  // Layer replay over the journals the nodes wrote.
  std::vector<wal::WalContents> journals;
  for (const std::string& path : cluster->wal_paths) {
    auto recovered = wal::RecoverFileWal(path);
    if (!recovered.ok()) return recovered.status();
    journals.push_back(std::move(recovered.value().contents));
  }
  ReplayInput in;
  in.planes.resize(1);
  for (const wal::WalContents& j : journals) in.planes[0].push_back(&j);
  const std::map<Key, VersionedValue> store = ParseDump(dump.value());
  in.stores.assign(static_cast<size_t>(n), store);
  in.rtt = w.Rtt();
  in.log_interval = core::HeliosConfig{}.log_interval;
  in.gc_interval = core::HeliosConfig{}.gc_interval;
  in.tmp_dir = opt.tmp_dir;
  in.run_wall_s = untraced.wall_s;
  return RunReplays(in, report);
}

}  // namespace helios::perfbench
