#include "sim_bench.h"

#include <algorithm>
#include <cstdio>

#include "check/oracles.h"
#include "check/runner.h"
#include "core/helios_config.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "ledger.h"
#include "replay.h"

namespace helios::perfbench {
namespace {

/// The slowest datacenter's p99 needs at least ten samples beyond it.
constexpr uint64_t kMinTailCommits = 1000;

struct Prepared {
  harness::ExperimentSpec spec;
  harness::ExperimentConfig config;
};

Result<Prepared> Prepare(const SimOptions& opt) {
  auto spec = SimSpec(opt.workload, opt.seed, opt.scale);
  if (!spec.ok()) return spec.status();
  auto config = spec.value().ToConfig();
  if (!config.ok()) return config.status();
  return Prepared{spec.value(), config.value()};
}

/// Exact per-datacenter outcome of a run (hex floats: bit for bit).
std::string Fingerprint(const harness::ExperimentResult& r) {
  std::string out;
  char buf[256];
  for (const harness::DcResult& dc : r.per_dc) {
    std::snprintf(buf, sizeof(buf), "%s:%llu:%llu:%a:%a;", dc.name.c_str(),
                  static_cast<unsigned long long>(dc.committed),
                  static_cast<unsigned long long>(dc.aborted),
                  dc.latency_p50_ms, dc.latency_p99_ms);
    out += buf;
  }
  return out;
}

struct Totals {
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

Totals Sum(const harness::ExperimentResult& r) {
  Totals t;
  for (const harness::DcResult& dc : r.per_dc) {
    t.committed += dc.committed;
    t.aborted += dc.aborted;
  }
  return t;
}

/// The traced, artifact-capturing run the oracles judge.
harness::ExperimentResult RunChecked(const Prepared& p, double* wall_s) {
  harness::ExperimentConfig config = p.config;
  check::ConfigureForChecking(&config);
  config.trace.ring_capacity = TraceRingCapacityFor(p.spec);
  const double t0 = WallSeconds();
  harness::ExperimentResult result = harness::RunExperiment(config);
  *wall_s = WallSeconds() - t0;
  return result;
}

Status Gate(const SimOptions& opt, const Prepared& p,
            const harness::ExperimentResult& result) {
  if (result.trace == nullptr || result.capture == nullptr) {
    return Status::Internal("checked run captured no trace or artifacts");
  }
  if (result.trace->dropped() > 0) {
    return Status::FailedPrecondition(
        "trace ring dropped " + std::to_string(result.trace->dropped()) +
        " events");
  }
  const check::OracleReport oracles = check::RunOracles(p.spec, result);
  if (!oracles.ok()) {
    return Status::FailedPrecondition("oracles failed:\n" + oracles.Summary());
  }
  if (opt.scale == Scale::kFull) {
    const auto worst = std::max_element(
        result.per_dc.begin(), result.per_dc.end(),
        [](const harness::DcResult& a, const harness::DcResult& b) {
          return a.latency_p99_ms < b.latency_p99_ms;
        });
    if (worst->committed < kMinTailCommits) {
      return Status::FailedPrecondition(
          "datacenter " + worst->name + " sets p99 with only " +
          std::to_string(worst->committed) + " commits");
    }
  }
  return Status::Ok();
}

/// The end-to-end metrics that are a pure function of (code, seed).
void LatencyMetrics(const Prepared& p, const harness::ExperimentResult& r,
                    Report* report) {
  double p50_sum = 0.0;
  const harness::DcResult* worst = &r.per_dc.front();
  for (const harness::DcResult& dc : r.per_dc) {
    p50_sum += dc.latency_p50_ms;
    if (dc.latency_p99_ms > worst->latency_p99_ms) worst = &dc;
  }
  const Totals t = Sum(r);
  const double measure_s = static_cast<double>(p.spec.measure) / 1e6;
  report->Set("commit_p50_ms", "ms",
              p50_sum / static_cast<double>(r.per_dc.size()));
  report->Count("commit_p50_ms.samples", t.committed);
  report->Set("commit_p99_ms", "ms", worst->latency_p99_ms);
  report->Count("commit_p99_ms.samples", worst->committed);
  report->Set("mao_gap_ms", "ms", r.avg_latency_ms - r.optimal_avg_latency_ms);
  report->Set("goodput_txn_s", "txn/s",
              static_cast<double>(t.committed) / measure_s);
  report->Set("failed_ratio", "ratio",
              static_cast<double>(t.aborted) /
                  static_cast<double>(t.committed + t.aborted));
  report->Count("attempted", t.committed + t.aborted);
  // Every measured attempt reached a decision (commit or abort); aborts
  // are a protocol outcome and are counted in failed_ratio.
  report->Count("failed", 0);
}

uint64_t CounterOr0(const obs::MetricsSnapshot& m, const std::string& name) {
  const auto* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

}  // namespace

Status RunSimCheck(const SimOptions& opt, Report* report) {
  auto p = Prepare(opt);
  if (!p.ok()) return p.status();
  double wall = 0.0;
  const harness::ExperimentResult result = RunChecked(p.value(), &wall);
  const Status gate = Gate(opt, p.value(), result);
  if (!gate.ok()) return gate;
  report->Fingerprint(Fingerprint(result));
  return Status::Ok();
}

Status RunSimTimed(const SimOptions& opt, Report* report) {
  auto p = Prepare(opt);
  if (!p.ok()) return p.status();
  const harness::ExperimentConfig& config = p.value().config;

  // Set-up alone: the same experiment with empty windows builds the
  // cluster, preloads every key and plans the MAO offsets. The set-ups are
  // spread over the run, between the timed repetitions, so their median
  // does not hang on one moment's load on the machine.
  const size_t setup_reps = opt.scale == Scale::kTiny ? 2 : 9;
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  const auto time_setup = [&]() {
    harness::ExperimentConfig empty = config;
    empty.warmup = 0;
    empty.measure = 0;
    empty.drain = 0;
    const double w0 = WallSeconds();
    const double c0 = UserCpuSeconds();
    (void)harness::RunExperiment(empty);
    setup_cpu.push_back(UserCpuSeconds() - c0);
    setup_wall.push_back(WallSeconds() - w0);
  };

  // The whole experiment, repeated for the requested time. Same seed, same
  // behaviour: every repetition must reproduce the first bit for bit.
  std::vector<double> walls;
  std::vector<double> cpus;
  harness::ExperimentResult first;
  std::string fingerprint;
  const double start = WallSeconds();
  do {
    time_setup();
    const double w0 = WallSeconds();
    const double c0 = UserCpuSeconds();
    harness::ExperimentResult r = harness::RunExperiment(config);
    cpus.push_back(UserCpuSeconds() - c0);
    walls.push_back(WallSeconds() - w0);
    const std::string fp = Fingerprint(r);
    if (walls.size() == 1) {
      fingerprint = fp;
      first = std::move(r);
    } else if (fp != fingerprint) {
      return Status::FailedPrecondition(
          "repetition " + std::to_string(walls.size()) +
          " of the same seed changed the outcome");
    }
  } while (WallSeconds() - start < opt.seconds && walls.size() < 50);
  while (setup_wall.size() < setup_reps) time_setup();
  const double setup_s = Median(setup_wall);
  const double setup_cpu_s = Median(setup_cpu);

  const double commits = static_cast<double>(Sum(first).committed);
  LatencyMetrics(p.value(), first, report);
  report->Set("sim_commits_per_wall_s", "txn/s",
              commits / std::max(1e-9, Median(walls) - setup_s));
  report->Set("commits_per_cpu_s", "txn/s",
              commits / std::max(1e-9, Median(cpus) - setup_cpu_s));
  report->Count("timed_repetitions", walls.size());
  report->Set("setup_s", "s", setup_s);
  report->Set("peak_rss_mb", "MB", PeakRssMb());
  report->Absent("gen_lag_p99_ms", "ms");
  report->Fingerprint(fingerprint);
  return Status::Ok();
}

Status RunSimTrace(const SimOptions& opt, Report* report) {
  auto prepared = Prepare(opt);
  if (!prepared.ok()) return prepared.status();
  const Prepared& p = prepared.value();

  const double u0 = WallSeconds();
  const harness::ExperimentResult untraced = harness::RunExperiment(p.config);
  const double untraced_wall = WallSeconds() - u0;
  double traced_wall = 0.0;
  const harness::ExperimentResult traced = RunChecked(p, &traced_wall);
  Status st = Gate(opt, p, traced);
  if (!st.ok()) return st;
  if (Fingerprint(untraced) != Fingerprint(traced)) {
    return Status::FailedPrecondition(
        "the untraced run did not reproduce the traced run");
  }
  report->Set("trace_overhead_ratio", "ratio", traced_wall / untraced_wall);

  // --- core: the stage ledger -------------------------------------------
  const std::vector<obs::TraceEvent> events = traced.trace->Events();
  const int64_t from = p.spec.warmup;
  const StageLedger ledger = BuildLedger(events, from, from + p.spec.measure,
                                         traced.optimal_latency_ms);
  if (ledger.residual > 0) {
    return Status::FailedPrecondition(
        std::to_string(ledger.residual) +
        " commits have stages that do not add up to their latency");
  }
  if (ledger.window_commits != Sum(traced).committed) {
    return Status::FailedPrecondition(
        "trace holds " + std::to_string(ledger.window_commits) +
        " measured commits, the clients counted " +
        std::to_string(Sum(traced).committed));
  }
  report->SetQuantiles("core.uplink_us", "us", ledger.uplink_us);
  report->SetQuantiles("core.queue_us", "us", ledger.queue_us);
  report->SetQuantiles("core.pre_wait_us", "us", ledger.pre_wait_us);
  report->SetQuantiles("core.commit_wait_us", "us", ledger.commit_wait_us);
  report->SetQuantiles("core.decide_us", "us", ledger.decide_us);
  report->SetQuantiles("core.downlink_us", "us", ledger.downlink_us);
  report->SetQuantiles("core.over_mao_us", "us", ledger.over_mao_us);
  report->Set("core.ledger_coverage", "ratio", ledger.coverage());
  report->Count("core.ledger_residual", ledger.residual);
  report->Count("trace.dropped", traced.trace->dropped());
  report->Count("trace.events", traced.trace->total_recorded());

  // --- core / sim / shard: protocol counts -------------------------------
  const obs::MetricsSnapshot& m = traced.metrics;
  const auto counter = [&](const char* name) { return CounterOr0(m, name); };
  const uint64_t requests = counter("node.commit_requests");
  const uint64_t commits = counter("protocol.commits");
  report->Set("core.abort_conflict_ratio", "ratio",
              Ratio(counter("node.aborts_on_request"), requests));
  report->Set("core.abort_remote_ratio", "ratio",
              Ratio(counter("node.aborts_by_remote"), requests));
  report->Set("core.abort_liveness_ratio", "ratio",
              Ratio(counter("node.aborts_liveness"), requests));
  report->Set("core.records_ingested_per_commit", "records",
              Ratio(counter("node.records_ingested"), commits));
  report->Set("core.envelopes_per_commit", "envelopes",
              Ratio(counter("node.envelopes_sent"), commits));

  // Service time the ServiceModel charges for the counted work, over the
  // nodes' total simulated time.
  const core::ServiceModel& svc = p.config.service;
  uint64_t writes_applied = 0;
  const auto count_writes = [&](const wal::WalContents& journal) {
    for (const rdict::LogRecord& r : journal.records) {
      if (r.type == rdict::RecordType::kFinished && r.committed && r.body) {
        writes_applied += r.body->write_set.size();
      }
    }
  };
  const harness::RunCapture& cap = *traced.capture;
  for (const auto& j : cap.shards > 1 ? cap.shard_wals : cap.wals) {
    count_writes(j);
  }
  const double busy_us =
      static_cast<double>(counter("node.read_requests")) * svc.read +
      static_cast<double>(requests + counter("xshard.slices_staged")) *
          svc.commit_request +
      static_cast<double>(counter("node.records_ingested")) * svc.log_record +
      static_cast<double>(counter("node.envelopes_sent")) * svc.log_message +
      static_cast<double>(writes_applied) * svc.write_apply;
  const double node_us =
      static_cast<double>(p.spec.warmup + p.spec.measure + p.spec.drain) *
      static_cast<double>(p.config.topology.size() * p.spec.shards);
  report->Set("core.service_busy_share", "ratio", busy_us / node_us);

  const uint64_t events_processed = counter("sim.events_processed");
  report->Set("sim.events_per_commit", "events",
              Ratio(events_processed, commits));
  report->Set("sim.messages_per_commit", "messages",
              Ratio(counter("net.messages_sent"), commits));
  report->Set("sim.events_per_wall_s", "events/s",
              static_cast<double>(events_processed) / untraced_wall);

  if (p.spec.shards > 1) {
    const uint64_t staged = counter("xshard.staged");
    report->Set("shard.cross_shard_ratio", "ratio",
                Ratio(staged, staged + counter("xshard.single_shard")));
    report->Set("shard.slice_wait_ratio", "ratio",
                Ratio(counter("xshard.slices_waited"),
                      counter("xshard.slices_staged")));
    report->Set("shard.xshard_abort_ratio", "ratio",
                Ratio(counter("xshard.aborted"), staged));
  } else {
    report->Absent("shard.cross_shard_ratio", "ratio");
    report->Absent("shard.slice_wait_ratio", "ratio");
    report->Absent("shard.xshard_abort_ratio", "ratio");
  }

  // --- store / txn / rdict / wire / wal / lp: layer replay -----------------
  ReplayInput in;
  const int n = p.config.topology.size();
  const int shards = cap.shards;
  in.planes.assign(
      static_cast<size_t>(shards),
      std::vector<const wal::WalContents*>(static_cast<size_t>(n)));
  for (int s = 0; s < shards; ++s) {
    for (int dc = 0; dc < n; ++dc) {
      const size_t d = static_cast<size_t>(dc);
      const size_t i = static_cast<size_t>(dc * shards + s);
      const bool sharded = shards > 1;
      const bool present =
          sharded ? cap.shard_wal_present[i] : cap.wal_present[d];
      in.planes[static_cast<size_t>(s)][d] =
          present ? (sharded ? &cap.shard_wals[i] : &cap.wals[d]) : nullptr;
    }
  }
  in.stores = cap.stores;
  in.rtt = p.config.topology.rtt_ms;
  in.log_interval = p.config.log_interval;
  in.gc_interval = core::HeliosConfig{}.gc_interval;
  in.tmp_dir = opt.tmp_dir;
  in.run_wall_s = untraced_wall;
  st = RunReplays(in, report);
  if (!st.ok()) return st;

  for (const char* name : {"transport.commit_call_us", "transport.read_us"}) {
    report->Absent(std::string(name) + ".p50", "us");
    report->Absent(std::string(name) + ".p99", "us");
  }
  report->Absent("transport.loop_queue_depth_p99", "items");
  report->Absent("transport.messages_per_commit", "messages");
  report->Absent("transport.shed_ratio", "ratio");
  const Totals t = Sum(traced);
  report->Count("attempted", t.committed + t.aborted);
  report->Count("failed", 0);
  report->Fingerprint(Fingerprint(traced));
  return Status::Ok();
}

}  // namespace helios::perfbench
