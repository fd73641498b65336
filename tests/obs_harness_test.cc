// Harness-level observability tests: run a small Helios-0 deployment with
// tracing enabled and check that the recorded trace agrees with the
// client-observed measurements, that the metrics snapshot carries the
// per-stage histograms, and that the exported Chrome trace is valid JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "json_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "workload/client.h"

namespace helios {
namespace {

constexpr sim::SimTime kWarmup = Millis(500);
constexpr sim::SimTime kMeasure = Seconds(2);
constexpr sim::SimTime kDrain = Seconds(2);

struct TracedRun {
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  std::vector<double> client_latency_ms;  // In-window committed samples.
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

// A hand-built miniature of harness::RunExperiment, kept separate so the
// test can reach the raw per-client latency samples (the harness result
// only exposes aggregates).
std::unique_ptr<TracedRun> RunTracedHelios0() {
  auto run = std::make_unique<TracedRun>();
  const harness::Topology topology = harness::Table2Topology();
  const int n = topology.size();

  sim::Scheduler scheduler;
  sim::Network network(&scheduler, n, /*seed=*/42);
  ConfigureNetwork(topology, &network);
  network.set_trace_recorder(&run->trace);

  core::HeliosConfig hc;
  hc.num_datacenters = n;
  hc.commit_offsets = harness::PlanCommitOffsets(topology, std::nullopt);
  core::HeliosCluster cluster(&scheduler, &network, std::move(hc),
                              core::LogProtocolKind::kHelios, "Helios-0");
  workload::WorkloadConfig workload;
  workload.num_keys = 500;
  cluster.LoadInitialAll(workload::TYcsbGenerator::Preload(workload.num_keys));
  cluster.SetObservability(&run->trace, &run->metrics);
  cluster.Start();

  const sim::SimTime until = kWarmup + kMeasure;
  std::vector<std::unique_ptr<workload::ClosedLoopClient>> clients;
  for (int c = 0; c < 2 * n; ++c) {
    clients.push_back(std::make_unique<workload::ClosedLoopClient>(
        static_cast<uint64_t>(c), /*home=*/c % n, &cluster, &scheduler,
        workload, /*seed=*/1000003, kWarmup, until, /*stop_at=*/until));
    clients.back()->SetObservability(&run->trace, &run->metrics);
    clients.back()->Start();
  }
  scheduler.RunUntil(until + kDrain);

  for (const auto& client : clients) {
    const workload::ClientMetrics& m = client->metrics();
    run->committed += m.committed;
    run->aborted += m.aborted;
    for (double s : m.commit_latency_ms.samples()) {
      run->client_latency_ms.push_back(s);
    }
  }
  return run;
}

const TracedRun& SharedRun() {
  static const std::unique_ptr<TracedRun> run = RunTracedHelios0();
  return *run;
}

bool InWindow(int64_t ts_us) {
  return ts_us >= static_cast<int64_t>(kWarmup) &&
         ts_us < static_cast<int64_t>(kWarmup + kMeasure);
}

TEST(ObsHarnessTest, RunCommitsTransactions) {
  const TracedRun& run = SharedRun();
  EXPECT_GT(run.committed, 100u);
  EXPECT_EQ(run.trace.dropped(), 0u) << "ring too small for this run";
}

TEST(ObsHarnessTest, ClientCommitSpansMatchClientLatencies) {
  const TracedRun& run = SharedRun();
  // The committed in-window client.commit spans are exactly the samples
  // the clients aggregated: same count, same durations.
  std::vector<double> span_ms;
  for (const obs::TraceEvent& e : run.trace.Events()) {
    if (e.kind == obs::EventKind::kClientCommit && e.detail == "committed" &&
        InWindow(e.ts_us)) {
      span_ms.push_back(ToMillis(e.dur_us));
    }
  }
  std::vector<double> client_ms = run.client_latency_ms;
  ASSERT_EQ(span_ms.size(), client_ms.size());
  ASSERT_EQ(span_ms.size(), run.committed);
  std::sort(span_ms.begin(), span_ms.end());
  std::sort(client_ms.begin(), client_ms.end());
  for (size_t i = 0; i < span_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(span_ms[i], client_ms[i]);
  }
}

TEST(ObsHarnessTest, LifecycleEventsArePresentAndOrdered) {
  const TracedRun& run = SharedRun();
  uint64_t commit_waits = 0;
  uint64_t net_hops = 0;
  uint64_t commits = 0;
  uint64_t appends = 0;
  for (const obs::TraceEvent& e : run.trace.Events()) {
    switch (e.kind) {
      case obs::EventKind::kCommitWait:
        ++commit_waits;
        EXPECT_GE(e.dur_us, 0);
        break;
      case obs::EventKind::kNetHop:
        ++net_hops;
        EXPECT_GT(e.dur_us, 0);  // WAN flight always takes time.
        EXPECT_NE(e.peer, kInvalidDc);
        EXPECT_NE(e.dc, e.peer);
        break;
      case obs::EventKind::kTxnCommit:
        ++commits;
        break;
      case obs::EventKind::kTxnAppend:
        ++appends;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(commit_waits, 0u);
  EXPECT_GT(net_hops, 0u);
  EXPECT_GT(appends, 0u);
  // Every commit decision went through a commit wait (Rule 2/3).
  EXPECT_GE(commit_waits, commits);
  EXPECT_GT(commits, 0u);
}

TEST(ObsHarnessTest, MetricsSnapshotHasStageHistograms) {
  const TracedRun& run = SharedRun();
  const obs::MetricsSnapshot snap = run.metrics.Snapshot();
  for (const char* name :
       {"txn.queue_wait_us", "txn.commit_wait_us", "txn.commit_total_us",
        "client.commit_latency_us"}) {
    const auto* h = snap.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
    EXPECT_GE(h->p99, h->p50) << name;
  }
  EXPECT_EQ(snap.FindHistogram("client.commit_latency_us")->count,
            run.committed);
  EXPECT_TRUE(helios::testing::IsValidJson(snap.ToJson()));
}

TEST(ObsHarnessTest, ExportedChromeTraceIsValidJson) {
  const TracedRun& run = SharedRun();
  std::ostringstream os;
  run.trace.ExportChromeTrace(os);
  EXPECT_TRUE(helios::testing::IsValidJson(os.str()));
}

TEST(ObsHarnessTest, RunExperimentWiresObservability) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kHelios0;
  cfg.total_clients = 5;
  cfg.warmup = Millis(500);
  cfg.measure = Seconds(1);
  cfg.drain = Seconds(1);
  cfg.workload.num_keys = 200;
  cfg.trace.enabled = true;
  const harness::ExperimentResult r = harness::RunExperiment(cfg);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->size(), 0u);
  ASSERT_FALSE(r.metrics.empty());
  EXPECT_NE(r.metrics.FindHistogram("txn.commit_total_us"), nullptr);
  ASSERT_NE(r.metrics.FindCounter("protocol.commits"), nullptr);
  EXPECT_GT(r.metrics.FindCounter("protocol.commits")->value, 0u);
  EXPECT_NE(r.metrics.FindCounter("net.messages_sent"), nullptr);
}

TEST(ObsHarnessTest, RunExperimentDisabledByDefault) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kHelios0;
  cfg.total_clients = 3;
  cfg.warmup = Millis(200);
  cfg.measure = Millis(500);
  cfg.drain = Millis(500);
  cfg.workload.num_keys = 100;
  const harness::ExperimentResult r = harness::RunExperiment(cfg);
  EXPECT_EQ(r.trace, nullptr);
  EXPECT_TRUE(r.metrics.empty());
}

}  // namespace
}  // namespace helios
