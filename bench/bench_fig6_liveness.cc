// Reproduces Figure 6 and the Appendix A.2 liveness trade-off: the cost of
// tolerating f datacenter outages.
//
// Part 1 — the Figure 6 timeline: one transaction, identical conditions,
// committed under Helios-0/1/2. Its commit time only grows with f:
// c(t) <= c1(t) <= c2(t).
//
// Part 2 — per-datacenter latency overhead of Helios-1/2 over Helios-0 on
// the Table 2 topology (the paper: 0-1ms overhead for V/O going 0->1,
// 9-10ms elsewhere; 0 to 27-40ms going 1->2).
//
// Part 3 — an actual outage: Helios-1 keeps committing when Singapore
// fails (after a grace-time lull) while Helios-0 blocks; after recovery,
// latency returns to normal.

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace {

using helios::Duration;
using helios::Millis;
using helios::Seconds;
using helios::TablePrinter;
namespace core = helios::core;
namespace sim = helios::sim;
namespace harness = helios::harness;
namespace bench = helios::bench;

// Part 1: commit latency of a single, uncontended transaction under f.
void SingleTransactionTimeline() {
  bench::PrintHeading(
      "Figure 6: one transaction's commit time under Helios-0/1/2 "
      "(3 DCs, RTT 30/20/40)");
  TablePrinter table({"Variant", "commit time (ms after request)"});
  double previous = 0.0;
  for (int f = 0; f <= 2; ++f) {
    sim::Scheduler scheduler;
    sim::Network network(&scheduler, 3, 5);
    const auto topo = harness::PaperExampleTopology();
    harness::ConfigureNetwork(topo, &network);
    core::HeliosConfig cfg;
    cfg.num_datacenters = 3;
    cfg.fault_tolerance = f;
    cfg.log_interval = Millis(2);
    cfg.grace_time = Millis(500);
    core::HeliosCluster cluster(&scheduler, &network, std::move(cfg));
    cluster.Start();

    double latency_ms = -1.0;
    scheduler.At(Millis(100), [&] {
      const sim::SimTime start = scheduler.Now();
      cluster.ClientCommit(0, {}, {{"x", "v"}},
                           [&, start](const helios::CommitOutcome& o) {
                             if (o.committed) {
                               latency_ms =
                                   helios::ToMillis(scheduler.Now() - start);
                             }
                           });
    });
    scheduler.RunUntil(Seconds(5));
    table.AddRow({"Helios-" + std::to_string(f),
                  TablePrinter::Num(latency_ms, 2)});
    if (latency_ms + 1e-9 < previous) {
      std::printf("ERROR: commit time decreased with higher liveness!\n");
    }
    previous = latency_ms;
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("c(t) <= c1(t) <= c2(t), as in Figure 6.\n");
}

// Part 2: liveness overhead on the Table 2 topology.
void LivenessOverheadTable(const bench::BenchArgs& args) {
  bench::PrintHeading(
      "Liveness overhead: per-DC commit latency delta vs Helios-0 (ms)");
  std::vector<harness::ExperimentSpec> specs;
  for (harness::Protocol p :
       {harness::Protocol::kHelios0, harness::Protocol::kHelios1,
        harness::Protocol::kHelios2}) {
    specs.push_back(bench::Fig3Spec(p).WithMeasure(bench::Scaled(Seconds(12))));
  }
  const std::vector<harness::ExperimentResult> results =
      bench::RunSweepOrDie(specs, args);
  const auto topo = harness::Table2Topology();
  std::vector<std::string> header = {"Variant"};
  for (const auto& name : topo.names) header.push_back(name);
  TablePrinter table(header);
  for (size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> row = {results[i].protocol};
    for (size_t dc = 0; dc < results[i].per_dc.size(); ++dc) {
      const double delta = results[i].per_dc[dc].latency_mean_ms -
                           results[0].per_dc[dc].latency_mean_ms;
      row.push_back(i == 0
                        ? TablePrinter::Num(
                              results[0].per_dc[dc].latency_mean_ms, 1)
                        : ((delta >= 0 ? "+" : "") +
                           TablePrinter::Num(delta, 1)));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "(Row Helios-0 shows absolute latency; others show the overhead of "
      "waiting for\n1 or 2 grace-time acknowledgments. Datacenters whose "
      "commit latency already\nexceeds the RTT to their nearest peers pay "
      "little — the paper's V/O behaviour.)\n");
}

// Part 3: a real outage, 1-second latency buckets around it.
void OutageTimeline(int f) {
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 5, 17);
  const auto topo = harness::Table2Topology();
  harness::ConfigureNetwork(topo, &network);
  core::HeliosConfig cfg;
  cfg.num_datacenters = 5;
  cfg.fault_tolerance = f;
  cfg.grace_time = Millis(400);
  cfg.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  core::HeliosCluster cluster(&scheduler, &network, std::move(cfg));
  helios::InitialRows rows;
  for (int k = 0; k < 200; ++k) rows.emplace_back("k" + std::to_string(k), "v");
  cluster.LoadInitialAll(rows);
  cluster.Start();

  // Per-second buckets of commit latency at Virginia, plus commit counts.
  std::map<int, helios::StatAccumulator> buckets;
  std::map<int, int> commits_per_s;
  auto loop = std::make_shared<std::function<void(int)>>();
  auto rng = std::make_shared<helios::Rng>(23);
  *loop = [&, loop, rng](int client) {
    const sim::SimTime start = scheduler.Now();
    const std::string key =
        "k" + std::to_string(rng->Uniform(200));
    cluster.ClientCommit(0, {}, {{key, "v"}},
                         [&, loop, start, client](const helios::CommitOutcome& o) {
                           const int second =
                               static_cast<int>(start / Seconds(1));
                           if (o.committed) {
                             buckets[second].Add(
                                 helios::ToMillis(scheduler.Now() - start));
                             commits_per_s[second]++;
                           }
                           if (scheduler.Now() < Seconds(30)) {
                             (*loop)(client);
                           }
                         });
  };
  for (int c = 0; c < 4; ++c) {
    scheduler.At(Millis(c), [loop, c] { (*loop)(c); });
  }
  scheduler.At(Seconds(10), [&] { cluster.CrashDatacenter(4); });
  scheduler.At(Seconds(20), [&] { cluster.RecoverDatacenter(4); });
  scheduler.RunUntil(Seconds(33));

  TablePrinter table({"second", "commits", "avg latency (ms)"});
  for (int s = 7; s <= 25; ++s) {
    std::string note;
    if (s == 10) note = "  <- Singapore crashes";
    if (s == 20) note = "  <- Singapore recovers";
    table.AddRow({std::to_string(s), std::to_string(commits_per_s[s]),
                  TablePrinter::Num(buckets[s].mean(), 1) + note});
  }
  std::printf("%s", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::ParseBenchArgsOrDie(argc, argv);
  SingleTransactionTimeline();
  LivenessOverheadTable(args);

  bench::PrintHeading(
      "Outage timeline, Helios-1 @ Virginia (Singapore down 10s-20s)");
  OutageTimeline(1);
  std::printf(
      "\nWith f=1 Virginia stalls for about one grace time when Singapore "
      "dies, then\ncontinues committing using the inferred eta bound "
      "(Rule 3) at a ~GT-higher\nlatency, and returns to normal after "
      "recovery. Helios-0 in the same scenario\nwould block entirely "
      "(see tests/helios_test.cc, Helios0BlocksWhenADatacenterFails).\n");
  return 0;
}
