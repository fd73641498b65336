// Reproduces Figure 5: Helios-0 commit latency (a) and throughput (b)
// under clock-synchronization errors and RTT-estimation errors.
//
// Scenarios, matching Section 5.4:
//   - NTP            : synchronized clocks, true RTT estimates (baseline);
//   - V +100ms       : Virginia's clock 100ms ahead of everyone;
//   - V -100ms       : Virginia's clock 100ms behind;
//   - random skew    : {+24, -60, +120, -10, +55} ms for V, O, C, I, S;
//   - RTT estimate 1 : a fifth of the pairwise RTTs +25ms, a fifth +75ms,
//                      a fifth -25ms, a fifth -75ms, the rest exact;
//   - RTT estimate 2 : all RTTs estimated as zero (every datacenter gets
//                      an assigned commit latency of 0).

#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using helios::Duration;
  using helios::Millis;
  using helios::TablePrinter;
  namespace harness = helios::harness;
  namespace bench = helios::bench;
  namespace lp = helios::lp;

  const auto args = bench::ParseBenchArgsOrDie(argc, argv);
  const auto topo = harness::Table2Topology();

  struct Scenario {
    std::string name;
    std::vector<Duration> clock_offsets;
    std::optional<lp::RttMatrix> estimate;
  };

  const lp::RttMatrix estimate1 = bench::RttEstimate1(topo);
  lp::RttMatrix estimate2(topo.size());  // All zero.

  std::vector<Scenario> scenarios = {
      {"NTP (synchronized)", {}, std::nullopt},
      {"V +100ms", {Millis(100), 0, 0, 0, 0}, std::nullopt},
      {"V -100ms", {-Millis(100), 0, 0, 0, 0}, std::nullopt},
      {"skew {+24,-60,+120,-10,+55}",
       {Millis(24), -Millis(60), Millis(120), -Millis(10), Millis(55)},
       std::nullopt},
      {"RTT estimation 1", {}, estimate1},
      {"RTT estimation 2 (all zero)", {}, estimate2},
  };

  std::vector<std::string> header = {"Scenario"};
  for (const auto& name : topo.names) header.push_back(name);
  header.push_back("Avg");

  std::vector<harness::ExperimentSpec> specs;
  for (const auto& s : scenarios) {
    harness::ExperimentSpec spec = bench::Fig3Spec(harness::Protocol::kHelios0)
                                       .WithClockOffsets(s.clock_offsets)
                                       .WithLabel("Helios-0: " + s.name);
    if (s.estimate.has_value()) spec.WithRttEstimate(*s.estimate);
    specs.push_back(std::move(spec));
  }
  const std::vector<harness::ExperimentResult> results =
      bench::RunSweepOrDie(specs, args);

  bench::PrintHeading(
      "Figure 5(a): Helios-0 commit latency (ms) under sync/estimation errors");
  {
    TablePrinter table(header);
    for (size_t i = 0; i < scenarios.size(); ++i) {
      std::vector<std::string> row = {scenarios[i].name};
      for (const auto& dc : results[i].per_dc) {
        row.push_back(TablePrinter::MeanStd(dc.latency_mean_ms,
                                            dc.latency_stddev_ms));
      }
      row.push_back(TablePrinter::Num(results[i].avg_latency_ms, 1));
      table.AddRow(std::move(row));
    }
    std::printf("%s", table.ToString().c_str());
  }

  bench::PrintHeading("Figure 5(b): Helios-0 throughput (ops/s), same scenarios");
  {
    TablePrinter table(header);
    for (size_t i = 0; i < scenarios.size(); ++i) {
      std::vector<std::string> row = {scenarios[i].name};
      for (const auto& dc : results[i].per_dc) {
        row.push_back(TablePrinter::Num(dc.throughput_ops_s, 0));
      }
      row.push_back(TablePrinter::Num(results[i].total_throughput_ops_s, 0));
      table.AddRow(std::move(row));
    }
    std::printf("%s", table.ToString().c_str());
  }

  const double base = results[0].avg_latency_ms;
  std::printf(
      "\nDeltas vs synchronized: V+100 %+0.1fms, V-100 %+0.1fms, random "
      "%+0.1fms,\nest.1 %+0.1f%%, est.2 %+0.1f%%.\n",
      results[1].avg_latency_ms - base, results[2].avg_latency_ms - base,
      results[3].avg_latency_ms - base,
      100.0 * (results[4].avg_latency_ms - base) / base,
      100.0 * (results[5].avg_latency_ms - base) / base);
  std::printf(
      "Paper reference points: V+100 raises V's own latency by ~62ms while "
      "most others\nimprove; V-100 lowers V by ~37ms but raises the average "
      "by ~64ms; the random\nvector adds ~60ms average; RTT estimation "
      "errors cost only +4.5%% and +9%%.\n");
  return 0;
}
