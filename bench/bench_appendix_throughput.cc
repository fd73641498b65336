// Reproduces the Appendix A.2 throughput trade-off: minimizing average
// commit latency is not the same as maximizing throughput.
//
// Paper example (RTTs 30/20/40): the MAO assignment 5/25/15 yields
// 1000*N*(1/5+1/25+1/15) = 306.66*N txns/s, while the feasible assignment
// 1/29/19 yields 1087.11*N — 3.5x more — because closed-loop clients at a
// low-latency datacenter cycle much faster.
//
// This bench prints the analytic comparison, runs the throughput
// optimizer, and then runs the simulator with both offset assignments.
// End to end the effect needs headroom: near the servers' write-apply
// ceiling (Fig. 4's plateau) the two throughputs converge.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "lp/mao.h"

int main(int argc, char** argv) {
  using helios::TablePrinter;
  namespace harness = helios::harness;
  namespace bench = helios::bench;
  namespace lp = helios::lp;

  const auto args = bench::ParseBenchArgsOrDie(argc, argv);
  const auto topo = harness::PaperExampleTopology();
  const lp::RttMatrix& rtt = topo.rtt_ms;
  const double kOverheadMs = 1.0;

  bench::PrintHeading(
      "Appendix A.2: latency-optimal vs throughput-optimal assignment "
      "(RTT 30/20/40)");

  const auto mao = lp::SolveMao(rtt).value();
  const auto paper_alt = std::vector<double>{1.0, 29.0, 19.0};
  const auto optimized = lp::OptimizeThroughput(rtt, kOverheadMs).value();

  TablePrinter table(
      {"Assignment", "L_A", "L_B", "L_C", "avg lat", "rate/client (txn/s)"});
  auto add = [&](const std::string& name, const std::vector<double>& l) {
    table.AddRow({name, TablePrinter::Num(l[0], 1), TablePrinter::Num(l[1], 1),
                  TablePrinter::Num(l[2], 1),
                  TablePrinter::Num(lp::AverageLatency(l), 2),
                  TablePrinter::Num(lp::ThroughputRate(l, kOverheadMs), 1)});
  };
  add("MAO (latency-optimal)", mao);
  add("Paper's alternative (1/29/19)", paper_alt);
  add("Throughput optimizer", optimized.latencies);
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\n(rates include a %.1fms execution overhead; the paper's idealized "
      "306.66 vs\n1087.11 txns/s used none)\n",
      kOverheadMs);

  // End to end: run both assignments through the simulator.
  bench::PrintHeading("End-to-end: simulated throughput under both assignments");
  const std::vector<std::pair<std::string, std::vector<double>>> assignments = {
      {"MAO (5/25/15)", mao}, {"Throughput-optimal", optimized.latencies}};
  std::vector<harness::ExperimentSpec> specs;
  for (const auto& [name, latencies] : assignments) {
    // RunExperiment plans offsets from an RTT estimate; to force specific
    // latencies we exploit Eq. 5's inverse: an estimate with
    // RTT'(a,b) = L_a + L_b reproduces exactly these latencies under MAO
    // when they are all tight.
    lp::RttMatrix estimate(rtt.size());
    for (int a = 0; a < rtt.size(); ++a) {
      for (int b = a + 1; b < rtt.size(); ++b) {
        estimate.Set(a, b, latencies[a] + latencies[b]);
      }
    }
    specs.push_back(harness::ExperimentSpec()
                        .WithTopology("example3")
                        .WithProtocol(harness::Protocol::kHelios0)
                        .WithClients(30)
                        .WithWarmup(bench::Scaled(helios::Seconds(3)))
                        .WithMeasure(bench::Scaled(helios::Seconds(12)))
                        .WithLogInterval(helios::Millis(2))
                        .WithRttEstimate(estimate)
                        .WithLabel("A.2: " + name));
  }
  const std::vector<harness::ExperimentResult> results =
      bench::RunSweepOrDie(specs, args);
  TablePrinter sim_table(
      {"Assignment", "avg latency (ms)", "throughput (ops/s)"});
  for (size_t i = 0; i < assignments.size(); ++i) {
    sim_table.AddRow({assignments[i].first,
                      TablePrinter::Num(results[i].avg_latency_ms, 1),
                      TablePrinter::Num(results[i].total_throughput_ops_s, 0)});
  }
  std::printf("%s", sim_table.ToString().c_str());
  std::printf(
      "\nThe throughput-optimal assignment trades a higher *average* "
      "latency for a\nmuch faster fastest-datacenter; below the servers' "
      "write-apply ceiling,\nclosed-loop clients there lift the cumulative "
      "throughput — the Appendix A.2\neffect. Near the ceiling (Fig. 4's "
      "plateau) the two throughputs converge.\n");
  return 0;
}
