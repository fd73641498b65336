// planner: a command-line commit-latency planner for arbitrary topologies.
//
// Feeds an RTT matrix through the paper's planning pipeline: the Lemma 1
// lower bound, the MAO linear program (Problem 1), the commit offsets
// Helios installs (MAO's latencies with each pair's Lemma-1 slack split
// evenly), the analytic master/slave and majority alternatives (Table 1),
// and the Appendix A.2 throughput-optimal assignment.
//
// Usage:
//   planner                          # the paper's Table 2 topology
//   planner N rtt(0,1) rtt(0,2) ... # upper-triangular RTTs in ms, e.g.
//   planner 3 30 20 40              # the Section 3.2 example

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.h"
#include "harness/topology.h"
#include "lp/mao.h"

using namespace helios;

int main(int argc, char** argv) {
  harness::Topology topo = harness::Table2Topology();
  if (argc > 1) {
    const int n = std::atoi(argv[1]);
    const int pairs = n * (n - 1) / 2;
    if (n < 2 || argc != 2 + pairs) {
      std::fprintf(stderr,
                   "usage: %s [N rtt(0,1) rtt(0,2) ... rtt(N-2,N-1)]\n"
                   "       (N >= 2 followed by the %d upper-triangular RTTs)\n",
                   argv[0], pairs);
      return 2;
    }
    topo = harness::Topology(n);
    for (int i = 0; i < n; ++i) topo.names[i] = "DC" + std::to_string(i);
    int arg = 2;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        topo.Set(a, b, std::atof(argv[arg++]), 0.0);
      }
    }
  }
  const lp::RttMatrix& rtt = topo.rtt_ms;
  const int n = topo.size();

  std::printf("Topology (%d datacenters):\n", n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      std::printf("  RTT(%s, %s) = %.0fms\n", topo.names[a].c_str(),
                  topo.names[b].c_str(), rtt.Get(a, b));
    }
  }

  auto mao = lp::SolveMao(rtt);
  if (!mao.ok()) {
    std::fprintf(stderr, "MAO solve failed: %s\n",
                 mao.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> header = {"Strategy"};
  for (const auto& name : topo.names) header.push_back(name);
  header.push_back("Avg");
  TablePrinter table(header);
  auto add = [&](const std::string& name, const std::vector<double>& l) {
    std::vector<std::string> row = {name};
    for (double v : l) row.push_back(TablePrinter::Num(v, 1));
    row.push_back(TablePrinter::Num(lp::AverageLatency(l), 2));
    table.AddRow(std::move(row));
  };
  for (int master = 0; master < n; ++master) {
    add("Master/Slave (" + topo.names[master] + ")",
        lp::MasterSlaveLatencies(rtt, master));
  }
  add("Majority", lp::MajorityLatencies(rtt));
  table.AddSeparator();
  add("Optimal (MAO)", mao.value());
  auto tput = lp::OptimizeThroughput(rtt, /*overhead_ms=*/1.0);
  if (tput.ok()) add("Throughput-optimal", tput.value().latencies);

  std::printf("\nAchievable commit latencies (ms):\n%s",
              table.ToString().c_str());

  // Commit offsets Helios runs with: co[a][b] = (L_a - L_b) / 2, so every
  // pair sums to exactly zero (Rule 1 with equality).
  const auto offsets = lp::OffsetsMs(lp::EvenSplitOffsetsUs(mao.value()));
  const Status rule1 = lp::ValidateOffsets(offsets);
  std::printf("\nCommit offsets co[a][b] = (L_a - L_b)/2 (ms), Rule 1 %s:\n",
              rule1.ok() ? "satisfied" : "VIOLATED");
  std::vector<std::string> oheader = {"from\\to"};
  for (const auto& name : topo.names) oheader.push_back(name);
  TablePrinter otable(oheader);
  for (int a = 0; a < n; ++a) {
    std::vector<std::string> row = {topo.names[a]};
    for (int b = 0; b < n; ++b) {
      row.push_back(a == b ? "-" : TablePrinter::Num(offsets[a][b], 1));
    }
    otable.AddRow(std::move(row));
  }
  std::printf("%s", otable.ToString().c_str());

  if (tput.ok()) {
    std::printf(
        "\nThroughput objective (1ms execution overhead): MAO rate %.1f "
        "txn/s per client,\nthroughput-optimal rate %.1f txn/s per client.\n",
        lp::ThroughputRate(mao.value(), 1.0), tput.value().rate_per_client);
  }
  return 0;
}
