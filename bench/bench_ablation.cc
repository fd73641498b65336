// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's figures but probe the same mechanisms:
//
//  A) Log propagation interval (theta): the paper propagates the log
//     "continuously"; real systems batch. Latency should grow roughly
//     linearly with the interval while message counts fall.
//  B) Grace time (GT, Section 4.4): smaller GT means faster failover but
//     more spurious refusals under jitter; larger GT means slower failover.
//     We measure refusals and normal-operation latency across GT values.
//  C) Contention (Zipfian theta): abort-rate growth for the optimistic
//     log-based protocols vs the lock-based baselines.
//  D) Read-only fraction (Appendix B): read-only snapshot transactions
//     commit locally and never contend, so throughput rises and average
//     read-write latency stays flat as their share grows.
//  E) Wire cost: encoded envelope sizes vs the log interval (batching
//     amortizes the timetable; per-record overhead dominates large
//     batches), using the wire-format serializer and bandwidth accounting.
//  F) Online RTT estimation and offset replanning after a WAN change.
//  G) Offset plan: the paper's Eq. 5 (co[A][B] = L_A - RTT(A,B)/2, each
//     pair's Lemma-1 slack kept inside both offsets) against the plan
//     Helios installs (co[A][B] = (L_A - L_B)/2, lp::EvenSplitOffsetsUs),
//     for Helios-0/1/2 on Table 2: synchronized, Fig. 5's random skew
//     vector and Fig. 5's "RTT estimation 1".
//  H) Clock discipline: Fig. 5's skew rows with every simulated clock
//     disciplined against its peers (a step sink on each node, as a live
//     datacenter installs), beside the same rows undisciplined.

#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "wire/serialization.h"
#include "workload/client.h"

using helios::Duration;
using helios::Millis;
using helios::Seconds;
using helios::TablePrinter;
namespace harness = helios::harness;
namespace bench = helios::bench;

namespace {

harness::ExperimentSpec SmallRun(harness::Protocol p) {
  return harness::ExperimentSpec()
      .WithProtocol(p)
      .WithClients(60)
      .WithWarmup(bench::Scaled(Seconds(3)))
      .WithMeasure(bench::Scaled(Seconds(10)));
}

// Studies A, C, and D are plain RunExperiment grids, so they are declared
// here as one combined spec list and executed as a single parallel sweep;
// the slices below carve the flat result vector back into studies. B, E,
// F, G and H drive clusters directly (they read cluster counters, mutate
// the network mid-run, install offsets the harness does not plan or step
// sinks it does not install) and stay serial.
const Duration kLogIntervals[] = {Millis(2),  Millis(5),  Millis(10),
                                  Millis(25), Millis(50), Millis(100)};
const double kThetas[] = {0.0, 0.3, 0.5, 0.7};
const harness::Protocol kContentionProtocols[] = {
    harness::Protocol::kHelios0, harness::Protocol::kMessageFutures,
    harness::Protocol::kReplicatedCommit, harness::Protocol::kTwoPcPaxos};
const double kReadOnlyFractions[] = {0.0, 0.25, 0.5, 0.75};

std::vector<harness::ExperimentSpec> SweepableSpecs() {
  std::vector<harness::ExperimentSpec> specs;
  for (Duration interval : kLogIntervals) {
    specs.push_back(
        SmallRun(harness::Protocol::kHelios0)
            .WithLogInterval(interval)
            .WithLabel("A: log interval " +
                       TablePrinter::Num(helios::ToMillis(interval), 0) +
                       "ms"));
  }
  for (harness::Protocol p : kContentionProtocols) {
    for (double theta : kThetas) {
      specs.push_back(SmallRun(p)
                          .WithMeasure(bench::Scaled(Seconds(8)))
                          .WithZipfTheta(theta)
                          .WithLabel(std::string("C: ") +
                                     harness::ProtocolName(p) + " theta " +
                                     TablePrinter::Num(theta, 1)));
    }
  }
  for (double fraction : kReadOnlyFractions) {
    specs.push_back(SmallRun(harness::Protocol::kHelios0)
                        .WithReadOnlyFraction(fraction)
                        .WithLabel("D: read-only " +
                                   TablePrinter::Num(fraction, 2)));
  }
  return specs;
}

void LogIntervalAblation(const harness::ExperimentResult* results) {
  bench::PrintHeading(
      "Ablation A: log propagation interval vs Helios-0 commit latency");
  TablePrinter table({"interval (ms)", "avg latency (ms)", "throughput",
                      "envelopes sent/s"});
  size_t i = 0;
  for (Duration interval : kLogIntervals) {
    const auto& r = results[i++];
    table.AddRow({TablePrinter::Num(helios::ToMillis(interval), 0),
                  TablePrinter::Num(r.avg_latency_ms, 1),
                  TablePrinter::Num(r.total_throughput_ops_s, 0), "-"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "Latency grows with the propagation interval (a commit waits for the "
      "next tick\nplus the flight time), which is why the paper propagates "
      "continuously.\n");
}

void GraceTimeAblation() {
  bench::PrintHeading(
      "Ablation B: grace time GT vs refusals and latency (Helios-1)");
  TablePrinter table({"GT (ms)", "avg latency (ms)", "refusals issued",
                      "liveness aborts"});
  for (Duration gt : {Millis(50), Millis(150), Millis(400), Millis(1000),
                      Millis(3000)}) {
    std::fprintf(stderr, "grace time %lldms...\n",
                 static_cast<long long>(gt / 1000));
    // Run directly so we can read the cluster counters.
    helios::sim::Scheduler scheduler;
    helios::sim::Network network(&scheduler, 5, 31);
    const auto topo = harness::Table2Topology();
    harness::ConfigureNetwork(topo, &network);
    helios::core::HeliosConfig hc;
    hc.num_datacenters = 5;
    hc.fault_tolerance = 1;
    hc.grace_time = gt;
    hc.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
    helios::core::HeliosCluster cluster(&scheduler, &network, std::move(hc));
    helios::workload::WorkloadConfig wl;
    wl.num_keys = 10000;
    for (uint64_t i = 0; i < wl.num_keys; ++i) {
      cluster.LoadInitialAll(helios::workload::TYcsbGenerator::KeyName(i),
                             "init");
    }
    cluster.Start();
    std::vector<std::unique_ptr<helios::workload::ClosedLoopClient>> clients;
    const auto measure = bench::Scaled(Seconds(10));
    for (int c = 0; c < 30; ++c) {
      clients.push_back(std::make_unique<helios::workload::ClosedLoopClient>(
          c, c % 5, &cluster, &scheduler, wl, 5, Seconds(2),
          Seconds(2) + measure, Seconds(2) + measure));
      clients.back()->Start();
    }
    scheduler.RunUntil(Seconds(2) + measure + Seconds(3));
    helios::workload::ClientMetrics all;
    for (const auto& c : clients) all.Merge(c->metrics());
    const auto counters = cluster.AggregateCounters();
    table.AddRow({TablePrinter::Num(helios::ToMillis(gt), 0),
                  TablePrinter::Num(all.commit_latency_ms.mean(), 1),
                  std::to_string(counters.refusals_issued),
                  std::to_string(counters.aborts_liveness)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "Small GT risks refusing (and aborting) slow-arriving transactions; "
      "large GT\nonly hurts during outages (failover waits ~GT — see "
      "bench_fig6_liveness).\n");
}

void ContentionAblation(const harness::ExperimentResult* results) {
  bench::PrintHeading("Ablation C: abort rate (%) vs Zipfian skew theta");
  std::vector<std::string> header = {"Protocol"};
  for (double t : kThetas) header.push_back(TablePrinter::Num(t, 1));
  TablePrinter table(header);
  size_t i = 0;
  for (harness::Protocol p : kContentionProtocols) {
    std::vector<std::string> row = {harness::ProtocolName(p)};
    for (size_t t = 0; t < std::size(kThetas); ++t) {
      row.push_back(TablePrinter::Num(100.0 * results[i++].avg_abort_rate, 1));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "The optimistic log-based protocols abort on any overlap with a "
      "preparing\ntransaction, so their abort rate climbs fastest with "
      "skew; wound-wait 2PC\nmostly converts conflicts into waits.\n");
}

void ReadOnlyAblation(const harness::ExperimentResult* results) {
  bench::PrintHeading(
      "Ablation D (Appendix B): read-only snapshot transaction share");
  TablePrinter table({"read-only share", "rw avg latency (ms)",
                      "rw throughput (ops/s)", "read-only txns/s"});
  size_t i = 0;
  for (double fraction : kReadOnlyFractions) {
    const auto& r = results[i++];
    // Recompute read-only rate from per-dc committed metrics is not
    // exposed; derive from throughput change instead. Report rw metrics.
    table.AddRow({TablePrinter::Num(fraction, 2),
                  TablePrinter::Num(r.avg_latency_ms, 1),
                  TablePrinter::Num(r.total_throughput_ops_s, 0), "-"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "Read-only transactions are served from the local snapshot in "
      "~1-2ms and never\nabort or block read-write traffic (Appendix B): "
      "the read-write latency stays\nflat as their share grows.\n");
}

void WireSizeAblation() {
  bench::PrintHeading(
      "Ablation E: on-wire envelope size vs log interval (wire format)");
  TablePrinter table({"interval (ms)", "envelopes", "total MB",
                      "avg bytes/envelope"});
  for (Duration interval : {Millis(5), Millis(20), Millis(80)}) {
    std::fprintf(stderr, "wire sizes at interval %lldms...\n",
                 static_cast<long long>(interval / 1000));
    helios::sim::Scheduler scheduler;
    helios::sim::Network network(&scheduler, 5, 41);
    const auto topo = harness::Table2Topology();
    harness::ConfigureNetwork(topo, &network);
    network.set_bandwidth_bytes_per_sec(1'000'000'000);  // 8 Gbit/s links.
    helios::core::HeliosConfig hc;
    hc.num_datacenters = 5;
    hc.log_interval = interval;
    hc.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
    helios::core::HeliosCluster cluster(&scheduler, &network, std::move(hc));
    cluster.set_envelope_sizer([](const helios::core::Envelope& env) {
      return helios::wire::EncodedEnvelopeSize(env);
    });
    helios::workload::WorkloadConfig wl;
    wl.num_keys = 10000;
    for (uint64_t i = 0; i < wl.num_keys; ++i) {
      cluster.LoadInitialAll(helios::workload::TYcsbGenerator::KeyName(i),
                             "init");
    }
    cluster.Start();
    std::vector<std::unique_ptr<helios::workload::ClosedLoopClient>> clients;
    for (int c = 0; c < 30; ++c) {
      clients.push_back(std::make_unique<helios::workload::ClosedLoopClient>(
          c, c % 5, &cluster, &scheduler, wl, 5, 0, Seconds(8), Seconds(8)));
      clients.back()->Start();
    }
    scheduler.RunUntil(Seconds(10));
    const auto counters = cluster.AggregateCounters();
    const double mb = static_cast<double>(network.bytes_sent()) / 1e6;
    table.AddRow({TablePrinter::Num(helios::ToMillis(interval), 0),
                  std::to_string(counters.envelopes_sent),
                  TablePrinter::Num(mb, 1),
                  TablePrinter::Num(
                      counters.envelopes_sent == 0
                          ? 0.0
                          : static_cast<double>(network.bytes_sent()) /
                                static_cast<double>(counters.envelopes_sent),
                      0)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "Each envelope carries the receiver's whole unacknowledged window "
      "(~RTT of\nrecords — the Replicated Dictionary retransmits until "
      "acknowledged), so bytes\nscale with the transaction rate times the "
      "window, not with the tick count:\nlonger intervals slash total "
      "bytes mostly because the higher commit latency\nthrottles the "
      "closed-loop clients.\n");
}

void AdaptiveOffsetsAblation() {
  bench::PrintHeading(
      "Ablation F: online RTT estimation + offset replanning after a WAN "
      "improvement");
  // The Virginia-Singapore link IMPROVES from 268ms to 120ms at t=12s
  // (e.g. a new cable path). A static MAO plan keeps waiting out the old
  // pairwise budget — Lemma 1 says L_V + L_S >= RTT(V,S), and the stale
  // offsets still enforce the 268ms split. Replanning from the RTTs the
  // nodes measure (ClockDiscipline's round trips) at t=21s lets the whole
  // deployment cash in the improvement.
  // (When a link *degrades*, the new lower bound is unavoidable and
  // replanning can only re-split the burden between the two endpoints.)
  helios::sim::Scheduler scheduler;
  helios::sim::Network network(&scheduler, 5, 51);
  const auto topo = harness::Table2Topology();
  harness::ConfigureNetwork(topo, &network);
  helios::core::HeliosConfig hc;
  hc.num_datacenters = 5;
  hc.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  helios::core::HeliosCluster cluster(&scheduler, &network, std::move(hc));
  helios::workload::WorkloadConfig wl;
  wl.num_keys = 10000;
  for (uint64_t i = 0; i < wl.num_keys; ++i) {
    cluster.LoadInitialAll(helios::workload::TYcsbGenerator::KeyName(i),
                           "init");
  }
  cluster.Start();

  // 3-second windows of commit latency, per datacenter and averaged.
  std::map<int, std::vector<helios::StatAccumulator>> buckets;
  auto rng = std::make_shared<helios::Rng>(3);
  auto loop = std::make_shared<std::function<void(helios::DcId)>>();
  *loop = [&, rng, loop](helios::DcId dc) {
    if (scheduler.Now() > Seconds(36)) return;
    const helios::sim::SimTime start = scheduler.Now();
    cluster.ClientCommit(
        dc, {},
        {{helios::workload::TYcsbGenerator::KeyName(rng->Uniform(wl.num_keys)),
          "v"}},
        [&, loop, start, dc](const helios::CommitOutcome& o) {
          if (o.committed) {
            auto& window = buckets[static_cast<int>(start / Seconds(3))];
            if (window.empty()) window.resize(5);
            window[static_cast<size_t>(dc)].Add(
                helios::ToMillis(scheduler.Now() - start));
          }
          (*loop)(dc);
        });
  };
  for (helios::DcId dc = 0; dc < 5; ++dc) {
    scheduler.At(Millis(dc), [loop, dc] { (*loop)(dc); });
  }
  scheduler.At(Seconds(12), [&] {
    network.SetRtt(0, 4, Millis(120), Millis(4));  // V-S improves.
  });
  bool replanned_ok = false;
  double replanned_avg = 0.0;
  scheduler.At(Seconds(21), [&] {
    auto r = cluster.ReplanOffsetsFromEstimates();
    replanned_ok = r.ok();
    if (r.ok()) replanned_avg = r.value();
  });
  scheduler.RunUntil(Seconds(38));

  TablePrinter table({"window", "V", "S", "all-DC avg", ""});
  for (int w = 1; w <= 11; ++w) {
    auto it = buckets.find(w);
    if (it == buckets.end()) continue;
    double sum = 0.0;
    for (const auto& acc : it->second) sum += acc.mean();
    std::string note;
    if (w == 4) note = "<- V-S RTT drops 268 -> 120ms";
    if (w == 7) note = "<- replan from live estimates";
    table.AddRow({std::to_string(w * 3) + "-" + std::to_string(w * 3 + 3) +
                      "s",
                  TablePrinter::Num(it->second[0].mean(), 1),
                  TablePrinter::Num(it->second[4].mean(), 1),
                  TablePrinter::Num(sum / 5.0, 1), note});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "replan %s (new planned MAO average: %.1fms vs 90.6ms before the "
      "improvement).\nThe static plan cannot exploit the faster link: its "
      "offsets still enforce the\nold 268ms V-S budget. Replanning from "
      "the RTTs every node measures lowers\nboth endpoints' waits to the "
      "new lower bound.\n",
      replanned_ok ? "succeeded" : "FAILED", replanned_avg);
}

/// Mean over datacenters of Helios's mean commit latency (ms) on Table 2
/// with 60 closed-loop clients, under the given offsets and clock offsets.
double OffsetPlanRun(int fault_tolerance,
                     std::vector<std::vector<Duration>> commit_offsets,
                     const std::vector<Duration>& clock_offsets) {
  helios::sim::Scheduler scheduler;
  helios::sim::Network network(&scheduler, 5, 61);
  const auto topo = harness::Table2Topology();
  harness::ConfigureNetwork(topo, &network);
  helios::core::HeliosConfig hc;
  hc.num_datacenters = 5;
  hc.fault_tolerance = fault_tolerance;
  hc.clock_offsets = clock_offsets;
  hc.commit_offsets = std::move(commit_offsets);
  helios::core::HeliosCluster cluster(&scheduler, &network, std::move(hc));
  helios::workload::WorkloadConfig wl;
  wl.num_keys = 10000;
  for (uint64_t i = 0; i < wl.num_keys; ++i) {
    cluster.LoadInitialAll(helios::workload::TYcsbGenerator::KeyName(i),
                           "init");
  }
  cluster.Start();
  std::vector<std::unique_ptr<helios::workload::ClosedLoopClient>> clients;
  const auto end = Seconds(3) + bench::Scaled(Seconds(10));
  for (int c = 0; c < 60; ++c) {
    clients.push_back(std::make_unique<helios::workload::ClosedLoopClient>(
        c, c % 5, &cluster, &scheduler, wl, 61 + c, Seconds(3), end, end));
    clients.back()->Start();
  }
  scheduler.RunUntil(end + Seconds(3));
  std::vector<helios::workload::ClientMetrics> per_dc(5);
  for (int c = 0; c < 60; ++c) per_dc[c % 5].Merge(clients[c]->metrics());
  double sum = 0.0;
  for (const auto& m : per_dc) sum += m.commit_latency_ms.mean();
  return sum / 5.0;
}

void OffsetPlanAblation() {
  namespace lp = helios::lp;
  bench::PrintHeading(
      "Ablation G: offset plan, Eq. 5 vs even split (Table 2, avg ms)");
  const auto topo = harness::Table2Topology();
  struct Case {
    const char* name;
    std::vector<Duration> clock_offsets;
    lp::RttMatrix estimate;
  };
  const std::vector<Case> cases = {
      {"synchronized", {}, topo.rtt_ms},
      {"skew {+24,-60,+120,-10,+55}",
       {Millis(24), -Millis(60), Millis(120), -Millis(10), Millis(55)},
       topo.rtt_ms},
      {"RTT estimation 1", {}, bench::RttEstimate1(topo)},
  };
  TablePrinter table(
      {"protocol", "case", "Eq. 5", "even split", "even - Eq. 5"});
  for (int f = 0; f <= 2; ++f) {
    for (const Case& c : cases) {
      std::fprintf(stderr, "offset plan: Helios-%d, %s...\n", f, c.name);
      const auto latencies = lp::SolveMao(c.estimate).value();
      const auto eq5_ms = lp::CommitOffsetsFromLatencies(c.estimate, latencies);
      std::vector<std::vector<Duration>> eq5(5, std::vector<Duration>(5, 0));
      for (int a = 0; a < 5; ++a) {
        for (int b = 0; b < 5; ++b) {
          eq5[a][b] = std::llround(eq5_ms[a][b] * 1000.0);
        }
      }
      const double paper = OffsetPlanRun(f, std::move(eq5), c.clock_offsets);
      const double even = OffsetPlanRun(
          f, lp::EvenSplitOffsetsUs(latencies), c.clock_offsets);
      table.AddRow({"Helios-" + std::to_string(f), c.name,
                    TablePrinter::Num(paper, 1), TablePrinter::Num(even, 1),
                    TablePrinter::Num(even - paper, 1)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "Both plans give Eq. 4 the same mean-model latencies, and Rule 1 holds "
      "for both;\nthe even split installs co-sum = 0 on every pair, so peers "
      "that Eq. 5 leaves\nslack no longer bind a commit whenever jitter, skew "
      "or an estimation error\ndelays them.\n");
}

struct DisciplineRun {
  double avg_latency_ms = 0.0;
  uint64_t steps = 0;
  bool serializable = false;
};

/// Helios-0 on Table 2 with 60 closed-loop clients under `clock_offsets`,
/// every clock disciplined when `discipline` is set. The warm-up covers
/// the discipline's convergence.
DisciplineRun DisciplineRunOf(const std::vector<Duration>& clock_offsets,
                              bool discipline) {
  helios::sim::Scheduler scheduler;
  helios::sim::Network network(&scheduler, 5, 81);
  const auto topo = harness::Table2Topology();
  harness::ConfigureNetwork(topo, &network);
  helios::core::HeliosConfig hc;
  hc.num_datacenters = 5;
  hc.clock_offsets = clock_offsets;
  hc.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  helios::core::HeliosCluster cluster(&scheduler, &network, std::move(hc));
  if (discipline) {
    for (helios::DcId dc = 0; dc < 5; ++dc) {
      helios::sim::Clock* clock = &cluster.clock(dc);
      cluster.node(dc).set_clock_step_sink([clock](Duration step) {
        clock->set_offset(clock->offset() + step);
      });
    }
  }
  helios::workload::WorkloadConfig wl;
  wl.num_keys = 10000;
  for (uint64_t i = 0; i < wl.num_keys; ++i) {
    cluster.LoadInitialAll(helios::workload::TYcsbGenerator::KeyName(i),
                           "init");
  }
  cluster.Start();
  std::vector<std::unique_ptr<helios::workload::ClosedLoopClient>> clients;
  const Duration warmup = Seconds(8);
  const Duration end = warmup + bench::Scaled(Seconds(10));
  for (int c = 0; c < 60; ++c) {
    clients.push_back(std::make_unique<helios::workload::ClosedLoopClient>(
        c, c % 5, &cluster, &scheduler, wl, 81 + c, warmup, end, end));
    clients.back()->Start();
  }
  scheduler.RunUntil(end + Seconds(3));
  std::vector<helios::workload::ClientMetrics> per_dc(5);
  for (int c = 0; c < 60; ++c) per_dc[c % 5].Merge(clients[c]->metrics());
  DisciplineRun out;
  for (const auto& m : per_dc) out.avg_latency_ms += m.commit_latency_ms.mean();
  out.avg_latency_ms /= 5.0;
  for (helios::DcId dc = 0; dc < 5; ++dc) {
    out.steps += cluster.node(dc).clock_step_stats().steps;
  }
  out.serializable =
      helios::core::CheckSerializable(cluster.history().commits()).ok();
  return out;
}

void ClockDisciplineAblation() {
  bench::PrintHeading(
      "Ablation H: Fig. 5 skews with disciplined clocks (Helios-0, Table 2, "
      "avg ms)");
  struct Case {
    const char* name;
    std::vector<Duration> clock_offsets;
  };
  const std::vector<Case> cases = {
      {"synchronized", {}},
      {"V +100ms", {Millis(100), 0, 0, 0, 0}},
      {"V -100ms", {-Millis(100), 0, 0, 0, 0}},
      {"skew {+24,-60,+120,-10,+55}",
       {Millis(24), -Millis(60), Millis(120), -Millis(10), Millis(55)}},
  };
  TablePrinter table({"case", "undisciplined", "disciplined", "steps",
                      "serializable"});
  for (const Case& c : cases) {
    std::fprintf(stderr, "clock discipline: %s...\n", c.name);
    const DisciplineRun off = DisciplineRunOf(c.clock_offsets, false);
    const DisciplineRun on = DisciplineRunOf(c.clock_offsets, true);
    table.AddRow({c.name, TablePrinter::Num(off.avg_latency_ms, 1),
                  TablePrinter::Num(on.avg_latency_ms, 1),
                  std::to_string(on.steps),
                  off.serializable && on.serializable ? "yes" : "NO"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "Stepping clocks forward until every pair's apparent one-way delays "
      "are\nsymmetric removes what skew adds to Rule 2's wait; the averages "
      "are over\nthe 10 s after an 8 s warm-up, which covers the "
      "convergence.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::ParseBenchArgsOrDie(argc, argv);
  const std::vector<harness::ExperimentResult> results =
      bench::RunSweepOrDie(SweepableSpecs(), args);
  const harness::ExperimentResult* cursor = results.data();
  LogIntervalAblation(cursor);
  cursor += std::size(kLogIntervals);
  GraceTimeAblation();
  ContentionAblation(cursor);
  cursor += std::size(kContentionProtocols) * std::size(kThetas);
  ReadOnlyAblation(cursor);
  WireSizeAblation();
  AdaptiveOffsetsAblation();
  OffsetPlanAblation();
  ClockDisciplineAblation();
  return 0;
}
