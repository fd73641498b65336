// Tests for the clock discipline (core::ClockDiscipline): the estimator on
// synthetic samples, and whole simulated Helios deployments whose clocks
// the test disciplines by installing a step sink on every node. The
// simulated deployments themselves never install one (their clock offsets
// are the experiment's input), so these runs are the only place the
// discipline meets Table 2's jitter and Fig. 5's skew vectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/clock_discipline.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "workload/client.h"
#include "workload/tycsb.h"

namespace helios::core {
namespace {

// --- The estimator on synthetic samples ------------------------------------

/// Feeds `node` one gossip sample per tick from `peer` whose clock runs
/// `ahead` of node's over a symmetric `one_way` path, with the peer
/// reporting the mirror image, for `ticks` ticks of 10 ms.
void FeedSymmetric(ClockDiscipline* node, DcId peer, Duration one_way,
                   Duration* ahead, int ticks, sim::SimTime* now) {
  for (int i = 0; i < ticks; ++i) {
    *now += Millis(10);
    const Timestamp local = *now;
    // The peer stamps its send at local - one_way on node's clock, which
    // reads local - one_way + ahead on the peer's; the envelope it sends
    // reports δ(node→peer) = one_way + ahead.
    node->OnGossip(peer, local - one_way + *ahead, local, one_way + *ahead,
                   *now);
    node->Tick(*now);
  }
}

TEST(ClockDisciplineTest, StepsForwardToAPeerThatRunsAhead) {
  Duration ahead = Millis(40);
  std::vector<Duration> steps;
  ClockDiscipline node(0, 2, Millis(10), [&](Duration s) {
    steps.push_back(s);
    ahead -= s;  // The node's clock moves toward the peer's.
  });
  sim::SimTime now = 0;
  FeedSymmetric(&node, 1, Millis(20), &ahead, 100, &now);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0], Millis(40));
  EXPECT_EQ(node.stats().steps, 1u);
  EXPECT_EQ(node.stats().stepped_us, Millis(40));
  EXPECT_EQ(ahead, 0);
}

TEST(ClockDisciplineTest, NeverStepsBackwardToAPeerThatRunsBehind) {
  Duration ahead = -Millis(40);
  ClockDiscipline node(0, 2, Millis(10), [&](Duration) { FAIL(); });
  sim::SimTime now = 0;
  FeedSymmetric(&node, 1, Millis(20), &ahead, 100, &now);
  EXPECT_EQ(node.stats().steps, 0u);
}

TEST(ClockDisciplineTest, ReportsItsInboundMedianOnceItHasEnoughSamples) {
  ClockDiscipline node(0, 2, Millis(10), [](Duration) {});
  EXPECT_FALSE(node.ReportFor(1).has_value());
  for (int i = 1; i <= ClockDiscipline::kMinSamples; ++i) {
    // Negative apparent delays are legal: the peer's clock runs ahead.
    node.OnGossip(1, Millis(100) * i, Millis(100) * i - Millis(3),
                  std::nullopt, Millis(10) * i);
  }
  ASSERT_TRUE(node.ReportFor(1).has_value());
  EXPECT_EQ(*node.ReportFor(1), -Millis(3));
}

TEST(ClockDisciplineTest, CorruptStampsAndReportsAreIgnored) {
  ClockDiscipline node(0, 2, Millis(10), [](Duration) { FAIL(); });
  // A stamp that would overflow the delay, and one absurdly far out.
  node.OnGossip(1, std::numeric_limits<Timestamp>::min(), Seconds(1),
                std::nullopt, Millis(10));
  node.OnGossip(1, -Seconds(86400 * 365), Seconds(1), std::nullopt,
                Millis(20));
  EXPECT_FALSE(node.ReportFor(1).has_value());
  // A sane sample carrying a report that would overflow the round trip.
  for (int i = 1; i <= 40; ++i) {
    node.OnGossip(1, Millis(10) * i - Millis(20), Millis(10) * i,
                  std::numeric_limits<Duration>::max(), Millis(10) * i);
    node.Tick(Millis(10) * i);
  }
  EXPECT_EQ(*node.ReportFor(1), Millis(20));
  EXPECT_EQ(node.stats().steps, 0u);
}

#if GTEST_HAS_DEATH_TEST
TEST(ClockDisciplineDeathTest, BackwardStepAborts) {
  ClockDiscipline node(0, 2, Millis(10), [](Duration) {});
  EXPECT_DEATH(node.Step(-1, 0), "check failed: .*never steps backward");
}
#endif

// --- Simulated deployments with disciplined clocks ------------------------

struct StepEvent {
  sim::SimTime at = 0;
  DcId dc = kInvalidDc;
  Duration step = 0;
};

struct Outcome {
  double avg_latency_ms = 0.0;
  std::vector<StepEvent> steps;
  Status serializable;

  /// Total stepped by `dc` at or after `from`.
  Duration SteppedSince(DcId dc, sim::SimTime from) const {
    Duration total = 0;
    for (const StepEvent& e : steps) {
      if (e.dc == dc && e.at >= from) total += e.step;
    }
    return total;
  }
};

struct RunSpec {
  int fault_tolerance = 0;
  std::vector<Duration> clock_offsets;
  int clients = 30;
  Duration measure_from = Seconds(8);
  Duration measure_until = Seconds(18);
  /// Gray link faults installed on the WAN (none by default).
  std::vector<sim::GrayFault> gray_faults;
};

/// Table 2 with its stddevs and T-YCSB closed-loop clients, every node's
/// clock disciplined through a sink the test installs.
Outcome RunTable2(const RunSpec& spec) {
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 5, 71);
  const harness::Topology topo = harness::Table2Topology();
  harness::ConfigureNetwork(topo, &network);
  if (!spec.gray_faults.empty()) {
    sim::FaultPlan plan;
    plan.gray_faults = spec.gray_faults;
    EXPECT_TRUE(network.InstallGrayFaults(plan).ok());
  }
  HeliosConfig config;
  config.num_datacenters = 5;
  config.fault_tolerance = spec.fault_tolerance;
  config.clock_offsets = spec.clock_offsets;
  config.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  HeliosCluster cluster(&scheduler, &network, config);

  Outcome out;
  for (DcId dc = 0; dc < 5; ++dc) {
    sim::Clock* clock = &cluster.clock(dc);
    cluster.node(dc).set_clock_step_sink([&, clock, dc](Duration step) {
      out.steps.push_back(StepEvent{scheduler.Now(), dc, step});
      clock->set_offset(clock->offset() + step);
    });
  }
  workload::WorkloadConfig wl;
  wl.num_keys = 10000;
  for (uint64_t i = 0; i < wl.num_keys; ++i) {
    cluster.LoadInitialAll(workload::TYcsbGenerator::KeyName(i), "init");
  }
  cluster.Start();
  std::vector<std::unique_ptr<workload::ClosedLoopClient>> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<workload::ClosedLoopClient>(
        c, c % 5, &cluster, &scheduler, wl, 71 + c, spec.measure_from,
        spec.measure_until, spec.measure_until));
    clients.back()->Start();
  }
  scheduler.RunUntil(spec.measure_until + Seconds(2));
  std::vector<workload::ClientMetrics> per_dc(5);
  for (int c = 0; c < spec.clients; ++c) {
    per_dc[static_cast<size_t>(c % 5)].Merge(clients[c]->metrics());
  }
  for (const auto& m : per_dc) out.avg_latency_ms += m.commit_latency_ms.mean();
  out.avg_latency_ms /= 5.0;
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_EQ(cluster.node(dc).clock_step_stats().steps,
              static_cast<uint64_t>(std::count_if(
                  out.steps.begin(), out.steps.end(),
                  [dc](const StepEvent& e) { return e.dc == dc; })));
  }
  out.serializable = CheckSerializable(cluster.history().commits());
  return out;
}

void ExpectNoBackwardStep(const Outcome& out) {
  for (const StepEvent& e : out.steps) {
    EXPECT_GT(e.step, 0) << "dc" << e.dc << " at " << e.at;
  }
}

/// Synchronized clocks under Table 2's jitter: no node ever steps.
void ExpectJitterAloneNeverSteps(int fault_tolerance) {
  RunSpec spec;
  spec.fault_tolerance = fault_tolerance;
  spec.clients = 10;
  spec.measure_from = Seconds(1);
  spec.measure_until = Seconds(30);
  const Outcome out = RunTable2(spec);
  EXPECT_TRUE(out.steps.empty()) << out.steps.size() << " steps, the first "
                                 << out.steps.front().step << " us at dc"
                                 << out.steps.front().dc;
}

TEST(DisciplinedTable2Test, JitterAloneNeverTriggersAStep) {
  ExpectJitterAloneNeverSteps(0);
}

// Helios-1 adds Rule 3's receipt acks, sent off the tick with a stale
// T[sender][sender]. They are not clock samples, so they must not step a
// clock either.
TEST(DisciplinedTable2Test, JitterAloneNeverTriggersAStepWithAcks) {
  ExpectJitterAloneNeverSteps(1);
}

/// Fig. 5's skew vector `skew`, disciplined: by 8 s the clocks have
/// converged up to stragglers of one deadband, Helios-0's average over the
/// next 10 s is within 1 ms of the synchronized run, and Helios-0/1/2 stay
/// serializable.
void ExpectFig5SkewConverges(const std::vector<Duration>& skew) {
  const Outcome synced = RunTable2(RunSpec{});
  RunSpec spec;
  spec.clock_offsets = skew;
  const Outcome out = RunTable2(spec);
  ExpectNoBackwardStep(out);
  EXPECT_FALSE(out.steps.empty());
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_LT(out.SteppedSince(dc, spec.measure_from), Millis(5))
        << "dc" << dc << " still converging";
  }
  EXPECT_NEAR(out.avg_latency_ms, synced.avg_latency_ms, 1.0);
  for (int f = 0; f <= 2; ++f) {
    RunSpec checked = spec;
    checked.fault_tolerance = f;
    checked.clients = 15;
    checked.measure_until = Seconds(10);
    const Outcome run = f == 0 ? out : RunTable2(checked);
    EXPECT_TRUE(run.serializable.ok())
        << "Helios-" << f << ": " << run.serializable.ToString();
    ExpectNoBackwardStep(run);
  }
}

TEST(DisciplinedTable2Test, VirginiaAheadConverges) {
  ExpectFig5SkewConverges({Millis(100), 0, 0, 0, 0});
}

TEST(DisciplinedTable2Test, VirginiaBehindConverges) {
  ExpectFig5SkewConverges({-Millis(100), 0, 0, 0, 0});
}

TEST(DisciplinedTable2Test, RandomSkewConverges) {
  ExpectFig5SkewConverges(
      {Millis(24), -Millis(60), Millis(120), -Millis(10), Millis(55)});
}

TEST(DisciplinedTable2Test, CyclicAsymmetryStepsABoundedAmountThenStops) {
  // V -> O -> C -> V each 30 ms slower than the way back: a cycle that no
  // clock offsets can make symmetric.
  RunSpec spec;
  spec.clients = 10;
  spec.measure_from = Seconds(1);
  spec.measure_until = Seconds(20);
  for (const auto& [from, to] : {std::pair{0, 1}, {1, 2}, {2, 0}}) {
    sim::GrayFault slow;
    slow.kind = sim::GrayFaultKind::kSlowLink;
    slow.a = from;
    slow.b = to;
    slow.extra_delay = Millis(30);
    spec.gray_faults.push_back(slow);
  }
  const Outcome out = RunTable2(spec);
  ExpectNoBackwardStep(out);
  for (DcId dc = 0; dc < 5; ++dc) {
    EXPECT_LE(out.SteppedSince(dc, 0), Millis(30)) << "dc" << dc;
    EXPECT_EQ(out.SteppedSince(dc, Seconds(10)), 0) << "dc" << dc;
  }
}

}  // namespace
}  // namespace helios::core
