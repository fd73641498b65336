// Tests for the clock discipline (core::ClockDiscipline), every Helios
// node's delay estimator: the estimator on synthetic samples; the round
// trips it measures on simulated deployments, which install no step sink
// (their clock offsets are the experiment's input), and the offset replan
// built on them; and whole simulated deployments whose clocks the test
// disciplines by installing a step sink on every node, the only place the
// steps meet Table 2's jitter and Fig. 5's skew vectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
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

TEST(ClockDisciplineTest, WithoutASinkMeasuresAndReportsButNeverSteps) {
  ClockDiscipline node(0, 2, Millis(10));
  EXPECT_FALSE(node.has_sink());
  Duration ahead = Millis(50);
  sim::SimTime now = 0;
  FeedSymmetric(&node, 1, Millis(20), &ahead,
                ClockDiscipline::kMinRttSamples - 1, &now);
  EXPECT_FALSE(node.RttTo(1).has_value());
  // The peer runs 50 ms ahead over a 20 ms path: every envelope appears to
  // arrive 30 ms before it was sent, and that is what the node reports.
  ASSERT_TRUE(node.ReportFor(1).has_value());
  EXPECT_EQ(*node.ReportFor(1), Millis(20) - Millis(50));
  FeedSymmetric(&node, 1, Millis(20), &ahead, 1, &now);
  ASSERT_TRUE(node.RttTo(1).has_value());
  EXPECT_EQ(*node.RttTo(1), 2 * Millis(20));
  FeedSymmetric(&node, 1, Millis(20), &ahead, 100, &now);
  EXPECT_EQ(node.stats().steps, 0u);
  EXPECT_EQ(ahead, Millis(50));
  EXPECT_EQ(*node.RttTo(1), 2 * Millis(20));
  EXPECT_FALSE(node.RttTo(0).has_value());  // Itself: never sampled.
}

#if GTEST_HAS_DEATH_TEST
TEST(ClockDisciplineDeathTest, BackwardStepAborts) {
  ClockDiscipline node(0, 2, Millis(10), [](Duration) {});
  EXPECT_DEATH(node.Step(-1, 0), "check failed: .*never steps backward");
}

TEST(ClockDisciplineDeathTest, StepWithoutASinkAborts) {
  ClockDiscipline node(0, 2, Millis(10));
  EXPECT_DEATH(node.Step(Millis(1), 0), "check failed: .*without a step sink");
}
#endif

// --- Measured round trips on simulated deployments (no sink) --------------

struct EstimationRig {
  sim::Scheduler scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<HeliosCluster> cluster;

  explicit EstimationRig(const harness::Topology& topo,
                         std::vector<Duration> clock_offsets = {}) {
    network = std::make_unique<sim::Network>(&scheduler, topo.size(), 9);
    harness::ConfigureNetwork(topo, network.get());
    HeliosConfig cfg;
    cfg.num_datacenters = topo.size();
    cfg.log_interval = Millis(5);
    cfg.clock_offsets = std::move(clock_offsets);
    cluster = std::make_unique<HeliosCluster>(&scheduler, network.get(),
                                              std::move(cfg));
    cluster->Start();
  }

  /// dc's measured RTT to `peer` in milliseconds; -1 if it has none.
  double RttMs(DcId dc, DcId peer) const {
    const std::optional<Duration> rtt = cluster->node(dc).MeasuredRttTo(peer);
    return rtt.has_value() ? ToMillis(*rtt) : -1.0;
  }
};

TEST(RttEstimationIntegrationTest, EstimatesMatchConfiguredTopology) {
  const auto topo = harness::Table2Topology();
  EstimationRig rig(topo);
  rig.scheduler.RunUntil(Seconds(5));
  for (DcId dc = 0; dc < topo.size(); ++dc) {
    for (DcId peer = 0; peer < topo.size(); ++peer) {
      if (peer == dc) continue;
      // Within 15% of the configured mean despite the link jitter and
      // tick alignment.
      EXPECT_NEAR(rig.RttMs(dc, peer), topo.rtt_ms.Get(dc, peer),
                  topo.rtt_ms.Get(dc, peer) * 0.15 + 2.0)
          << "dc" << dc << " to dc" << peer;
    }
  }
}

TEST(RttEstimationIntegrationTest, SkewDoesNotBiasEstimates) {
  const auto topo = harness::UniformTopology(3, 60.0);
  EstimationRig rig(topo, {Millis(150), -Millis(120), 0});
  rig.scheduler.RunUntil(Seconds(4));
  for (DcId dc = 0; dc < 3; ++dc) {
    for (DcId peer = 0; peer < 3; ++peer) {
      if (peer != dc) {
        EXPECT_NEAR(rig.RttMs(dc, peer), 60.0, 6.0)
            << "dc" << dc << " to dc" << peer;
      }
    }
  }
}

TEST(RttEstimationIntegrationTest, ReplanAdaptsToRttShift) {
  // Start with Helios-B (no offsets) on Table 2; once estimates converge,
  // replanning should roughly reproduce the static MAO plan's latencies.
  const auto topo = harness::Table2Topology();
  EstimationRig rig(topo);

  auto commit_latency_at = [&](DcId dc) {
    Duration latency = -1;
    const sim::SimTime start = rig.scheduler.Now();
    rig.cluster->ClientCommit(dc, {},
                              {{"probe" + std::to_string(start), "v"}},
                              [&](const CommitOutcome& o) {
                                if (o.committed) {
                                  latency = rig.scheduler.Now() - start;
                                }
                              });
    rig.scheduler.RunUntil(rig.scheduler.Now() + Seconds(3));
    return latency;
  };

  rig.scheduler.RunUntil(Seconds(4));  // Let estimates converge.
  const Duration before = commit_latency_at(1);  // Oregon, Helios-B.
  ASSERT_GT(before, 0);

  auto replanned = rig.cluster->ReplanOffsetsFromEstimates();
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  EXPECT_NEAR(replanned.value(), 90.6, 8.0);  // Near the true MAO average.

  const Duration after = commit_latency_at(1);
  ASSERT_GT(after, 0);
  // Helios-B put Oregon at ~max one-way (105ms); MAO plans ~10ms.
  EXPECT_LT(after, before / 2);
  EXPECT_LT(after, Millis(40));
}

TEST(RttEstimationIntegrationTest, ReplanKeepsHistorySerializable) {
  const auto topo = harness::UniformTopology(3, 50.0);
  EstimationRig rig(topo);
  auto rng = std::make_shared<Rng>(77);
  auto step = std::make_shared<std::function<void(DcId)>>();
  *step = [&, rng, step](DcId dc) {
    if (rig.scheduler.Now() > Seconds(12)) return;
    rig.cluster->ClientCommit(
        dc, {}, {{"k" + std::to_string(rng->Uniform(30)), "v"}},
        [step, dc](const CommitOutcome&) { (*step)(dc); });
  };
  for (DcId dc = 0; dc < 3; ++dc) {
    rig.scheduler.At(Millis(dc + 1), [step, dc] { (*step)(dc); });
    rig.scheduler.At(Millis(dc + 2), [step, dc] { (*step)(dc); });
  }
  // Replan mid-run, twice.
  rig.scheduler.At(Seconds(5), [&] {
    EXPECT_TRUE(rig.cluster->ReplanOffsetsFromEstimates().ok());
  });
  rig.scheduler.At(Seconds(8), [&] {
    EXPECT_TRUE(rig.cluster->ReplanOffsetsFromEstimates().ok());
  });
  rig.scheduler.RunUntil(Seconds(20));
  *step = nullptr;  // Breaks the closure's reference to itself.
  EXPECT_GT(rig.cluster->history().size(), 200u);
  const Status ser = CheckSerializable(rig.cluster->history().commits());
  EXPECT_TRUE(ser.ok()) << ser.ToString();
}

TEST(RttEstimationIntegrationTest, ReplanFailsCleanlyWithoutEstimation) {
  // Before any gossip no node has measured a round trip.
  EstimationRig rig(harness::UniformTopology(2, 40.0));
  auto result = rig.cluster->ReplanOffsetsFromEstimates();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(RttEstimationIntegrationTest, SkewedClocksWithoutASinkNeverStep) {
  const std::vector<Duration> skew = {Millis(150), -Millis(120), Millis(40)};
  EstimationRig rig(harness::UniformTopology(3, 60.0), skew);
  const auto expect_untouched = [&](const char* when) {
    for (DcId dc = 0; dc < 3; ++dc) {
      EXPECT_EQ(rig.cluster->node(dc).clock_step_stats().steps, 0u)
          << "dc" << dc << " " << when;
      EXPECT_EQ(rig.cluster->clock(dc).offset(), skew[static_cast<size_t>(dc)])
          << "dc" << dc << " " << when;
    }
  };
  rig.scheduler.RunUntil(Seconds(4));
  expect_untouched("after 4 s");
  // A recovering node restores from its WAL; without a sink it must not
  // step its clock up to the restored floor either.
  rig.scheduler.At(Millis(4100), [&] { rig.cluster->CrashDatacenter(1); });
  rig.scheduler.At(Millis(4600), [&] { rig.cluster->RecoverDatacenter(1); });
  rig.scheduler.RunUntil(Seconds(7));
  expect_untouched("after dc1 crashed and recovered");
  // The restarted node measures again from scratch.
  EXPECT_NEAR(rig.RttMs(1, 0), 60.0, 6.0);
  EXPECT_NEAR(rig.RttMs(0, 1), 60.0, 6.0);
}

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
  cluster.LoadInitialAll(workload::TYcsbGenerator::Preload(wl.num_keys));
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
