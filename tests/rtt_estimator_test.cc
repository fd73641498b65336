// Tests for online RTT estimation and runtime offset replanning: accuracy
// against the configured topology, skew immunity, matrix gossip, and the
// end-to-end adaptation loop (an RTT shift degrades latency; replanning
// recovers it; serializability holds throughout).

#include <gtest/gtest.h>

#include <memory>

#include "core/helios_cluster.h"
#include "core/history.h"
#include "core/rtt_estimator.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace helios::core {
namespace {

TEST(RttEstimatorUnitTest, SingleExchangeProducesSample) {
  RttEstimator a(0, 2);
  RttEstimator b(1, 2);
  Envelope ping(2);
  ping.log.from = 0;
  a.StampOutgoing(1, /*now=*/1000, &ping);
  EXPECT_GT(ping.ping_id, 0u);

  // B receives 20ms later, holds 7ms, replies.
  b.OnIncoming(0, /*now=*/21000, ping);
  Envelope pong(2);
  pong.log.from = 1;
  b.StampOutgoing(0, /*now=*/28000, &pong);
  EXPECT_EQ(pong.pong_for, ping.ping_id);
  EXPECT_EQ(pong.pong_hold_us, 7000);

  // A receives the pong another 20ms later: sample = 47ms - 7ms = 40ms.
  a.OnIncoming(1, /*now=*/48000, pong);
  EXPECT_EQ(a.EstimatedRttTo(1), 40000);
  EXPECT_EQ(a.samples(), 1u);
}

TEST(RttEstimatorUnitTest, EwmaSmoothsSamples) {
  RttEstimator a(0, 2);
  RttEstimator b(1, 2);
  Timestamp now_a = 0;
  Timestamp now_b = 0;
  Duration rtt = 40000;
  for (int i = 0; i < 30; ++i) {
    Envelope ping(2);
    a.StampOutgoing(1, now_a, &ping);
    now_b = now_a + rtt / 2;
    b.OnIncoming(0, now_b, ping);
    Envelope pong(2);
    b.StampOutgoing(0, now_b, &pong);
    now_a = now_b + rtt / 2;
    a.OnIncoming(1, now_a, pong);
    if (i == 15) rtt = 80000;  // The link degrades.
  }
  // Converged toward the new value.
  EXPECT_GT(a.EstimatedRttTo(1), 60000);
  EXPECT_LE(a.EstimatedRttTo(1), 81000);
}

TEST(RttEstimatorUnitTest, RowGossipCompletesTheMatrix) {
  RttEstimator a(0, 3);
  Envelope env(3);
  env.log.from = 1;
  env.ping_id = 5;
  env.rtt_row_us = {33000, 0, 44000};  // B's estimates to A and C.
  a.OnIncoming(1, 1000, env);
  Envelope env2(3);
  env2.log.from = 2;
  env2.ping_id = 9;
  env2.rtt_row_us = {55000, 44500, 0};
  a.OnIncoming(2, 2000, env2);
  EXPECT_FALSE(a.MatrixComplete());  // Own row still empty.
  // Fake own samples via a full exchange with each peer.
  for (DcId peer : {1, 2}) {
    Envelope ping(3);
    a.StampOutgoing(peer, 10000, &ping);
    Envelope pong(3);
    pong.log.from = peer;
    pong.pong_for = ping.ping_id;
    pong.pong_hold_us = 0;
    a.OnIncoming(peer, 10000 + 30000, pong);
  }
  ASSERT_TRUE(a.MatrixComplete());
  const lp::RttMatrix m = a.MatrixMs();
  // Pair (1,2) comes purely from gossip: average of 44 and 44.5.
  EXPECT_NEAR(m.Get(1, 2), 44.25, 0.01);
  // Pair (0,1): average of our 30ms sample and B's advertised 33ms.
  EXPECT_NEAR(m.Get(0, 1), 31.5, 0.1);
}

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
    cfg.estimate_rtts = true;
    cfg.log_interval = Millis(5);
    cfg.clock_offsets = std::move(clock_offsets);
    cluster = std::make_unique<HeliosCluster>(&scheduler, network.get(),
                                              std::move(cfg));
    cluster->Start();
  }
};

TEST(RttEstimationIntegrationTest, EstimatesMatchConfiguredTopology) {
  const auto topo = harness::Table2Topology();
  EstimationRig rig(topo);
  rig.scheduler.RunUntil(Seconds(5));
  for (DcId dc = 0; dc < topo.size(); ++dc) {
    const RttEstimator* est = rig.cluster->node(dc).rtt_estimator();
    ASSERT_NE(est, nullptr);
    ASSERT_TRUE(est->MatrixComplete()) << "dc " << dc;
    const lp::RttMatrix m = est->MatrixMs();
    for (int a = 0; a < topo.size(); ++a) {
      for (int b = a + 1; b < topo.size(); ++b) {
        // Within 15% of the configured mean despite the link jitter and
        // tick-hold correction.
        EXPECT_NEAR(m.Get(a, b), topo.rtt_ms.Get(a, b),
                    topo.rtt_ms.Get(a, b) * 0.15 + 2.0)
            << "pair " << a << "," << b << " at dc " << dc;
      }
    }
  }
}

TEST(RttEstimationIntegrationTest, SkewDoesNotBiasEstimates) {
  const auto topo = harness::UniformTopology(3, 60.0);
  EstimationRig rig(topo, {Millis(150), -Millis(120), 0});
  rig.scheduler.RunUntil(Seconds(4));
  const RttEstimator* est = rig.cluster->node(0).rtt_estimator();
  ASSERT_TRUE(est->MatrixComplete());
  const lp::RttMatrix m = est->MatrixMs();
  EXPECT_NEAR(m.Get(0, 1), 60.0, 6.0);
  EXPECT_NEAR(m.Get(0, 2), 60.0, 6.0);
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
    (void)rig.cluster->ReplanOffsetsFromEstimates();
  });
  rig.scheduler.At(Seconds(8), [&] {
    (void)rig.cluster->ReplanOffsetsFromEstimates(1);
  });
  rig.scheduler.RunUntil(Seconds(20));
  *step = nullptr;  // Breaks the closure's reference to itself.
  EXPECT_GT(rig.cluster->history().size(), 200u);
  const Status ser = CheckSerializable(rig.cluster->history().commits());
  EXPECT_TRUE(ser.ok()) << ser.ToString();
}

TEST(RttEstimationIntegrationTest, ReplanFailsCleanlyWithoutEstimation) {
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 2, 1);
  harness::ConfigureNetwork(harness::UniformTopology(2, 40.0), &network);
  HeliosConfig cfg;
  cfg.num_datacenters = 2;
  HeliosCluster cluster(&scheduler, &network, std::move(cfg));
  auto result = cluster.ReplanOffsetsFromEstimates();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace helios::core
