// Tests for the experiment harness: topology construction, protocol
// factory coverage, determinism, metric sanity, and cross-protocol
// serializability through the full pipeline. Uses parameterized tests to
// sweep the protocol lineup.

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/topology.h"

namespace helios::harness {
namespace {

ExperimentConfig SmallConfig(Protocol p) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.topology = Table2Topology();
  cfg.total_clients = 15;
  cfg.warmup = Seconds(2);
  cfg.measure = Seconds(5);
  cfg.workload.num_keys = 2000;
  cfg.check_serializability = true;
  return cfg;
}

TEST(TopologyTest, Table2MatchesPaper) {
  const Topology t = Table2Topology();
  ASSERT_EQ(t.size(), 5);
  EXPECT_EQ(t.names[0], "V");
  EXPECT_EQ(t.names[4], "S");
  EXPECT_DOUBLE_EQ(t.rtt_ms.Get(0, 4), 268.0);
  EXPECT_DOUBLE_EQ(t.rtt_ms.Get(1, 2), 19.0);
  EXPECT_DOUBLE_EQ(t.rtt_ms.Get(4, 0), 268.0);  // Symmetric.
}

TEST(TopologyTest, UniformTopology) {
  const Topology t = UniformTopology(4, 55.0, 3.0);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      EXPECT_DOUBLE_EQ(t.rtt_ms.Get(a, b), 55.0);
      EXPECT_DOUBLE_EQ(t.rtt_stddev_ms.Get(a, b), 3.0);
    }
  }
}

TEST(TopologyTest, ConfigureNetworkAppliesRtts) {
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, 5, 1);
  ConfigureNetwork(Table2Topology(), &network);
  EXPECT_EQ(network.MeanRtt(0, 4), Millis(268));
  EXPECT_EQ(network.MeanRtt(1, 2), Millis(19));
}

TEST(ProtocolNameTest, AllNamed) {
  for (Protocol p :
       {Protocol::kHelios0, Protocol::kHelios1, Protocol::kHelios2,
        Protocol::kHeliosB, Protocol::kMessageFutures,
        Protocol::kReplicatedCommit, Protocol::kTwoPcPaxos}) {
    EXPECT_STRNE(ProtocolName(p), "?");
  }
}

TEST(PlanCommitOffsetsTest, SatisfiesRule1AndMatchesMao) {
  const Topology topo = Table2Topology();
  const auto offsets = PlanCommitOffsets(topo, std::nullopt);
  ASSERT_EQ(offsets.size(), 5u);
  for (int a = 0; a < 5; ++a) {
    ASSERT_EQ(offsets[a].size(), 5u);
    EXPECT_EQ(offsets[a][a], 0);
    for (int b = a + 1; b < 5; ++b) {
      // Rule 1 with equality, to the microsecond.
      EXPECT_EQ(offsets[a][b] + offsets[b][a], 0) << a << "," << b;
    }
  }
  // Eq. 4 over the installed offsets returns MAO's assignment.
  const auto mao = lp::SolveMao(topo.rtt_ms).value();
  const auto estimated =
      lp::EstimateLatencies(topo.rtt_ms, lp::OffsetsMs(offsets));
  for (int a = 0; a < 5; ++a) {
    EXPECT_NEAR(estimated[a], mao[a], 1e-3) << topo.names[a];
  }
}

class ProtocolSweepTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolSweepTest, RunsAndIsSerializable) {
  const ExperimentResult r = RunExperiment(SmallConfig(GetParam()));
  EXPECT_EQ(r.protocol, ProtocolName(GetParam()));
  ASSERT_EQ(r.per_dc.size(), 5u);
  uint64_t committed = 0;
  for (const auto& dc : r.per_dc) {
    committed += dc.committed;
    EXPECT_GE(dc.abort_rate, 0.0);
    EXPECT_LE(dc.abort_rate, 1.0);
  }
  EXPECT_GT(committed, 100u) << "protocol made no progress";
  EXPECT_GT(r.total_throughput_ops_s, 0.0);
  EXPECT_GT(r.avg_latency_ms, 0.0);
  ASSERT_TRUE(r.serializability.has_value());
  EXPECT_TRUE(r.serializability->ok()) << r.serializability->ToString();
}

TEST_P(ProtocolSweepTest, DeterministicGivenSeed) {
  ExperimentConfig cfg = SmallConfig(GetParam());
  cfg.measure = Seconds(3);
  cfg.check_serializability = false;
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_EQ(a.total_throughput_ops_s, b.total_throughput_ops_s);
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.events_processed, b.events_processed);
  for (size_t dc = 0; dc < a.per_dc.size(); ++dc) {
    EXPECT_EQ(a.per_dc[dc].committed, b.per_dc[dc].committed);
    EXPECT_EQ(a.per_dc[dc].aborted, b.per_dc[dc].aborted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolSweepTest,
    ::testing::Values(Protocol::kHelios0, Protocol::kHelios1,
                      Protocol::kHelios2, Protocol::kHeliosB,
                      Protocol::kMessageFutures, Protocol::kReplicatedCommit,
                      Protocol::kTwoPcPaxos),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name = ProtocolName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ExperimentTest, OptimalLatenciesReported) {
  ExperimentConfig cfg = SmallConfig(Protocol::kHelios0);
  cfg.measure = Seconds(3);
  cfg.check_serializability = false;
  const ExperimentResult r = RunExperiment(cfg);
  ASSERT_EQ(r.optimal_latency_ms.size(), 5u);
  EXPECT_NEAR(r.optimal_avg_latency_ms, 90.6, 0.01);
}

TEST(ExperimentTest, HeliosLatencyTracksOptimalShape) {
  ExperimentConfig cfg = SmallConfig(Protocol::kHelios0);
  cfg.check_serializability = false;
  const ExperimentResult r = RunExperiment(cfg);
  // Measured latency stays within a small margin over the optimum per
  // datacenter, and the per-DC ordering follows the optimal assignment: O
  // and C fastest, S slowest. The floor is MAO over the metric closure
  // (85.1ms on Table 2, against the paper's 90.6ms): relayed knowledge can
  // bring a datacenter under its own MAO latency.
  const double floor_ms = lp::AverageLatency(
      lp::SolveMao(lp::MetricClosure(cfg.topology.rtt_ms)).value());
  EXPECT_NEAR(floor_ms, 85.1, 0.05);
  EXPECT_GT(r.avg_latency_ms, floor_ms);
  for (size_t dc = 0; dc < 5; ++dc) {
    EXPECT_LT(r.per_dc[dc].latency_mean_ms, r.optimal_latency_ms[dc] + 40.0);
  }
  EXPECT_LT(r.per_dc[1].latency_mean_ms, r.per_dc[0].latency_mean_ms);
  EXPECT_LT(r.per_dc[2].latency_mean_ms, r.per_dc[0].latency_mean_ms);
  EXPECT_GT(r.per_dc[4].latency_mean_ms, r.per_dc[0].latency_mean_ms);
}

TEST(ExperimentTest, MeasuredLatenciesRespectLemma1) {
  // Lemma 1 applied to the measured system: for every pair, the sum of
  // measured Helios-0 latencies must be at least the shortest-path RTT
  // between them (knowledge may be relayed through a third datacenter).
  ExperimentConfig cfg = SmallConfig(Protocol::kHelios0);
  cfg.check_serializability = false;
  const ExperimentResult r = RunExperiment(cfg);
  const Topology topo = Table2Topology();
  const lp::RttMatrix closure = lp::MetricClosure(topo.rtt_ms);
  EXPECT_DOUBLE_EQ(closure.Get(1, 3), 150.0);  // O-V-I.
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      EXPECT_GE(r.per_dc[a].latency_mean_ms + r.per_dc[b].latency_mean_ms,
                closure.Get(a, b))
          << topo.names[a] << "+" << topo.names[b];
    }
  }
}

TEST(ExperimentTest, SkewInjectionShiftsLatency) {
  ExperimentConfig base = SmallConfig(Protocol::kHelios0);
  base.check_serializability = false;
  const ExperimentResult synced = RunExperiment(base);

  ExperimentConfig skewed = base;
  skewed.clock_offsets = {Millis(100), 0, 0, 0, 0};
  const ExperimentResult ahead = RunExperiment(skewed);
  // Virginia's clock ahead: its own latency rises by roughly the skew
  // (Eq. 6), while the farthest peers are largely unaffected.
  EXPECT_GT(ahead.per_dc[0].latency_mean_ms,
            synced.per_dc[0].latency_mean_ms + 50.0);
}

TEST(ExperimentTest, RttEstimateOverrideChangesPlan) {
  ExperimentConfig cfg = SmallConfig(Protocol::kHelios0);
  cfg.check_serializability = false;
  cfg.measure = Seconds(4);
  lp::RttMatrix zero(5);
  cfg.rtt_estimate_ms = zero;  // "RTT estimation 2": all latencies planned 0.
  const ExperimentResult r = RunExperiment(cfg);
  // With zero offsets everywhere the commit wait becomes ~max one-way RTT,
  // so Oregon/California can no longer commit in ~15-30ms.
  EXPECT_GT(r.per_dc[1].latency_mean_ms, 80.0);
  EXPECT_GT(r.per_dc[2].latency_mean_ms, 80.0);
  // Serializability is preserved regardless of the estimate (Rule 1 holds
  // by construction).
}

#if GTEST_HAS_DEATH_TEST
// RunExperiment refuses a request it cannot run as asked in every build,
// NDEBUG included, instead of running a different experiment.
TEST(ExperimentDeathTest, InvalidFaultPlanAborts) {
  ExperimentConfig cfg = SmallConfig(Protocol::kHelios1);
  cfg.fault_plan.WithLoss(1.5);
  EXPECT_DEATH(RunExperiment(cfg), "check failed: .*invalid fault plan");
}

TEST(ExperimentDeathTest, ShardedBaselineAborts) {
  ExperimentConfig cfg = SmallConfig(Protocol::kReplicatedCommit);
  cfg.shards = 2;
  EXPECT_DEATH(RunExperiment(cfg),
               "check failed: .*does not run over 2 shards");
}
#endif

}  // namespace
}  // namespace helios::harness
