// Randomized failure injection: datacenters crash and recover at random
// times while contended traffic runs — optionally with probabilistic
// message loss and duplication layered on every WAN link (the chaos
// layer's FaultPlan plus the network's reliable sessions underneath). Whatever
// the schedule, the committed history must stay conflict-serializable,
// surviving replicas must agree, and the cluster must make progress
// whenever at most f datacenters are down.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <tuple>

#include "common/random.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/topology.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace helios::core {
namespace {

/// (fault tolerance f, seed, per-message loss probability; duplication
/// rides along at loss/2).
class FailureInjectionSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, double>> {};

TEST_P(FailureInjectionSweep, SerializableThroughRandomOutages) {
  const auto [f, seed, loss] = GetParam();
  const int n = 5;
  const int keys = 200;

  sim::Scheduler scheduler;
  sim::Network network(&scheduler, n, seed);
  const auto topo = harness::Table2Topology();
  harness::ConfigureNetwork(topo, &network);
  if (loss > 0.0) {
    // Message faults end before the quiesce window so replicas converge.
    sim::FaultPlan plan;
    sim::LinkFault lf;
    lf.loss = loss;
    lf.duplicate = loss / 2;
    lf.active_until = Seconds(30);
    plan.AddLinkFault(lf);
    ASSERT_TRUE(network.InstallMessageFaults(plan, seed ^ 0xFA171).ok());
    network.EnableReliableSessions();
  }
  HeliosConfig cfg;
  cfg.num_datacenters = n;
  cfg.fault_tolerance = f;
  cfg.grace_time = Millis(400);
  cfg.log_interval = Millis(5);
  HeliosCluster cluster(&scheduler, &network, cfg);
  for (int k = 0; k < keys; ++k) {
    cluster.LoadInitialAll("key" + std::to_string(k), "init");
  }
  cluster.Start();

  // Closed-loop clients at every datacenter. Clients at a crashed
  // datacenter stall (their requests are dropped); a watchdog restarts
  // their loop after recovery.
  auto rng = std::make_shared<Rng>(seed ^ 0xF00D);
  auto commits = std::make_shared<uint64_t>(0);
  auto commits_during_outage = std::make_shared<uint64_t>(0);
  auto down = std::make_shared<std::vector<bool>>(n, false);
  auto loop = std::make_shared<std::function<void(DcId, int)>>();
  *loop = [&, rng, commits, commits_during_outage, down, loop](DcId dc,
                                                               int gen) {
    if (scheduler.Now() > Seconds(25)) return;
    if ((*down)[dc]) return;  // Watchdog restarts us after recovery.
    const std::string k1 = "key" + std::to_string(rng->Uniform(keys));
    const std::string k2 = "key" + std::to_string(rng->Uniform(keys));
    std::vector<WriteEntry> writes{{k1, "v"}};
    if (k2 != k1) writes.push_back({k2, "w"});
    cluster.ClientCommit(dc, {}, std::move(writes),
                         [&, commits, commits_during_outage, down, loop, dc,
                          gen](const CommitOutcome& o) {
                           if (o.committed) {
                             ++*commits;
                             for (bool d : *down) {
                               if (d) {
                                 ++*commits_during_outage;
                                 break;
                               }
                             }
                           }
                           (*loop)(dc, gen);
                         });
  };
  for (DcId dc = 0; dc < n; ++dc) {
    scheduler.At(Millis(dc + 1), [loop, dc] { (*loop)(dc, 0); });
  }

  // Random outage schedule: up to f datacenters down at any time; each
  // outage lasts 1.5-4 seconds.
  auto down_count = std::make_shared<int>(0);
  auto inject = std::make_shared<std::function<void()>>();
  *inject = [&, rng, down, down_count, inject, loop]() {
    if (scheduler.Now() > Seconds(18)) return;
    if (*down_count < f) {
      DcId victim = static_cast<DcId>(rng->Uniform(n));
      if (!(*down)[victim]) {
        (*down)[victim] = true;
        ++*down_count;
        cluster.CrashDatacenter(victim);
        const Duration outage = Millis(1500) + Millis(rng->Uniform(2500));
        scheduler.After(outage, [&, down, down_count, loop, victim]() {
          cluster.RecoverDatacenter(victim);
          (*down)[victim] = false;
          --*down_count;
          // Restart the victim's client loop.
          scheduler.After(Millis(50), [loop, victim]() {
            (*loop)(victim, 1);
          });
        });
      }
    }
    scheduler.After(Millis(800) + Millis(rng->Uniform(1200)), *inject);
  };
  scheduler.At(Seconds(2), *inject);

  // Run traffic, then let everything recover and quiesce.
  scheduler.RunUntil(Seconds(45));
  // Break both closures' references to themselves.
  *loop = nullptr;
  *inject = nullptr;

  // Lossy cells commit far less: every dropped log record head-of-line
  // blocks its channel for an RTO (~2x RTT), so the bar is progress, not
  // throughput.
  EXPECT_GT(*commits, loss > 0.0 ? 20u : 200u)
      << "cluster made too little progress";
  if (loss > 0.0) {
    EXPECT_GT(network.fault_drops(), 0u);
    EXPECT_GT(network.fault_duplicates(), 0u);
    EXPECT_GT(network.duplicates_suppressed(), 0u);
  }
  if (f > 0) {
    EXPECT_GT(*commits_during_outage, 0u)
        << "no commits while a datacenter was down (liveness failed)";
  }

  // Safety: the full committed history is conflict-serializable.
  const Status ser = CheckSerializable(cluster.history().commits());
  EXPECT_TRUE(ser.ok()) << ser.ToString();

  // Convergence: after quiescing, every replica agrees on every key.
  for (int k = 0; k < keys; ++k) {
    const std::string key = "key" + std::to_string(k);
    auto v0 = cluster.node(0).store().Read(key);
    ASSERT_TRUE(v0.ok());
    for (DcId dc = 1; dc < n; ++dc) {
      auto v = cluster.node(dc).store().Read(key);
      ASSERT_TRUE(v.ok()) << key << " dc " << dc;
      EXPECT_EQ(v.value().writer, v0.value().writer) << key << " dc " << dc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FailureInjectionSweep,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(41u, 42u, 43u),
                       ::testing::Values(0.0)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t, double>>&
           info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Lossy links on top of the outages: a smaller seed set, since each cell
// also exercises the retransmission machinery.
INSTANTIATE_TEST_SUITE_P(
    LossyGrid, FailureInjectionSweep,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(42u),
                       ::testing::Values(0.08)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t, double>>&
           info) {
      return "f" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) + "_lossy";
    });

}  // namespace
}  // namespace helios::core
