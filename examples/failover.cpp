// failover: demonstrates Helios's liveness machinery (Section 4.4) during
// a datacenter outage.
//
// A five-datacenter Helios-1 deployment (tolerating one outage, grace time
// 400ms) keeps committing when Singapore goes dark: surviving datacenters
// use the inferred knowledge bound (eta, Eqs. 2-3) instead of waiting for
// the dead datacenter's log, paying roughly one grace time of extra
// latency. When Singapore comes back, the replicated log catches it up and
// latency returns to normal.
//
//   $ ./build/examples/failover

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "common/random.h"
#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace helios;

int main() {
  const harness::Topology topo = harness::Table2Topology();
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, topo.size(), /*seed=*/7);
  harness::ConfigureNetwork(topo, &network);

  core::HeliosConfig config;
  config.num_datacenters = topo.size();
  config.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  config.fault_tolerance = 1;
  config.grace_time = Millis(400);
  core::HeliosCluster cluster(&scheduler, &network, std::move(config));
  cluster.LoadInitialAll({{"account", "1000"}});
  cluster.Start();

  // One client at Virginia committing continuously; we print a sample of
  // its commits so the latency change around the outage is visible.
  auto counter = std::make_shared<int>(0);
  auto rng = std::make_shared<Rng>(5);
  auto loop = std::make_shared<std::function<void()>>();
  *loop = [&, counter, rng, loop] {
    if (scheduler.Now() > Seconds(24)) return;
    const sim::SimTime start = scheduler.Now();
    cluster.ClientCommit(
        0, {}, {{"k" + std::to_string(rng->Uniform(100)), "v"}},
        [&, counter, loop, start](const CommitOutcome& o) {
          const int i = ++*counter;
          if (i % 10 == 0) {
            std::printf("[%6.2fs] commit #%d at V: %s, latency %6.1fms\n",
                        static_cast<double>(start) / 1e6, i,
                        o.committed ? "OK" : "abort",
                        ToMillis(scheduler.Now() - start));
          }
          (*loop)();
        });
  };
  scheduler.At(Millis(1), *loop);

  scheduler.At(Seconds(8), [&] {
    std::printf("--- [8.00s] SINGAPORE GOES DARK (crash + partition) ---\n");
    cluster.CrashDatacenter(4);
  });

  // While Singapore is down, write something it will need to learn later.
  scheduler.At(Seconds(12), [&] {
    cluster.ClientCommit(1, {}, {{"during-outage", "survived"}},
                         [&](const CommitOutcome& o) {
                           std::printf(
                               "[ 12.0+s] Oregon committed a write during the "
                               "outage: %s\n",
                               o.committed ? "OK" : "abort");
                         });
  });

  scheduler.At(Seconds(16), [&] {
    std::printf("--- [16.00s] SINGAPORE RECOVERS ---\n");
    cluster.RecoverDatacenter(4);
  });

  // After recovery, verify Singapore caught up through the log exchange.
  scheduler.At(Seconds(22), [&] {
    auto v = cluster.node(4).store().Read("during-outage");
    std::printf("[ 22.00s] Singapore's replica of 'during-outage': %s\n",
                v.ok() ? v.value().value.c_str() : v.status().ToString().c_str());
  });

  scheduler.RunUntil(Seconds(26));

  const auto counters = cluster.AggregateCounters();
  std::printf(
      "\ntotals: %llu commits, %llu aborts, %llu refusals issued "
      "(grace-time invalidations)\n",
      static_cast<unsigned long long>(counters.commits),
      static_cast<unsigned long long>(counters.total_aborts()),
      static_cast<unsigned long long>(counters.refusals_issued));
  std::printf(
      "\nWith Helios-0 the same outage would block every datacenter's "
      "commits until\nSingapore returned — run the HeliosLivenessTest cases "
      "to see both behaviours.\n");
  return 0;
}
