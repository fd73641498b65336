// Quickstart: stand up a three-datacenter Helios deployment on the
// simulated WAN, plan optimal commit offsets with the MAO linear program,
// run a handful of transactions, and read the results back.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "lp/mao.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace helios;

int main() {
  // 1. Describe the deployment: three datacenters with the paper's
  //    Section 3.2 round-trip times (A-B 30ms, A-C 20ms, B-C 40ms).
  const harness::Topology topo = harness::PaperExampleTopology();

  // 2. Plan commit latencies with the MAO linear program and turn them
  //    into commit offsets co[a][b] = (L_a - L_b)/2 (PlanCommitOffsets;
  //    every pair is tight here, so these are the paper's Eq. 5 offsets).
  //    This is the step that makes Helios commit faster than master/slave
  //    or majority replication.
  const auto latencies = lp::SolveMao(topo.rtt_ms).value();
  std::printf("planned commit latencies: A=%.0fms B=%.0fms C=%.0fms (avg %.1f)\n",
              latencies[0], latencies[1], latencies[2],
              lp::AverageLatency(latencies));

  // 3. Build the simulated world and the Helios cluster.
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, topo.size(), /*seed=*/1);
  harness::ConfigureNetwork(topo, &network);

  core::HeliosConfig config;
  config.num_datacenters = topo.size();
  config.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  config.log_interval = Millis(5);
  core::HeliosCluster cluster(&scheduler, &network, std::move(config));

  cluster.LoadInitialAll("greeting", "hello");
  cluster.Start();

  // 4. A client at datacenter A: read, then read-modify-write commit.
  scheduler.At(Millis(50), [&] {
    cluster.ClientRead(0, "greeting", [&](Result<VersionedValue> r) {
      if (!r.ok()) {
        std::printf("[%.1fms] client@A read greeting failed: %s\n",
                    ToMillis(scheduler.Now()), r.status().ToString().c_str());
        return;
      }
      std::printf("[%.1fms] client@A read greeting = \"%s\"\n",
                  ToMillis(scheduler.Now()), r.value().value.c_str());
      ReadEntry read{"greeting", r.value().ts, r.value().writer};
      const sim::SimTime start = scheduler.Now();
      cluster.ClientCommit(
          0, {read}, {{"greeting", "hello, geo-replicated world"}},
          [&, start](const CommitOutcome& outcome) {
            std::printf("[%.1fms] client@A commit %s (txn %s, latency %.1fms)\n",
                        ToMillis(scheduler.Now()),
                        outcome.committed ? "OK" : "ABORTED",
                        outcome.id.ToString().c_str(),
                        ToMillis(scheduler.Now() - start));
          });
    });
  });

  // 5. Meanwhile a client at datacenter B writes a different key — commits
  //    proceed independently when there is no conflict.
  scheduler.At(Millis(60), [&] {
    const sim::SimTime start = scheduler.Now();
    cluster.ClientCommit(1, {}, {{"counter", "1"}},
                         [&, start](const CommitOutcome& outcome) {
                           std::printf(
                               "[%.1fms] client@B commit %s (latency %.1fms)\n",
                               ToMillis(scheduler.Now()),
                               outcome.committed ? "OK" : "ABORTED",
                               ToMillis(scheduler.Now() - start));
                         });
  });

  // 6. Later, read the replicated value at the farthest datacenter.
  scheduler.At(Millis(400), [&] {
    cluster.ClientRead(2, "greeting", [&](Result<VersionedValue> r) {
      if (!r.ok()) {
        std::printf("[%.1fms] client@C read greeting failed: %s\n",
                    ToMillis(scheduler.Now()), r.status().ToString().c_str());
        return;
      }
      std::printf("[%.1fms] client@C read greeting = \"%s\"\n",
                  ToMillis(scheduler.Now()), r.value().value.c_str());
    });
  });

  scheduler.RunUntil(Seconds(1));
  std::printf("done after %llu simulated events\n",
              static_cast<unsigned long long>(scheduler.events_processed()));
  return 0;
}
