#include "workloads.h"

#include <cmath>

namespace helios::perfbench {

bool IsSimWorkload(const std::string& name) {
  return name == kTable2Helios0 || name == kContendedSharded;
}

bool IsKnownWorkload(const std::string& name) {
  return IsSimWorkload(name) || name == kLiveVoc;
}

Result<harness::ExperimentSpec> SimSpec(const std::string& name, uint64_t seed,
                                        Scale scale) {
  harness::ExperimentSpec spec;
  spec.WithLabel(name).WithSeed(seed).WithTopology("table2");
  const bool tiny = scale == Scale::kTiny;
  if (name == kTable2Helios0) {
    // Paper Fig. 3: Table 2, Helios-0, 60 closed-loop clients, T-YCSB
    // defaults (5 ops, 50% writes, theta 0.2, 50k keys), one shard.
    spec.WithProtocol(harness::Protocol::kHelios0)
        .WithClients(tiny ? 15 : 60)
        .WithWarmup(Seconds(tiny ? 1 : 5))
        .WithMeasure(Seconds(tiny ? 3 : 30))
        .WithDrain(Seconds(tiny ? 2 : 5));
  } else if (name == kContendedSharded) {
    // Helios-1 over two hash shards, 120 clients, theta 0.7, 30% read-only.
    // 32 s of measurement gives the slowest datacenter (Singapore) ~2400
    // commits: its p99 has more than ten samples beyond it, and moves less
    // from seed to seed than with a shorter window.
    spec.WithProtocol(harness::Protocol::kHelios1)
        .WithShards(2)
        .WithShardBy("hash")
        .WithClients(tiny ? 30 : 120)
        .WithZipfTheta(0.7)
        .WithReadOnlyFraction(0.3)
        .WithWarmup(Seconds(tiny ? 1 : 3))
        .WithMeasure(Seconds(tiny ? 3 : 32))
        .WithDrain(Seconds(tiny ? 2 : 3));
  } else {
    return Status::InvalidArgument("not a simulator workload: " + name);
  }
  if (tiny) spec.WithNumKeys(5000);
  const Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  return spec;
}

size_t TraceRingCapacityFor(const harness::ExperimentSpec& spec) {
  // Measured rates are ~12.5k events per simulated second for
  // table2-helios0 and ~48k for contended-sharded; this bound covers both
  // twice over: per-transaction events scale with clients, gossip events
  // with datacenter pairs, shards and log ticks.
  const double seconds =
      static_cast<double>(spec.warmup + spec.measure + spec.drain) / 1e6;
  const double n = 5.0;  // Table 2.
  const double ticks_per_s = 1e6 / static_cast<double>(spec.log_interval);
  const double per_s = 400.0 * spec.clients +
                       n * (n - 1) * spec.shards * 3.0 * ticks_per_s;
  return static_cast<size_t>(std::ceil(2.0 * seconds * per_s)) + 4096;
}

lp::RttMatrix LiveWorkload::Rtt() const {
  const int n = static_cast<int>(inbound_delay_ms.size());
  lp::RttMatrix rtt(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      rtt.Set(a, b,
              inbound_delay_ms[static_cast<size_t>(a)] +
                  inbound_delay_ms[static_cast<size_t>(b)]);
    }
  }
  return rtt;
}

LiveWorkload LiveSpec(uint64_t seed, double seconds, Scale scale) {
  LiveWorkload w;
  w.seed = seed;
  w.measure_s = seconds;
  // T-YCSB with Zipfian skew 0.7 over 50k keys: enough conflicts that the
  // failed ratio is measured on hundreds of aborts, not a handful.
  w.txn.zipf_theta = 0.7;
  if (scale == Scale::kTiny) {
    w.rate_per_s = 200.0;
    w.setup_reps = 1;
    w.txn.num_keys = 5000;
  }
  return w;
}

}  // namespace helios::perfbench
