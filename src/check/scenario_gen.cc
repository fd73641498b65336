#include "check/scenario_gen.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/random.h"
#include "sim/fault_plan.h"

namespace helios::check {

namespace {

/// Number of datacenters each named topology deploys.
int TopologySize(const harness::ExperimentSpec& spec) {
  if (spec.topology == "table2") return 5;
  if (spec.topology == "example3") return 3;
  return spec.uniform_dcs;
}

Duration UniformDuration(Rng& rng, Duration lo, Duration hi) {
  return static_cast<Duration>(rng.UniformRange(lo, hi));
}

}  // namespace

ScenarioGenerator::ScenarioGenerator(GeneratorOptions options)
    : options_(std::move(options)) {
  assert(!options_.protocols.empty());
  assert(options_.min_clients >= 1 &&
         options_.min_clients <= options_.max_clients);
  assert(options_.min_keys >= 1 && options_.min_keys <= options_.max_keys);
}

harness::ExperimentSpec ScenarioGenerator::Scenario(uint64_t index) const {
  Rng rng(harness::DeriveSeed(options_.master_seed, index));

  // Rejection sampling: some combinations (e.g. a large clock-skew vector
  // against a small commit offset) fail validation; keep drawing from the
  // same stream until one passes. The stream depends only on
  // (master_seed, index), so the result is still deterministic.
  for (int attempt = 0; attempt < 100; ++attempt) {
    harness::ExperimentSpec spec;
    spec.label = "fuzz-" + std::to_string(index);
    spec.protocol =
        options_.protocols[rng.Uniform(options_.protocols.size())];
    spec.seed = rng.Next();

    // Topology: mostly the small deployments (fast), occasionally the
    // paper's five-datacenter Table 2 one.
    const uint64_t topo = rng.Uniform(5);
    if (topo < 2) {
      spec.topology = "example3";
    } else if (topo < 4) {
      spec.WithUniformTopology(
          static_cast<int>(3 + rng.Uniform(3)),           // 3-5 DCs
          30.0 + rng.NextDouble() * 120.0,                // 30-150ms RTT
          rng.Bernoulli(0.5) ? rng.NextDouble() * 10.0 : 0.0);
    } else {
      spec.topology = "table2";
    }
    const int n = TopologySize(spec);

    spec.clients = static_cast<int>(
        rng.UniformRange(options_.min_clients, options_.max_clients));
    spec.ops_per_txn = static_cast<int>(rng.UniformRange(2, 4));
    spec.write_fraction =
        options_.min_write_fraction +
        rng.NextDouble() *
            (options_.max_write_fraction - options_.min_write_fraction);
    spec.num_keys = static_cast<uint64_t>(rng.UniformRange(
        static_cast<int64_t>(options_.min_keys),
        static_cast<int64_t>(options_.max_keys)));
    spec.zipf_theta = rng.NextDouble() * 0.9;
    spec.value_size = static_cast<int>(rng.UniformRange(8, 64));
    spec.read_only_fraction =
        rng.Bernoulli(0.2) ? rng.NextDouble() * 0.3 : 0.0;
    spec.two_pc_coordinator = static_cast<DcId>(rng.Uniform(
        static_cast<uint64_t>(n)));
    spec.check_serializability = true;

    // Sharding (src/shard). The draw happens ONLY when shard_counts can
    // produce something other than 1 — the default options consume zero
    // RNG values here, which is what keeps pre-sharding scenario streams
    // bit-identical. Baselines cannot shard (spec validation rejects it),
    // so their scenarios stay at 1 without consuming draws either.
    const bool shards_enabled =
        options_.shard_counts.size() > 1 || (!options_.shard_counts.empty() &&
                                             options_.shard_counts[0] != 1);
    const bool helios_family =
        spec.protocol != harness::Protocol::kMessageFutures &&
        spec.protocol != harness::Protocol::kReplicatedCommit &&
        spec.protocol != harness::Protocol::kTwoPcPaxos;
    if (shards_enabled && helios_family) {
      spec.shards =
          options_.shard_counts[rng.Uniform(options_.shard_counts.size())];
      if (spec.shards > 1) {
        spec.shard_by = rng.Bernoulli(0.5) ? "range" : "hash";
      }
    }

    // Decide the fault classes first: a crash needs a longer measurement
    // window (commits before the crash, a recovery, and a quiet tail).
    const bool with_crash = options_.crashes && rng.Bernoulli(0.4);
    const bool with_partition = options_.partitions && rng.Bernoulli(0.3);
    const bool with_messages = options_.message_faults && rng.Bernoulli(0.5);
    const bool with_gray = options_.gray_faults && rng.Bernoulli(0.35);

    spec.warmup = UniformDuration(rng, Millis(200), Millis(500));
    spec.measure = with_crash ? UniformDuration(rng, Millis(4000), Millis(6000))
                              : UniformDuration(rng, Millis(2000), Millis(5000));
    const bool any_fault =
        with_crash || with_partition || with_messages || with_gray;
    spec.drain = any_fault ? UniformDuration(rng, Millis(2000), Millis(3000))
                           : UniformDuration(rng, Millis(1000), Millis(3000));

    if (options_.clock_skew && rng.Bernoulli(0.5)) {
      spec.clock_offsets.clear();
      for (int dc = 0; dc < n; ++dc) {
        spec.clock_offsets.push_back(
            UniformDuration(rng, -Millis(30), Millis(30)));
      }
    }

    const sim::SimTime measure_until = spec.warmup + spec.measure;
    // Faults must go quiet at least this long before the window closes so
    // the liveness oracle ("some transactions committed") stays sound.
    const sim::SimTime quiet_from = measure_until - kQuietTail;

    if (with_messages) {
      const uint64_t count = 1 + rng.Uniform(2);
      for (uint64_t i = 0; i < count; ++i) {
        sim::LinkFault f;
        if (!rng.Bernoulli(0.5)) {
          f.from = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
          do {
            f.to = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
          } while (f.to == f.from);
        }
        f.loss = rng.Bernoulli(0.7) ? rng.NextDouble() * 0.12 : 0.0;
        f.duplicate = rng.Bernoulli(0.4) ? rng.NextDouble() * 0.08 : 0.0;
        if (rng.Bernoulli(0.5)) {
          f.reorder = rng.NextDouble() * 0.3;
          f.reorder_window = UniformDuration(rng, Millis(1), Millis(20));
        }
        if (rng.Bernoulli(0.3)) f.delay = UniformDuration(rng, Millis(2), Millis(30));
        if (rng.Bernoulli(0.5)) {
          f.active_from = UniformDuration(rng, 0, spec.warmup + spec.measure / 2);
          f.active_until =
              f.active_from + UniformDuration(rng, Millis(500), spec.measure / 2);
        }
        if (f.HasEffect()) spec.fault_plan.AddLinkFault(std::move(f));
      }
    }

    if (with_crash) {
      const int victim = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      // Leave room for commits before the crash and a quiet recovery tail.
      const sim::SimTime crash_at =
          spec.warmup + Millis(800) + UniformDuration(rng, 0, spec.measure / 3);
      sim::SimTime recover_at =
          crash_at + Millis(500) + UniformDuration(rng, 0, spec.measure / 3);
      recover_at = std::min(recover_at, quiet_from);
      if (recover_at > crash_at) {
        spec.fault_plan.AddCrash(crash_at, victim);
        spec.fault_plan.AddRecover(recover_at, victim);
      }
    }

    if (with_partition && n >= 2) {
      const int a = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      int b;
      do {
        b = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      } while (b == a);
      const sim::SimTime cut_at =
          spec.warmup + Millis(500) + UniformDuration(rng, 0, spec.measure / 3);
      sim::SimTime heal_at =
          cut_at + Millis(300) + UniformDuration(rng, 0, spec.measure / 3);
      heal_at = std::min(heal_at, quiet_from);
      if (heal_at > cut_at) {
        spec.fault_plan.AddPartition(cut_at, a, b);
        spec.fault_plan.AddHeal(heal_at, a, b);
      }
    }

    if (with_gray && n >= 2) {
      // One gray fault, plus the health subsystem so the sweep exercises
      // suspicion, degraded commit, and re-admission (not just injection).
      spec.WithHealth(true);
      const sim::SimTime gray_from =
          spec.warmup + Millis(300) + UniformDuration(rng, 0, spec.measure / 3);
      sim::SimTime gray_until = gray_from + Millis(400) +
                                UniformDuration(rng, 0, spec.measure / 3);
      gray_until = std::min(gray_until, quiet_from);
      const int ga = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      int gb;
      do {
        gb = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      } while (gb == ga);
      const double factor = 2.0 + rng.NextDouble() * 10.0;
      const Duration extra =
          rng.Bernoulli(0.5) ? UniformDuration(rng, 0, Millis(10)) : 0;
      const Duration per_record = UniformDuration(rng, Millis(1), Millis(8));
      if (gray_until > gray_from) {
        switch (rng.Uniform(4)) {
          case 0:
            spec.fault_plan.AddSlowLink(gray_from, gray_until, ga, gb, factor,
                                        extra);
            break;
          case 1:
            spec.fault_plan.AddAsymPartition(gray_from, gray_until, ga, gb);
            break;
          case 2:
            spec.fault_plan.AddProcessStall(gray_from, gray_until, ga);
            break;
          default:
            spec.fault_plan.AddFsyncStall(gray_from, gray_until, ga,
                                          per_record);
            break;
        }
      }
    }

    if (!spec.fault_plan.empty()) {
      // Any fault can swallow a request; without the timeout a closed-loop
      // client wedges forever and the liveness oracle fires spuriously.
      spec.WithClientTimeout(UniformDuration(rng, Millis(1500), Millis(2500)),
                             /*retries=*/10);
    }

    if (spec.Validate().ok()) return spec;
  }
  assert(false && "scenario sampling failed to find a valid spec");
  return harness::ExperimentSpec{};
}

}  // namespace helios::check
