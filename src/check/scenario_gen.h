// ScenarioGenerator: samples random but always-valid ExperimentSpecs for
// the simulation fuzzer (tools/helios_fuzz, docs/TESTING.md).
//
// The deterministic DES is the precondition for FoundationDB-style
// simulation testing: a scenario is fully described by one ExperimentSpec,
// and the spec is fully described by (GeneratorOptions, index). The
// generator draws every knob the harness exposes — protocol, topology and
// its jitter, client count, workload contention, clock-skew vectors, fault
// plans (loss/duplication/reordering/delay, timed crashes, partitions) and
// the client commit timeout — from an Rng seeded with
// DeriveSeed(master_seed, index), then keeps only specs that pass
// ExperimentSpec::Validate() (which reuses core::ValidateHeliosConfig,
// including the Rule 1 offset check). Same options + same index = same
// scenario, forever; a failing index is a complete repro.

#ifndef HELIOS_CHECK_SCENARIO_GEN_H_
#define HELIOS_CHECK_SCENARIO_GEN_H_

#include <cstdint>
#include <vector>

#include "harness/experiment_spec.h"

namespace helios::check {

/// Every generated crash, partition and gray event ends at least this long
/// before the measurement window closes; the metrics and liveness oracles
/// are calibrated for that quiet tail.
constexpr Duration kQuietTail = Millis(2000);

struct GeneratorOptions {
  uint64_t master_seed = 1;

  /// Protocols to draw from. Defaults to the four the acceptance gate
  /// sweeps: both fault-tolerant Helios configurations and both lock-based
  /// baselines.
  std::vector<harness::Protocol> protocols = {
      harness::Protocol::kHelios1, harness::Protocol::kHelios2,
      harness::Protocol::kReplicatedCommit, harness::Protocol::kTwoPcPaxos};

  // Fault classes to explore. Any scheduled fault arms the client commit
  // timeout so closed-loop clients cannot wedge on swallowed requests.
  bool crashes = true;
  bool partitions = true;
  bool message_faults = true;
  bool clock_skew = true;
  /// Gray faults (slow links, asymmetric partitions, process/fsync stalls,
  /// docs/FAULTS.md). Scenarios that draw one also enable the health
  /// subsystem, so the sweep exercises suspicion, degraded commit, and
  /// re-admission under every oracle.
  bool gray_faults = true;

  /// Shard counts to draw from (src/shard). The default {1} draws no RNG
  /// values at all, so pre-sharding scenario streams replay byte for
  /// byte. Counts > 1 are applied only to Helios-family protocols (the
  /// cross-shard commit leans on Rule 2); a draw landing on a baseline
  /// protocol keeps shards = 1.
  std::vector<int> shard_counts = {1};

  // Contention range. The defaults keep scenarios small enough that a
  // fuzz run completes hundreds of them, while contended enough that
  // ordering bugs (see HELIOS_CHECK_MUTATION) actually manifest.
  int min_clients = 2;
  int max_clients = 8;
  uint64_t min_keys = 16;
  uint64_t max_keys = 256;
  double min_write_fraction = 0.3;
  double max_write_fraction = 0.9;
};

class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(GeneratorOptions options = {});

  /// The scenario at `index`: deterministic, validated
  /// (spec.Validate().ok()), labeled "fuzz-<index>".
  harness::ExperimentSpec Scenario(uint64_t index) const;

  const GeneratorOptions& options() const { return options_; }

 private:
  GeneratorOptions options_;
};

}  // namespace helios::check

#endif  // HELIOS_CHECK_SCENARIO_GEN_H_
