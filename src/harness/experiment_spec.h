// ExperimentSpec: the declarative, validated description of one experiment.
//
// Benches, the helios_sim CLI, and tests all used to mutate a raw
// ExperimentConfig by hand; ExperimentSpec replaces those ad-hoc blocks
// with one audited path: a value type with a fluent builder, a Validate()
// that reuses core::ValidateHeliosConfig (including the Rule 1 safety
// check on the offsets the spec would plan), and a ToJson()/FromJson()
// round-trip so whole experiment grids can be stored, diffed, and echoed
// back next to their results (see harness::SweepRunner).
//
// RunExperiment(const ExperimentConfig&) remains as the compatibility
// shim; ToConfig() is the bridge.

#ifndef HELIOS_HARNESS_EXPERIMENT_SPEC_H_
#define HELIOS_HARNESS_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "lp/mao.h"
#include "sim/fault_plan.h"

namespace helios::harness {

/// Canonical lowercase token for a protocol ("helios0", "mf", "rc",
/// "2pc", ...) — the spelling used in JSON specs and on CLI flags.
const char* ProtocolToken(Protocol p);

/// Inverse of ProtocolToken. Also accepts the display names returned by
/// ProtocolName (e.g. "Helios-0", "2PC/Paxos") for convenience.
Result<Protocol> ParseProtocolToken(const std::string& token);

/// Decorrelated per-job seed for grid entry `index` (splitmix64 of the
/// base): deterministic, and distinct jobs never share RNG streams even
/// when the grid varies only a non-seed axis.
uint64_t DeriveSeed(uint64_t base_seed, uint64_t index);

struct ExperimentSpec {
  /// Optional display label (job lists, progress lines, JSON echo).
  std::string label;

  Protocol protocol = Protocol::kHelios0;

  /// "table2" (the paper's five-datacenter AWS deployment), "example3"
  /// (the Section 3.2 three-datacenter example), or "uniform" (synthetic
  /// all-pairs-equal, parameterized below).
  std::string topology = "table2";
  int uniform_dcs = 5;
  double uniform_rtt_ms = 100.0;
  double uniform_stddev_ms = 0.0;

  int clients = 60;
  Duration warmup = Seconds(5);
  Duration measure = Seconds(30);
  Duration drain = Seconds(5);
  uint64_t seed = 42;

  // Workload (workload::WorkloadConfig).
  int ops_per_txn = 5;
  double write_fraction = 0.5;
  uint64_t num_keys = 50000;
  double zipf_theta = 0.2;
  int value_size = 16;
  double read_only_fraction = 0.0;
  /// Confine each transaction's keys to one of P contiguous key-range
  /// partitions (workload::WorkloadConfig::key_partitions); aligned with
  /// range sharding it makes every transaction single-shard. 1 = off.
  int key_partitions = 1;

  Duration log_interval = Millis(10);
  Duration grace_time = Millis(500);
  Duration client_link_one_way = Micros(500);

  /// Per-datacenter clock offsets; empty = synchronized.
  std::vector<Duration> clock_offsets;

  /// RTT matrix used to plan commit offsets; nullopt = the topology truth.
  std::optional<lp::RttMatrix> rtt_estimate_ms;

  DcId two_pc_coordinator = 0;
  bool preload = true;
  bool check_serializability = false;

  /// Horizontal sharding (src/shard): number of independent Helios
  /// logs+timetables per datacenter, and how keys are partitioned across
  /// them ("hash" or "range" over the workload keyspace). shards == 1 (the
  /// default) constructs the plain unsharded deployment, byte for byte;
  /// shards > 1 is only valid for the Helios-family protocols (not mf).
  int shards = 1;
  std::string shard_by = "hash";

  /// Chaos: declarative fault schedule executed during the run (message
  /// loss/duplication/reordering/delay plus timed crash and partition
  /// events — see docs/FAULTS.md). Empty (the default) keeps the run
  /// byte-identical to pre-chaos output.
  sim::FaultPlan fault_plan;

  /// Client commit timeout + bounded retry (docs/RECOVERY.md). 0 disables
  /// the timeout entirely (no timer scheduled); crash plans need it so
  /// clients whose requests a crashed datacenter swallowed make progress.
  Duration client_timeout = 0;
  int client_retries = 3;

  /// Lifecycle tracing (obs::TraceRecorder). Off by default — tracing is
  /// for single diagnostic runs, not sweeps. 0 capacity = recorder
  /// default ring size.
  bool trace_enabled = false;
  size_t trace_ring_capacity = 0;

  /// Gray-failure detection and reaction (docs/FAULTS.md "Gray failures
  /// and suspicion"). Off by default; only the Helios-family protocols
  /// honor it.
  bool health_enabled = false;

  // --- Fluent builder -----------------------------------------------------
  ExperimentSpec& WithLabel(std::string v) { label = std::move(v); return *this; }
  ExperimentSpec& WithProtocol(Protocol v) { protocol = v; return *this; }
  ExperimentSpec& WithTopology(std::string v) { topology = std::move(v); return *this; }
  ExperimentSpec& WithUniformTopology(int dcs, double rtt, double stddev = 0.0) {
    topology = "uniform";
    uniform_dcs = dcs;
    uniform_rtt_ms = rtt;
    uniform_stddev_ms = stddev;
    return *this;
  }
  ExperimentSpec& WithClients(int v) { clients = v; return *this; }
  ExperimentSpec& WithWarmup(Duration v) { warmup = v; return *this; }
  ExperimentSpec& WithMeasure(Duration v) { measure = v; return *this; }
  ExperimentSpec& WithDrain(Duration v) { drain = v; return *this; }
  ExperimentSpec& WithSeed(uint64_t v) { seed = v; return *this; }
  ExperimentSpec& WithOpsPerTxn(int v) { ops_per_txn = v; return *this; }
  ExperimentSpec& WithWriteFraction(double v) { write_fraction = v; return *this; }
  ExperimentSpec& WithNumKeys(uint64_t v) { num_keys = v; return *this; }
  ExperimentSpec& WithZipfTheta(double v) { zipf_theta = v; return *this; }
  ExperimentSpec& WithValueSize(int v) { value_size = v; return *this; }
  ExperimentSpec& WithReadOnlyFraction(double v) { read_only_fraction = v; return *this; }
  ExperimentSpec& WithKeyPartitions(int v) { key_partitions = v; return *this; }
  ExperimentSpec& WithLogInterval(Duration v) { log_interval = v; return *this; }
  ExperimentSpec& WithGraceTime(Duration v) { grace_time = v; return *this; }
  ExperimentSpec& WithClientLinkOneWay(Duration v) { client_link_one_way = v; return *this; }
  ExperimentSpec& WithClockOffsets(std::vector<Duration> v) {
    clock_offsets = std::move(v);
    return *this;
  }
  ExperimentSpec& WithRttEstimate(lp::RttMatrix v) {
    rtt_estimate_ms = std::move(v);
    return *this;
  }
  ExperimentSpec& WithTwoPcCoordinator(DcId v) { two_pc_coordinator = v; return *this; }
  ExperimentSpec& WithShards(int v) { shards = v; return *this; }
  ExperimentSpec& WithShardBy(std::string v) { shard_by = std::move(v); return *this; }
  ExperimentSpec& WithPreload(bool v) { preload = v; return *this; }
  ExperimentSpec& WithSerializabilityCheck(bool v = true) {
    check_serializability = v;
    return *this;
  }
  ExperimentSpec& WithFaultPlan(sim::FaultPlan v) {
    fault_plan = std::move(v);
    return *this;
  }
  /// Uniform per-message loss probability on every link, for loss-grid
  /// sweeps. Composes with any faults already in the plan.
  ExperimentSpec& WithLoss(double p) { fault_plan.WithLoss(p); return *this; }
  ExperimentSpec& WithDuplication(double p) {
    fault_plan.WithDuplication(p);
    return *this;
  }
  ExperimentSpec& WithClientTimeout(Duration timeout, int retries = 3) {
    client_timeout = timeout;
    client_retries = retries;
    return *this;
  }
  ExperimentSpec& WithTrace(bool enabled = true, size_t ring_capacity = 0) {
    trace_enabled = enabled;
    trace_ring_capacity = ring_capacity;
    return *this;
  }
  ExperimentSpec& WithHealth(bool enabled = true) {
    health_enabled = enabled;
    return *this;
  }

  // --- API ----------------------------------------------------------------

  /// Label if set, else a compact "protocol/cN/sN" identifier.
  std::string DisplayName() const;

  /// Builds the topology the spec names. Requires a valid topology field.
  Topology BuildTopology() const;

  /// Full validation: spec-level range checks, then the deployment checks
  /// of core::ValidateHeliosConfig on the HeliosConfig this spec implies —
  /// including Rule 1 on the commit offsets it would plan.
  Status Validate() const;

  /// Validates, then materializes the legacy ExperimentConfig for
  /// RunExperiment. Fields outside the spec (service model, tracing) keep
  /// their defaults and can be adjusted on the returned value.
  Result<ExperimentConfig> ToConfig() const;

  /// Deterministic JSON: one flat object, keys in fixed alphabetical
  /// order, shortest-round-trip number formatting. Optional fields
  /// (label, clock_offsets_us, rtt_estimate_ms) are omitted when unset.
  std::string ToJson() const;

  /// Parses ToJson() output (or hand-written specs). Unknown keys are an
  /// error — specs are an audited input, typos must not pass silently.
  /// Missing keys keep their defaults. The result is NOT auto-validated;
  /// call Validate() before running.
  static Result<ExperimentSpec> FromJson(const std::string& json);

  friend bool operator==(const ExperimentSpec& a,
                         const ExperimentSpec& b) = default;
};

}  // namespace helios::harness

#endif  // HELIOS_HARNESS_EXPERIMENT_SPEC_H_
