// The experiment runner: builds a protocol deployment on a simulated
// topology, drives T-YCSB closed-loop clients through warm-up and a
// measurement window, and aggregates the paper's metrics (per-datacenter
// commit latency with stddev/CI, throughput in operations/sec of committed
// transactions, abort rate).
//
// Every figure and table bench in bench/ is a thin wrapper around
// RunExperiment with the appropriate parameters.

#ifndef HELIOS_HARNESS_EXPERIMENT_H_
#define HELIOS_HARNESS_EXPERIMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "common/status.h"
#include "common/types.h"
#include "core/helios_config.h"
#include "core/history.h"
#include "harness/topology.h"
#include "lp/mao.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/txn_status_store.h"
#include "sim/fault_plan.h"
#include "wal/wal_sink.h"
#include "workload/client.h"
#include "workload/tycsb.h"

namespace helios::harness {

/// Which protocol deployment to run. Helios-0/1/2 tolerate 0/1/2
/// datacenter outages; Helios-B runs with all commit offsets zero (no RTT
/// estimation), exactly the paper's baseline configuration.
enum class Protocol {
  kHelios0,
  kHelios1,
  kHelios2,
  kHeliosB,
  kMessageFutures,
  kReplicatedCommit,
  kTwoPcPaxos,
};

const char* ProtocolName(Protocol p);

/// INTERNAL — the materialized runner input. New code should not fill this
/// struct by hand: build a harness::ExperimentSpec with its fluent builder
/// and call ToConfig(), which validates the spec (including the Rule 1
/// safety check) before producing one of these. The raw struct remains
/// public only as the compatibility bridge for RunExperiment and for the
/// few knobs (service model) the spec intentionally does not expose.
struct ExperimentConfig {
  Topology topology = Table2Topology();
  Protocol protocol = Protocol::kHelios0;

  /// Clients are assigned to datacenters round-robin ("60 clients
  /// scattered across all datacenters").
  int total_clients = 60;

  Duration warmup = Seconds(5);
  Duration measure = Seconds(30);
  /// Extra simulated time after the window so in-flight transactions that
  /// requested commit inside the window still reach a decision.
  Duration drain = Seconds(5);

  uint64_t seed = 42;
  workload::WorkloadConfig workload;
  core::ServiceModel service;

  Duration log_interval = Millis(10);
  Duration grace_time = Millis(500);
  Duration client_link_one_way = Micros(500);

  /// Per-datacenter clock offsets in microseconds (Figure 5 skew
  /// scenarios); empty = synchronized.
  std::vector<Duration> clock_offsets;

  /// RTT matrix used to *plan* commit offsets (Section 4.5). Defaults to
  /// the topology's true RTTs; Figure 5's estimation-error experiments
  /// pass a perturbed matrix here while the network keeps the truth.
  std::optional<lp::RttMatrix> rtt_estimate_ms;

  /// 2PC/Paxos coordinator (the paper uses Virginia = index 0).
  DcId two_pc_coordinator = 0;

  /// Horizontal sharding (src/shard): number of independent Helios
  /// deployments per datacenter and the key-partition kind ("hash" or
  /// "range" over the workload keyspace). shards == 1 constructs the
  /// plain unsharded cluster exactly as before; shards > 1 is only valid
  /// for the Helios protocols (not Message Futures or the baselines).
  int shards = 1;
  std::string shard_by = "hash";

  /// Pre-populate all workload keys before the run.
  bool preload = true;

  /// Verify conflict-serializability of the committed history after the
  /// run (cheap for test-scale runs; quadratic-ish for huge ones).
  bool check_serializability = false;

  /// Observability (src/obs). Disabled by default: with trace.enabled
  /// false no recorder or registry is created and every instrumentation
  /// site stays on its null-pointer fast path.
  obs::TraceConfig trace;

  /// Chaos: fault schedule executed during the run (docs/FAULTS.md).
  /// Message faults are installed into the network with a seed derived
  /// from `seed`, together with the network's reliable-delivery sessions;
  /// node/partition events fire at their scheduled times. Empty = no
  /// faults, and the run is bit-identical to a build without the chaos
  /// layer.
  sim::FaultPlan fault_plan;

  /// Gray-failure detection/reaction for the Helios-family protocols
  /// (docs/FAULTS.md "Gray failures and suspicion"). Disabled by default:
  /// the detector then never exists and runs stay bit-identical to builds
  /// without the subsystem. Baselines ignore it.
  core::HealthConfig health;

  /// Client-side commit timeout (docs/RECOVERY.md): a transaction attempt
  /// exceeding this is abandoned and retried with exponential backoff
  /// from 50 ms, up to `client_max_retries` retries. 0 (the default) arms
  /// no timer, so crash-free runs stay bit-identical; crash runs need it —
  /// a request swallowed by a crashed datacenter otherwise wedges its
  /// closed-loop client forever.
  Duration client_commit_timeout = 0;
  int client_max_retries = 3;

  /// Capture end-of-run artifacts (committed history, per-client session
  /// logs, per-datacenter WAL contents and store snapshots) into
  /// ExperimentResult::capture for the src/check invariant oracles. Off by
  /// default: capturing copies WALs and stores, which measurement runs
  /// should not pay for.
  bool capture_artifacts = false;
};

/// Everything the invariant oracles (src/check) inspect after a run,
/// snapshotted before the cluster is torn down. Indexed per datacenter
/// where applicable.
struct RunCapture {
  std::vector<core::CommittedTxn> history;     ///< Committed transactions.
  std::vector<workload::SessionLog> sessions;  ///< One per client.
  std::vector<wal::WalContents> wals;          ///< Durable journals.
  std::vector<bool> wal_present;               ///< wal_journal() != null.
  /// Latest version of every key in each replica's live store.
  std::vector<std::map<Key, VersionedValue>> stores;
  std::vector<bool> dc_down;  ///< Crashed at end of run.
  RecoveryStats recovery;

  // Sharded deployments (src/shard). With shards == 1 everything below
  // stays empty and the oracles read the flat per-DC fields above.
  int shards = 1;
  /// Per-(datacenter, shard) journals, indexed dc * shards + s. A shard's
  /// journal carries only its slice of the traffic; the oracles check
  /// each (dc, shard) journal independently and merge a datacenter's
  /// journals for store replay (shard key sets are disjoint).
  std::vector<wal::WalContents> shard_wals;
  std::vector<bool> shard_wal_present;
  /// Per-datacenter durable coordinator status tables (the parallel-commit
  /// STAGED/COMMITTED/ABORTED records), for the staged-resolution oracle.
  std::vector<std::map<TxnId, shard::TxnStatusRecord>> txn_status;
};

struct DcResult {
  std::string name;
  double latency_mean_ms = 0.0;
  double latency_stddev_ms = 0.0;
  double latency_ci95_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double throughput_ops_s = 0.0;
  double abort_rate = 0.0;  ///< Fraction in [0, 1].
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

struct ExperimentResult {
  std::string protocol;
  std::vector<DcResult> per_dc;

  double avg_latency_ms = 0.0;           ///< Mean of per-DC means.
  double total_throughput_ops_s = 0.0;
  double avg_abort_rate = 0.0;

  /// The MAO optimum for the topology (the "Optimal" line in Figure 3).
  std::vector<double> optimal_latency_ms;
  double optimal_avg_latency_ms = 0.0;

  /// Only set when check_serializability was requested and the protocol
  /// records history.
  std::optional<Status> serializability;

  /// Totals across clients; nonzero only with client_commit_timeout set.
  uint64_t client_timeouts = 0;
  uint64_t client_retries = 0;

  uint64_t events_processed = 0;

  /// Populated when config.trace.enabled: the full per-transaction event
  /// trace (exportable as Chrome trace_event JSON) and the metrics
  /// snapshot taken at the end of the run. The live registry is also kept
  /// so callers can inspect raw histograms.
  std::shared_ptr<obs::TraceRecorder> trace;
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;
  obs::MetricsSnapshot metrics;

  /// Populated when config.capture_artifacts: the oracle inputs.
  std::shared_ptr<RunCapture> capture;
};

/// Runs one experiment to completion. Deterministic given the config.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Commit offsets (microseconds) Helios uses for this config: MAO on the
/// RTT estimate (the topology's means when absent), with each pair's slack
/// split evenly (lp::EvenSplitOffsetsUs). Exposed for the examples and for
/// benches and tests that build clusters directly.
std::vector<std::vector<Duration>> PlanCommitOffsets(
    const Topology& topology, const std::optional<lp::RttMatrix>& estimate);

}  // namespace helios::harness

#endif  // HELIOS_HARNESS_EXPERIMENT_H_
