// The Helios deployment over the simulated WAN: one HeliosNode per
// datacenter for every shard of the keyspace, behind the protocol-agnostic
// client API. With the Message Futures commit rule it is also the Message
// Futures deployment.
//
// A shard::ShardMap routes every key to exactly one shard, and every shard
// is a plane: its own nodes, clocks, replicated log, timetable, pools and
// WALs, all sharing the simulated scheduler and WAN. The default map has
// one shard, which is the paper's deployment. With more shards:
//
//   * A transaction touching one shard takes the completely unchanged
//     Helios fast path on that shard's node and never sees the
//     coordinator.
//
//   * A cross-shard transaction runs a parallel commit in the shape of
//     CockroachDB's: the per-datacenter coordinator durably writes a
//     STAGED record in the TxnStatusStore, stages one slice per
//     participant shard *in parallel* (each runs the normal Algorithm 1
//     admission + commit wait, then holds its prepared intent), raises
//     every slice's commit-wait base to the transaction-wide maximum
//     request timestamp, and on the last prepared ack durably flips the
//     status to COMMITTED before replying to the client and finalizing
//     the slices. One WAN commit wait total — the slices wait
//     concurrently — instead of the sequential prepare-then-commit of
//     2PC.
//
// Safety of the two pieces stitched together:
//
//   * Serializability composes because every read-write or write-write
//     conflict involves a written key, the shard owning that key sees
//     both transactions' slices in one Helios log, and the shared wait
//     base makes the per-slice commit waits as strong as a single
//     transaction staged at the latest slice's timestamp (see
//     HandleRaiseStagedWait). Per-shard serializability plus atomic
//     cross-shard decisions then yields one global serialization order.
//
//   * Crash atomicity: a recovering shard node finds its own still-
//     preparing intents in the WAL and asks the coordinator's durable
//     status table (set_staged_resolver). COMMITTED means the client may
//     have seen the commit — the intent is re-finalized as committed;
//     STAGED is durably flipped to ABORTED first (so every sibling slice
//     resolves the same way, whenever it asks) and aborted; ABORTED
//     aborts. The status write always precedes the client reply, which
//     is what makes presumed-abort safe here. With one shard the table
//     stays empty and every intent is presumed aborted.
//
// Read-only limitation: ClientReadOnly serves each shard's keys at that
// shard's local snapshot; the per-shard snapshots are taken at slightly
// different instants, so a cross-shard read-only transaction can observe
// a torn state across shards (docs/SHARDING.md). Single-shard read-only
// transactions keep Appendix B's guarantee.

#ifndef HELIOS_CORE_HELIOS_CLUSTER_H_
#define HELIOS_CORE_HELIOS_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/protocol.h"
#include "core/helios_config.h"
#include "core/helios_node.h"
#include "core/history.h"
#include "shard/shard_map.h"
#include "shard/txn_status_store.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "wal/wal_sink.h"

namespace helios::core {

class HeliosCluster : public ProtocolCluster {
 public:
  /// `scheduler` and `network` must outlive the cluster; `network` must
  /// have `config.num_datacenters` nodes (all shards share the WAN).
  /// `map` must be Validate()-clean; the default is one shard.
  HeliosCluster(sim::Scheduler* scheduler, sim::Network* network,
                HeliosConfig config,
                LogProtocolKind kind = LogProtocolKind::kHelios,
                std::string name = "Helios", shard::ShardMap map = {});

  void Start() override;
  void ClientRead(DcId client_dc, const Key& key, ReadCallback done) override;
  void ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                    std::vector<WriteEntry> writes,
                    CommitCallback done) override;
  void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                      ReadOnlyCallback done) override;
  std::string name() const override { return name_; }
  int num_datacenters() const override { return config_.num_datacenters; }
  int num_shards() const override { return static_cast<int>(planes_.size()); }

  /// Loads the same initial value on every datacenter of the key's shard
  /// (call before Start, and load keys in the same order across runs for
  /// deterministic ids).
  void LoadInitialAll(const Key& key, const Value& value) override;

  /// Installs the observability sinks on every node (src/obs).
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics) override;

  /// Dumps the node counters summed over every node (node.*, and the
  /// protocol.* aliases with the coordinator's decisions added),
  /// per-datacenter pool and service gauges summed across shards, and —
  /// with health enabled — health.* with each peer's phi the max across
  /// shards. With more than one shard also the coordinator's xshard.*,
  /// per-shard shard.s<k>.* and per-datacenter staged_holds.
  void ExportMetrics(obs::MetricsRegistry* registry) const override;

  /// Full datacenter outage: the network drops its traffic and every
  /// shard's node process crashes with amnesia (volatile state destroyed;
  /// only the WAL survives). Recovery rebuilds each node from its WAL via
  /// Restore(), then runs the anti-entropy catch-up against the peers.
  void CrashDatacenter(DcId dc);
  void RecoverDatacenter(DcId dc);

  /// Node-process half of an outage (the harness handles the network
  /// half): `down` destroys the datacenter's nodes — true amnesia, along
  /// with the coordinator's volatile state — leaving fresh down shells
  /// that drop in-flight deliveries; `!down` replays each WAL through
  /// Restore() and begins catch-up.
  void SetDatacenterDown(DcId dc, bool down) override;

  /// Gray-fault injection points (forwarded to the event loop /
  /// persistence path of every shard's node at `dc`).
  void InjectStall(DcId dc, Duration pause) override;
  void InjectFsyncStall(DcId dc, Duration per_record,
                        Duration window) override;

  // Checker observation points (src/check).
  const wal::MemoryWal* wal_journal(DcId dc, int shard) const override {
    return plane(shard).wals[static_cast<size_t>(dc)].get();
  }
  void SnapshotStore(
      DcId dc, const std::function<void(const Key&, const VersionedValue&)>&
                   fn) const override;
  bool datacenter_down(DcId dc) const override { return node(dc).down(); }
  /// `recoveries` counts datacenter recovery events (the max across
  /// shards: every shard's node restarts on the same event); volume and
  /// duration fields sum across shards.
  RecoveryStats recovery_snapshot() const override;

  HeliosNode& node(DcId dc, int shard = 0) {
    return *plane(shard).nodes[static_cast<size_t>(dc)];
  }
  const HeliosNode& node(DcId dc, int shard = 0) const {
    return *plane(shard).nodes[static_cast<size_t>(dc)];
  }
  sim::Clock& clock(DcId dc, int shard = 0) {
    return *plane(shard).clocks[static_cast<size_t>(dc)];
  }
  /// The serialization history: single-shard commits are recorded by the
  /// nodes, cross-shard commits once by the coordinator.
  HistoryRecorder& history() { return history_; }
  const HeliosConfig& config() const { return config_; }
  /// Datacenter `dc`'s durable cross-shard transaction-status table.
  const shard::TxnStatusStore& txn_status(DcId dc) const {
    return status_[static_cast<size_t>(dc)];
  }

  /// Sum of the node counters across datacenters and shards.
  NodeCounters AggregateCounters() const;

  /// Replans commit offsets from the RTTs the nodes measured
  /// (HeliosNode::MeasuredRttTo, each pair's two directions averaged):
  /// solves MAO over them and installs each row of lp::EvenSplitOffsetsUs
  /// on its datacenter's nodes. Unavailable until every pair is measured.
  /// In the simulator this is atomic across nodes, so Rule 1 holds
  /// throughout; a live deployment would stage the change (raise-offsets
  /// first, then lower). Returns the measured matrix's MAO average
  /// latency (ms).
  Result<double> ReplanOffsetsFromEstimates();

  /// Installs a function that computes an envelope's on-wire size (see
  /// wire::EncodedEnvelopeSize). When set, peer messages go through
  /// Network::SendSized so link bandwidth and byte counters apply.
  using EnvelopeSizer = std::function<size_t(const Envelope&)>;
  void set_envelope_sizer(EnvelopeSizer sizer) {
    envelope_sizer_ = std::move(sizer);
  }

 private:
  /// One shard's Helios deployment: a node per datacenter, with its clock
  /// and durable state.
  struct Plane {
    /// The shard's copy of the config; its nodes hold a reference to it.
    HeliosConfig config;
    std::vector<std::unique_ptr<sim::Clock>> clocks;
    std::vector<std::unique_ptr<HeliosNode>> nodes;
    /// Per-datacenter durable state: survives node destruction, so a
    /// crash wipes everything except what went through the sinks.
    std::vector<std::unique_ptr<wal::MemoryWal>> wals;
    /// Data loaded outside the protocol (LoadInitialAll bypasses the log,
    /// so recovery must replay it separately before the WAL).
    std::vector<std::pair<Key, Value>> initial_loads;
    RecoveryStats recovery;
  };

  /// Coordinator state for one in-flight cross-shard transaction. Lives
  /// in volatile memory: a crash of the coordinating datacenter drops it,
  /// leaving the durable STAGED status for recovery-time resolution.
  struct CrossShardTxn {
    DcId dc = kInvalidDc;
    std::vector<int> participants;
    std::map<int, Timestamp> admitted;  ///< shard -> slice request ts.
    std::set<int> prepared;
    std::set<int> failed;
    bool floor_sent = false;
    Timestamp max_proposed = kMinTimestamp;
    std::string abort_reason;
    TxnBodyPtr body;  ///< Full (unsplit) body, recorded once on commit.
    CommitCallback done;
  };
  using SliceMap =
      std::map<int, std::pair<std::vector<ReadEntry>, std::vector<WriteEntry>>>;

  /// Client-facing counters of the cross-shard coordinator.
  struct CrossShardCounters {
    uint64_t single_shard = 0;     ///< Commits on the single-shard path.
    uint64_t staged = 0;           ///< Cross-shard transactions started.
    uint64_t committed = 0;        ///< ... decided committed.
    uint64_t aborted = 0;          ///< ... decided aborted.
    uint64_t resolved_aborts = 0;  ///< STAGED entries flipped to ABORTED by
                                   ///< the crash-recovery resolver.
  };

  /// SingleShard's answer for a transaction spanning several shards.
  static constexpr int kCrossShard = -1;

  Plane& plane(int shard) { return planes_[static_cast<size_t>(shard)]; }
  const Plane& plane(int shard) const {
    return planes_[static_cast<size_t>(shard)];
  }
  int ShardOf(const Key& key) const {
    return planes_.size() == 1 ? 0 : map_.ShardOf(key);
  }
  /// The one shard owning every key (shard 0 for none), or kCrossShard.
  int SingleShard(const std::vector<ReadEntry>& reads,
                  const std::vector<WriteEntry>& writes) const;
  int SingleShard(const std::vector<Key>& keys) const;

  /// Builds a fresh node for (`shard`, `dc`) with all cluster wiring (WAN
  /// send, WAL sinks, history, staged resolver, observability). Used at
  /// construction and for the amnesia restart on crash.
  std::unique_ptr<HeliosNode> MakeNode(int shard, DcId dc);
  /// SetDatacenterDown for one shard's node.
  void SetNodeDown(int shard, DcId dc, bool down);
  NodeCounters PlaneCounters(int shard) const;

  void StartCrossShard(DcId dc, SliceMap slices, TxnBodyPtr body,
                       CommitCallback done);
  void OnSliceAdmitted(int s, const StagedAdmitOutcome& out);
  void OnSlicePrepared(int s, const StagedCommitOutcome& out);
  /// Runs the coordinator state machine for `id` after any ack.
  void Advance(const TxnId& id);
  StagedResolution ResolveStaged(DcId dc, const TxnId& id);

  sim::Scheduler* scheduler_;
  sim::Network* network_;
  HeliosConfig config_;
  const LogProtocolKind kind_;
  std::string name_;
  shard::ShardMap map_;
  /// One plane per shard, sized once in the constructor: nodes hold a
  /// reference to their plane's config. With S > 1 shards, shard s mints
  /// local TxnIds in residue class s+1 (mod S+1); the coordinator uses
  /// residue 0, so no two logs ever carry the same id.
  std::vector<Plane> planes_;
  HistoryRecorder history_;
  /// Per-datacenter durable transaction-status table.
  std::vector<shard::TxnStatusStore> status_;
  /// Per-datacenter monotone cross-shard sequence counter (never reset —
  /// survives crashes so recovered coordinators cannot reuse an id).
  std::vector<uint64_t> next_xseq_;
  std::map<TxnId, CrossShardTxn> inflight_;
  CrossShardCounters xstats_;
  bool started_ = false;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  EnvelopeSizer envelope_sizer_;
};

}  // namespace helios::core

#endif  // HELIOS_CORE_HELIOS_CLUSTER_H_
