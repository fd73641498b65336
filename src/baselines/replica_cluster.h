// The replica substrate both lock-based baselines of Section 5.2 share.
//
// Replicated Commit and 2PC/Paxos differ in their message flows — who
// locks, who votes, how a decision reaches the replicas — but not in what
// a datacenter is: a clock, a multi-version store, a single-server service
// queue, and a durable journal that applies every decision exactly once.
// ReplicaCluster owns that per-datacenter state and everything built on
// it: client/WAN routing, decision tracing and metrics, the amnesia crash,
// and recovery (journal replay plus a catch-up pull from a peer). A
// derived protocol supplies its message flows and two hooks: what else a
// crash wipes (OnCrash) and which peers a recovering replica may pull
// from, in order (CatchupSources).

#ifndef HELIOS_BASELINES_REPLICA_CLUSTER_H_
#define HELIOS_BASELINES_REPLICA_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/protocol.h"
#include "core/helios_config.h"
#include "core/history.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/service_queue.h"
#include "store/mv_store.h"
#include "wal/wal_sink.h"

namespace helios::baselines {

struct ReplicaConfig {
  int num_datacenters = 0;
  Duration client_link_one_way = Micros(500);
  core::ServiceModel service;
  std::vector<Duration> clock_offsets;
};

class ReplicaCluster : public ProtocolCluster {
 public:
  void Start() override {}
  void LoadInitialAll(const Key& key, const Value& value) override;
  void ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                    std::vector<WriteEntry> writes,
                    CommitCallback done) override;
  TxnId BeginTxn(DcId client_dc) override;
  int num_datacenters() const override { return config_.num_datacenters; }

  /// Observability (src/obs): commit/abort decision events and a total-
  /// latency histogram per outcome.
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics) override;
  void ExportMetrics(obs::MetricsRegistry* registry) const override;

  /// Routes inter-datacenter RPCs through `mesh`; neither baseline's
  /// rounds are loss-tolerant on their own, so chaos runs need this.
  void SetReliableMesh(sim::ReliableMesh* mesh) override { mesh_ = mesh; }

  /// Node-process half of an outage. `down` crashes the datacenter with
  /// amnesia: its store and service queue are replaced by empty ones,
  /// plus whatever OnCrash wipes; only the WAL journal of applied
  /// decisions survives. `!down` replays the initial loads and the
  /// journal, then pulls the decisions missed during the outage from a
  /// caught-up peer (CatchupSources), asking the next one every 250 ms
  /// for up to 5 rounds before rejoining alone. While catching up the
  /// datacenter refuses work that needs a current store.
  void SetDatacenterDown(DcId dc, bool down) override;
  bool datacenter_down(DcId dc) const override { return state(dc).down; }

  // Checker observation points (src/check).
  const wal::MemoryWal* wal_journal(DcId dc) const override {
    return wals_[static_cast<size_t>(dc)].get();
  }
  void SnapshotStore(
      DcId dc, const std::function<void(const Key&, const VersionedValue&)>&
                   fn) const override {
    store(dc).ForEachLatest(fn);
  }
  RecoveryStats recovery_snapshot() const override { return recovery_stats_; }

  const MvStore& store(DcId dc) const { return replica(dc).store; }
  core::HistoryRecorder& history() { return history_; }
  uint64_t commits() const { return commits_; }
  uint64_t aborts() const { return aborts_; }

 protected:
  ReplicaCluster(sim::Scheduler* scheduler, sim::Network* network,
                 ReplicaConfig config);

  /// The volatile half of a datacenter; a crash replaces it.
  struct Replica {
    explicit Replica(sim::Scheduler* scheduler) : service(scheduler) {}
    MvStore store;
    sim::ServiceQueue service;
  };

  /// Crash/recovery state per datacenter. `gen` increments on every
  /// amnesia restart so closures queued against the pre-crash volatile
  /// state become no-ops instead of acting on its replacement.
  struct DcState {
    bool down = false;
    bool recovering = false;
    uint64_t gen = 0;
  };

  /// Hook: wipes the protocol's own volatile state at `dc`, after the
  /// base has replaced the replica and bumped the generation.
  virtual void OnCrash(DcId dc) = 0;
  /// Hook: the peers a recovering `dc` may pull decisions from, in the
  /// order to try them; the base skips those down or still catching up.
  /// Default: every other datacenter by id.
  virtual std::vector<DcId> CatchupSources(DcId dc) const;

  Replica& replica(DcId dc) { return *replicas_[static_cast<size_t>(dc)]; }
  const Replica& replica(DcId dc) const {
    return *replicas_[static_cast<size_t>(dc)];
  }
  const DcState& state(DcId dc) const {
    return dc_state_[static_cast<size_t>(dc)];
  }
  /// True while `dc` is up and still in generation `gen`.
  bool Alive(DcId dc, uint64_t gen) const {
    const DcState& st = state(dc);
    return !st.down && gen == st.gen;
  }
  sim::Clock& clock(DcId dc) { return *clocks_[static_cast<size_t>(dc)]; }

  /// One WAN hop, through the reliable mesh when installed.
  void WanSend(DcId from, DcId to, std::function<void()> fn);
  /// Runs `fn` at datacenter `target` after the client's latency from
  /// `home` (client link only when target is the home datacenter).
  void Route(DcId home, DcId target, std::function<void()> fn);
  /// Runs `fn` back at the client after the reverse latency.
  void RouteBack(DcId target, DcId home, std::function<void()> fn);
  /// Lock-free reads of `keys` at datacenter `dc` for a client homed at
  /// `home`: the plain reads and read-only transactions of both
  /// protocols. A recovering `dc` answers Unavailable for every key.
  void ReadAt(DcId home, DcId dc, std::vector<Key> keys,
              ReadOnlyCallback done);

  /// The transaction's start timestamp (BeginTxn), or `home`'s clock for
  /// a transaction that never began here.
  Timestamp StartTs(DcId home, const TxnId& txn);

  /// Journals `body`'s commit at `version_ts` into `dc`'s WAL and applies
  /// it to the store — unless `dc` already journaled that transaction, in
  /// which case nothing happens and the result is false. This is the
  /// apply-side dedup that makes every delivery path (decision broadcast,
  /// learner message, catch-up) idempotent.
  bool ApplyDecision(DcId dc, const TxnBodyPtr& body, Timestamp version_ts);

  /// Records the trace events and histogram sample for a decision reached
  /// now for a commit request that entered at `t0`.
  void RecordDecision(DcId dc, const TxnId& txn, bool commit,
                      sim::SimTime t0, const std::string& reason);
  bool observed() const {
    return trace_ != nullptr || h_commit_total_us_ != nullptr;
  }

  sim::Scheduler* scheduler_;
  ReplicaConfig config_;
  std::unordered_map<TxnId, Timestamp, TxnIdHash> txn_start_ts_;
  core::HistoryRecorder history_;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;

 private:
  /// True while `dc` is up and not catching up itself.
  bool CaughtUp(DcId dc) const {
    return !state(dc).down && !state(dc).recovering;
  }
  /// Round `round` of `dc`'s catch-up for the recovery in generation
  /// `gen` that started at `started` after replaying `replayed` records.
  void CatchupRound(DcId dc, uint64_t gen, uint64_t replayed,
                    sim::SimTime started, int round);
  /// Sends one catch-up pull from `dc` to `peer`.
  void PullFrom(DcId dc, DcId peer, uint64_t gen, uint64_t replayed,
                sim::SimTime started);
  /// Ends `dc`'s catch-up phase and accounts the recovery.
  void FinishRecovery(DcId dc, uint64_t records_replayed,
                      uint64_t catchup_records, sim::SimTime started);

  sim::Network* network_;
  sim::ReliableMesh* mesh_ = nullptr;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<sim::Clock>> clocks_;
  /// Per-datacenter durable journal of applied decisions and its TxnId
  /// mirror; both survive crashes.
  std::vector<std::unique_ptr<wal::MemoryWal>> wals_;
  std::vector<std::unordered_set<TxnId, TxnIdHash>> journaled_;
  std::vector<DcState> dc_state_;
  std::vector<std::pair<Key, Value>> initial_loads_;
  RecoveryStats recovery_stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Histogram* h_commit_total_us_ = nullptr;
  obs::Histogram* h_abort_total_us_ = nullptr;
  uint64_t next_load_seq_ = 1;
};

}  // namespace helios::baselines

#endif  // HELIOS_BASELINES_REPLICA_CLUSTER_H_
