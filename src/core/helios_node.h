// One datacenter's Helios instance: the optimistic concurrency-control
// manager of Section 4.
//
// The node is a transport-agnostic state machine: client requests and peer
// envelopes come in through Handle* methods, outgoing envelopes leave
// through an injected send function, and all computation is paced by a
// single-server ServiceQueue (one Helios machine per datacenter, as in the
// paper's deployment).
//
// The same engine also implements Message Futures (CIDR'13), the paper's
// closest log-based comparator: both protocols share the replicated log,
// pools, and conflict detection, and differ only in the commit-wait rule —
//   Helios (Rule 2):      T[self][B] >= q(t) + co[self][B]  for every B
//   Message Futures:      T[B][self] >= q(t)                for every B
// which isolates the paper's contribution (choosing the earliest usable
// point in the peers' logs) as the only moving part.

#ifndef HELIOS_CORE_HELIOS_NODE_H_
#define HELIOS_CORE_HELIOS_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "common/object_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "core/clock_discipline.h"
#include "core/envelope.h"
#include "core/helios_config.h"
#include "core/history.h"
#include "health/phi_detector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdict/replicated_log.h"
#include "sim/clock.h"
#include "sim/scheduler.h"
#include "sim/service_queue.h"
#include "store/mv_store.h"
#include "txn/pool.h"

namespace helios::core {

/// Which commit-wait rule the node runs.
enum class LogProtocolKind {
  kHelios,
  kMessageFutures,
};

/// Per-node event counters for reporting and tests.
struct NodeCounters {
  uint64_t read_requests = 0;
  uint64_t commit_requests = 0;
  uint64_t commits = 0;
  uint64_t aborts_on_request = 0;   ///< Algorithm 1 conflicts / overwrites.
  uint64_t aborts_by_remote = 0;    ///< Algorithm 2 victims.
  uint64_t aborts_liveness = 0;     ///< Grace-time invalidation (Rule 3).
  uint64_t records_ingested = 0;
  uint64_t envelopes_sent = 0;
  uint64_t acks_sent = 0;            ///< Rule 3 receipt acks (f > 0 only);
                                     ///< also counted in envelopes_sent.
  uint64_t refusals_issued = 0;
  uint64_t read_only_txns = 0;
  // Gray-failure health machinery (config.health).
  uint64_t suspicions = 0;           ///< Suspicion onsets (phi crossings).
  uint64_t readmissions = 0;         ///< Suspects welcomed back.
  uint64_t suspicion_refusals = 0;   ///< Refusals issued because of suspicion
                                     ///< or the re-admission fence.
  uint64_t degraded_commits = 0;     ///< Commits that skipped a suspect's
                                     ///< knowledge via the suspicion quorum.
  uint64_t hedged_pulls = 0;         ///< Catch-up pulls sent while suspecting.
  // Cross-shard parallel commit (src/shard). Staged sub-transactions are
  // NOT counted in commits/aborts_*: the coordinator owns the client-facing
  // outcome, these track the shard-local intent lifecycle.
  uint64_t staged_requests = 0;      ///< HandleStagedCommit admissions tried.
  uint64_t staged_waits = 0;         ///< Admissions deferred behind younger
                                     ///< staged conflicts (wait-die).
  uint64_t staged_prepared = 0;      ///< Intents whose commit wait passed.
  uint64_t staged_commits = 0;       ///< Finalized as committed.
  uint64_t staged_aborts = 0;        ///< Aborted (admission, victim, doomed,
                                     ///< or coordinator finalize-abort).
  uint64_t staged_resolved = 0;      ///< Decided by the recovery resolver.

  uint64_t total_aborts() const {
    return aborts_on_request + aborts_by_remote + aborts_liveness;
  }

  NodeCounters& operator+=(const NodeCounters& o) {
    read_requests += o.read_requests;
    commit_requests += o.commit_requests;
    commits += o.commits;
    aborts_on_request += o.aborts_on_request;
    aborts_by_remote += o.aborts_by_remote;
    aborts_liveness += o.aborts_liveness;
    records_ingested += o.records_ingested;
    envelopes_sent += o.envelopes_sent;
    acks_sent += o.acks_sent;
    refusals_issued += o.refusals_issued;
    read_only_txns += o.read_only_txns;
    suspicions += o.suspicions;
    readmissions += o.readmissions;
    suspicion_refusals += o.suspicion_refusals;
    degraded_commits += o.degraded_commits;
    hedged_pulls += o.hedged_pulls;
    staged_requests += o.staged_requests;
    staged_waits += o.staged_waits;
    staged_prepared += o.staged_prepared;
    staged_commits += o.staged_commits;
    staged_aborts += o.staged_aborts;
    staged_resolved += o.staged_resolved;
    return *this;
  }
};

/// What a recovery accomplished: WAL replay volume, the anti-entropy
/// catch-up volume, and the wall-clock (scheduler) window it took. The
/// cluster accumulates these across restarts because the node object
/// itself does not survive the next crash.
struct RecoveryOutcome {
  uint64_t records_replayed = 0;  ///< Records rebuilt from the WAL.
  uint64_t catchup_records = 0;   ///< Fresh records pulled from peers.
  sim::SimTime started_sim = 0;
  sim::SimTime finished_sim = 0;
};

// --- Cross-shard parallel commit (src/shard) --------------------------------
//
// A cross-shard transaction is driven by a per-datacenter coordinator (a
// HeliosCluster with several shards): it splits the read/write sets by
// shard, injects one globally unique TxnId, and asks every participant
// shard's node to *stage* its slice. Staging runs the full Algorithm 1
// admission and commit wait; instead of committing at decision time the
// node holds the prepared intent (it keeps blocking conflicting
// admissions) and acks the coordinator, which finalizes everywhere once
// all shards prepared — CockroachDB's parallel-commit shape on top of the
// Helios wait.

/// Immediate answer to HandleStagedCommit: did Algorithm 1 admit the
/// slice, and at which request timestamp. The coordinator collects every
/// participant's timestamp and raises all slices' commit-wait base to the
/// maximum (HandleRaiseStagedWait) before any slice may prepare: slices of
/// one transaction are timestamped by different per-shard service queues,
/// and without the shared base two conflicting cross-shard transactions
/// could each escape the other's wait window (the Rule 1 algebra needs
/// wait base >= record timestamp for every slice in a shard's log).
struct StagedAdmitOutcome {
  TxnId id;
  bool admitted = false;
  std::string abort_reason;
  Timestamp request_ts = kMinTimestamp;  ///< q of the slice iff admitted.
};
using StagedAdmitCallback = std::function<void(const StagedAdmitOutcome&)>;

/// A shard node's prepared/aborted answer for a staged slice.
struct StagedCommitOutcome {
  TxnId id;
  bool prepared = false;
  std::string abort_reason;
  /// Dependency-bumped version timestamp this shard proposes; the
  /// coordinator's commit timestamp is the max over participants.
  Timestamp proposed_ts = kMinTimestamp;
};
using StagedCommitCallback = std::function<void(const StagedCommitOutcome&)>;

/// Durable coordinator verdict consulted while restoring a crashed node:
/// what happened to a staged transaction this node still holds an intent
/// for. kNone means "not a staged transaction" (plain presumed abort).
enum class StagedStatus { kNone, kStaged, kCommitted, kAborted };
struct StagedResolution {
  StagedStatus status = StagedStatus::kNone;
  Timestamp commit_ts = kMinTimestamp;  ///< Valid iff kCommitted.
};

class HeliosNode {
 public:
  /// Outgoing envelopes are shared immutably (see EnvelopePtr): the
  /// network layer and every delivery hold references to the same object,
  /// which the sender's pool recycles once the last one drops.
  using SendFn = std::function<void(DcId to, const EnvelopePtr& env)>;

  /// All pointers must outlive the node. `send` delivers an envelope to a
  /// peer datacenter (the cluster routes it through the simulated WAN).
  HeliosNode(DcId id, const HeliosConfig& config, LogProtocolKind kind,
             sim::Scheduler* scheduler, sim::Clock* clock, SendFn send);

  HeliosNode(const HeliosNode&) = delete;
  HeliosNode& operator=(const HeliosNode&) = delete;

  /// Schedules periodic log propagation and garbage collection.
  void Start();

  // --- Server-side request handlers (post client-link latency) ----------

  /// Serves a read: latest locally applied version of `key`.
  void HandleRead(const Key& key, ReadCallback reply);

  /// Read-only snapshot transaction (Appendix B): reads every key at one
  /// consistent local snapshot without entering the commit protocol.
  void HandleReadOnly(std::vector<Key> keys, ReadOnlyCallback reply);

  /// Algorithm 1: processes a commit request.
  void HandleCommitRequest(std::vector<ReadEntry> reads,
                           std::vector<WriteEntry> writes,
                           CommitCallback reply);

  /// Stages one shard's slice of a cross-shard transaction under the
  /// coordinator-minted `id` (its sequence number lives in a residue class
  /// no local transaction uses, see HeliosConfig::txn_seq_start). Runs the
  /// normal Algorithm 1 admission and answers `admitted` with the slice's
  /// request timestamp; the commit wait stays unarmed until the
  /// coordinator calls HandleRaiseStagedWait with the transaction-wide
  /// maximum. Once the (raised) wait passes, the intent is *held* — it
  /// stays in the preparing pool, immune to remote victims by the same
  /// Rule 1 argument that protects a transaction at the instant its wait
  /// is satisfied — and `prepared` acks the coordinator, which decides via
  /// HandleFinalizeStaged.
  void HandleStagedCommit(const TxnId& id, std::vector<ReadEntry> reads,
                          std::vector<WriteEntry> writes,
                          StagedAdmitCallback admitted,
                          StagedCommitCallback prepared);

  /// Arms a staged slice's commit wait with the shared base `wait_base`
  /// (the max request timestamp across the transaction's slices): each
  /// kts[x] is raised to max(kts[x], wait_base + co[self][x]). Waiting on
  /// a base >= the record's own timestamp is always safe, and the shared
  /// base restores the pairwise Rule 1 argument across slices that were
  /// timestamped by different per-shard service queues. A no-op for ids
  /// no longer pending (the slice already aborted).
  void HandleRaiseStagedWait(const TxnId& id, Timestamp wait_base);

  /// Coordinator decision for a held intent: apply + append the standard
  /// finished record (commit) or append an abort record. A no-op for ids
  /// this node no longer holds (e.g. the slice already self-aborted).
  void HandleFinalizeStaged(const TxnId& id, bool commit,
                            Timestamp commit_ts);

  /// Installs the durable-status lookup Restore() consults before
  /// presuming its own still-preparing transactions aborted: a staged
  /// transaction whose coordinator durably committed must be re-finalized
  /// as committed, never aborted (the client may have seen the commit).
  using StagedResolver = std::function<StagedResolution(const TxnId&)>;
  void set_staged_resolver(StagedResolver resolver) {
    staged_resolver_ = std::move(resolver);
  }

  /// Algorithm 2 (+ Algorithm 3 afterwards): processes a peer's envelope.
  void HandleEnvelope(EnvelopePtr env);

  /// Convenience for call sites that own a loose Envelope (live-mode
  /// decode, tests): wraps it and forwards to the shared-pointer path.
  void HandleEnvelope(Envelope env) {
    HandleEnvelope(std::make_shared<const Envelope>(std::move(env)));
  }

  // --- Experiment setup / introspection ----------------------------------

  /// Installs initial data directly (outside the protocol), as the
  /// experiment loader does before the measured run.
  void LoadInitial(const Key& key, const Value& value);

  /// Marks the node crashed: it stops sending, and drops client requests
  /// and incoming envelopes. (Network-level drops are handled separately by
  /// sim::Network; use both for a full datacenter outage.)
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

  DcId id() const { return id_; }
  const rdict::ReplicatedLog& log() const { return log_; }
  const MvStore& store() const { return store_; }
  const NodeCounters& counters() const { return counters_; }
  size_t pt_pool_size() const { return pt_pool_.size(); }
  size_t ept_pool_size() const { return ept_pool_.size(); }
  size_t staged_hold_count() const { return staged_holds_.size(); }
  size_t staged_waiting_count() const { return staged_waiting_.size(); }
  sim::ServiceQueue& service_queue() { return service_queue_; }
  const sim::ServiceQueue& service_queue() const { return service_queue_; }

  /// Optional shared recorder for serializability checking.
  void set_history_recorder(HistoryRecorder* recorder) {
    history_ = recorder;
  }

  /// Optional observability (src/obs): lifecycle trace events and
  /// per-stage latency histograms. Either pointer may be null; with both
  /// null (the default) every instrumentation site reduces to one
  /// pointer check, keeping the disabled path free.
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics);

  /// Optional durability hook: invoked with every record this node appends
  /// locally or ingests fresh from a peer, in processing order. A
  /// write-ahead log (src/wal) plugged in here makes the node recoverable
  /// with Restore().
  using RecordSink = std::function<void(const rdict::LogRecord&)>;
  void set_record_sink(RecordSink sink) { record_sink_ = std::move(sink); }

  /// Companion durability hook: invoked with the current timetable on
  /// every GC tick, checkpointing knowledge so recovery does not have to
  /// re-derive it record by record.
  using TimetableSink = std::function<void(const rdict::Timetable&)>;
  void set_timetable_sink(TimetableSink sink) {
    timetable_sink_ = std::move(sink);
  }

  /// Recovery: rebuilds the node's state from the records (and optional
  /// timetable snapshot) replayed from its write-ahead log. Must run
  /// before Start() and before any traffic. Re-applies committed write
  /// sets, repopulates the EPTPool with still-preparing remote
  /// transactions, aborts this node's own in-flight transactions
  /// (presumed abort: their clients never received a commit), raises
  /// the timestamp floor so no persisted timestamp is ever reused, and
  /// promises the restart instant so no record lands under a promise sent
  /// before the crash. Aborts the process if the restored timestamps break
  /// that contract.
  Status Restore(const std::vector<rdict::LogRecord>& records,
                 const rdict::Timetable* timetable);

  /// Anti-entropy catch-up after Restore(): asks every peer for the log
  /// suffix this node missed while down (the peer derives it from the
  /// restored timetable the request carries) and calls `done` once all
  /// peers answered — or after kCatchupRounds rounds, in which case
  /// regular gossip fills any remaining gap. While catching up the node
  /// answers client traffic with "recovering" instead of entering the
  /// commit path.
  void BeginCatchup(std::function<void(const RecoveryOutcome&)> done);
  bool recovering() const { return recovering_; }

  /// The effective knowledge bound \hat{T}[self][peer] of Eq. 2 (direct
  /// knowledge, raised by the inferred eta bound when f > 0). Exposed for
  /// tests.
  Timestamp EffectiveKnowledge(DcId peer) const;

  /// Disciplines this node's clock against its peers (ClockDiscipline): on
  /// its gossip tick the node hands `sink` every forward step that makes
  /// the apparent one-way delays to and from its peers symmetric. `sink`
  /// must advance the clock this node reads by exactly the step. Without a
  /// sink (the default, and every simulated deployment: there the clock
  /// offsets are the experiment's input) the node still measures and
  /// reports its delays but never steps. Install before Restore(), which
  /// steps a restarted clock up to its restored timestamp floor.
  void set_clock_step_sink(ClockDiscipline::StepSink sink);
  /// Steps taken so far (zero without a sink).
  ClockStepStats clock_step_stats() const {
    return clock_discipline_.stats();
  }

  /// The measured round trip to `peer` in microseconds (ClockDiscipline::
  /// RttTo); nullopt until enough gossip has been exchanged with it.
  std::optional<Duration> MeasuredRttTo(DcId peer) const {
    return clock_discipline_.RttTo(peer);
  }

  /// Replaces this node's commit-offset row co[self][*] (microseconds).
  /// Applies to transactions requested from now on; in-flight waits keep
  /// their original knowledge timestamps. The caller is responsible for
  /// Rule 1 across the deployment (HeliosCluster applies rows derived
  /// from one MAO solve to every node atomically).
  void SetCommitOffsetRow(std::vector<Duration> row);

  /// The currently effective offset co[self][x].
  Duration OffsetTo(DcId x) const;

  // --- Gray-failure health (config.health) --------------------------------

  /// Freezes this node's event loop for `pause`: everything already queued
  /// or arriving waits out the pause, and the node neither gossips nor
  /// GCs until it ends (a GC pause / VM migration / scheduler stall).
  void InjectStall(Duration pause);

  /// Makes record persistence syrup-slow for `window`: every record
  /// appended or ingested costs an extra `per_record` of service time.
  void InjectFsyncStall(Duration per_record, Duration window);

  /// Current suspicion level of `peer` (0 when health is disabled).
  double HealthPhi(DcId peer) const;
  /// True if this node currently suspects `peer`.
  bool Suspects(DcId peer) const { return suspected_.count(peer) > 0; }

 private:
  struct PendingTxn {
    TxnBodyPtr body;
    Timestamp request_ts = kMinTimestamp;      ///< q(t).
    std::vector<Timestamp> kts;                ///< Per peer (Eq. 1).
    CommitCallback reply;
    /// Scheduler-basis instants for tracing: when the request reached the
    /// node and when Algorithm 1 processed it (= commit wait start).
    sim::SimTime arrived_sim = 0;
    sim::SimTime processed_sim = 0;
    /// Cross-shard slice: at decision time the transaction is held and
    /// `staged_reply` acked instead of committing (see HandleStagedCommit).
    /// Algorithm 3 skips a staged slice until the coordinator arms its
    /// wait with the transaction-wide base (HandleRaiseStagedWait).
    bool staged = false;
    bool wait_armed = true;
    StagedCommitCallback staged_reply;
  };
  using PendingMap = std::map<TxnId, PendingTxn>;

  /// A prepared cross-shard intent awaiting the coordinator's decision.
  /// Still in pt_pool_ (it must keep blocking conflicting admissions —
  /// dropping it would let a later local transaction read around the
  /// not-yet-applied writes) but out of the pending maps.
  struct StagedHold {
    TxnBodyPtr body;
    Timestamp proposed_ts = kMinTimestamp;
    sim::SimTime arrived_sim = 0;
    sim::SimTime processed_sim = 0;
  };

  // Algorithm bodies (run inside the service queue). `arrived_sim` is the
  // scheduler time the request reached the node (for tracing).
  void ProcessCommitRequest(std::vector<ReadEntry> reads,
                            std::vector<WriteEntry> writes,
                            CommitCallback reply, sim::SimTime arrived_sim);
  void ProcessStagedCommit(const TxnId& id, std::vector<ReadEntry> reads,
                           std::vector<WriteEntry> writes,
                           StagedAdmitCallback admitted,
                           StagedCommitCallback prepared,
                           sim::SimTime arrived_sim);

  /// Staged admission with wait-die liveness: on a conflict where every
  /// blocker — local pending or replicated remote preparing — was minted
  /// *after* this transaction (sequence numbers give the age order), the
  /// slice polls the pools again after a short delay instead of aborting.
  /// Two cross-shard transactions that stage their slices in opposite
  /// shard orders would otherwise abort each other symmetrically, and
  /// under contention NO interleaving commits (livelock). Younger slices
  /// still die immediately, so age order is acyclic and the globally
  /// oldest staged transaction always makes progress. Plain (non-staged)
  /// admissions keep Algorithm 1's abort-on-conflict unchanged, but they
  /// die against the waiter fence like everything else (see
  /// OlderWaiterConflicts).
  void TryStagedAdmission(const TxnId& id, TxnBodyPtr body,
                          StagedAdmitCallback admitted,
                          StagedCommitCallback prepared,
                          sim::SimTime arrived_sim, int retries_left);

  /// True iff every pooled transaction conflicting with `body` was minted
  /// after `id` — the wait arm of wait-die.
  bool StagedConflictsAllYoungerStaged(const TxnId& id,
                                       const TxnBody& body) const;

  /// True iff an *older* staged transaction is parked in staged_waiting_
  /// with a read/write overlap against `body`. Waiters hold no pool entry,
  /// so without this fence a stream of younger admissions would occupy the
  /// pools at every poll and starve the waiter forever. Consulted by both
  /// the staged and the plain admission paths: a stream of single-shard
  /// transactions starves a parked waiter exactly as effectively as
  /// younger staged slices do.
  bool OlderWaiterConflicts(const TxnId& id, const TxnBody& body) const;
  void ProcessRaiseStagedWait(const TxnId& id, Timestamp wait_base);
  void ProcessFinalizeStaged(const TxnId& id, bool commit,
                             Timestamp commit_ts);
  void ProcessEnvelope(const Envelope& env);
  /// Rule 3's receipt acknowledgment: sends `to` our partial log for it,
  /// with the refusals and suspicions we hold, at once (EnvelopeKind::kAck).
  void SendAck(DcId to);

  /// Shared tail of Algorithm 1 (lines 2-10) for both the local and the
  /// staged admission path: conflict/overwritten checks, timestamping, the
  /// preparing append, and pooling. The caller pre-fills `pending`'s reply
  /// and arrival fields; on success the transaction is pending (`*pending`
  /// moved-from), on failure it is returned untouched with `*abort_reason`
  /// set so the caller can still answer through it.
  bool AdmitPreparing(const TxnId& id, const TxnBodyPtr& body,
                      PendingTxn* pending, std::string* abort_reason);

  /// Decision-time transition of a staged pending transaction: moves it
  /// from the pending maps into staged_holds_ and acks the coordinator.
  void PrepareStaged(const TxnId& id);

  /// Pool-backed envelope for the send paths: recycled storage, reset to
  /// blank gossip state.
  std::shared_ptr<Envelope> AcquireEnvelope();

  /// Algorithm 3: commits every pending transaction whose wait conditions
  /// are now satisfied; aborts the provably unreplicable ones.
  void TryCommitAll();

  /// Rule 2 condition (1) — or the Message Futures wait. Sets `*degraded`
  /// (when non-null) if satisfaction required skipping a suspect via
  /// DegradedSkipAllowed.
  bool CommitWaitSatisfied(const PendingTxn& t,
                           bool* degraded = nullptr) const;

  /// Rule 3 conditions (2) and (3): f peers acknowledged t's record within
  /// the grace time. Sets `*doomed` when too many peers refused for the
  /// quorum to ever form.
  bool AckQuorumSatisfied(const PendingTxn& t, bool* doomed) const;

  /// eta of Eq. 3 for `target`: the knowledge of `target` inferable from
  /// the n-f best-informed other datacenters, minus the grace time.
  Timestamp EtaBound(DcId target) const;

  /// True if `read` still matches the latest locally applied version.
  bool ReadStillValid(const ReadEntry& read) const;

  /// Emits the decision-time trace events and histogram samples for `id`:
  /// commit-wait span (commits only), node-side server span, decision
  /// instant. `wait_start_sim` is when Algorithm 1 pooled the transaction.
  void RecordDecisionTrace(const TxnId& id, bool committed,
                           const std::string& reason,
                           sim::SimTime arrived_sim,
                           sim::SimTime wait_start_sim);

  void AbortPending(const TxnId& id, const std::string& reason,
                    uint64_t NodeCounters::* counter);
  void CommitPending(const TxnId& id);
  void FinishTxn(const TxnId& id);  // Shared pending-bookkeeping removal.
  /// `pending_` entry of a transaction the caller knows is pending. A miss
  /// is a bug, and a HELIOS_CHECK stops the process in every build.
  PendingMap::iterator FindPending(const TxnId& id);

  /// The one append path for records this node originates: appends `rec`
  /// to the log, charges the fsync-stall penalty and feeds the WAL sink.
  /// A rejected append (foreign origin, non-increasing timestamp) touches
  /// neither. Callers outside Restore stop the process on failure.
  Status AppendOwn(const rdict::LogRecord& rec);
  /// AppendOwn of the finished record for `body`, at NextRecordTs.
  Status AppendFinished(const TxnBodyPtr& body, bool committed,
                        Timestamp version_ts);
  /// Timestamp of the next record this node appends (the preparing
  /// record's is q(t)): the first instant not yet promised to peers,
  /// max(T[self][self] + 1, clock - log_interval).
  Timestamp NextRecordTs() const;

  /// The one send path for envelopes: charges the per-message cost,
  /// counts and traces the send, then hands `env` to the WAN.
  void SendEnvelope(DcId to, EnvelopePtr env);

  /// Version timestamp for a commit: local clock, dependency-bumped above
  /// every version the transaction read or overwrites (see MvStore docs).
  Timestamp DependencyBumpedVersionTs(const TxnBody& body);

  void SendToAllPeers();
  void RunGc();
  void MergeRefusals(const std::vector<Refusal>& refusals);
  std::vector<Refusal> RefusalsSnapshot() const;

  // --- Gray-failure health internals --------------------------------------

  /// True when the suspicion *reaction* layer (refusals, degraded commit,
  /// fences) is armed: health on, f >= 1 (the machinery leans on Rule 3's
  /// refusal quorum), and the Helios rule (Message Futures waits on the
  /// suspect's own acknowledgment, which no quorum can stand in for).
  bool ReactionEnabled() const {
    return config_.health.enabled && config_.fault_tolerance > 0 &&
           kind_ == LogProtocolKind::kHelios;
  }

  /// Walks every peer's phi on the gossip tick: records suspicion onsets
  /// (retroactive refusals + an immediate hedged pull) and re-admissions
  /// (the timestamp fence), then paces periodic hedged pulls.
  void EvaluateHealth();
  void OnSuspicionOnset(DcId peer);
  void MaybeSendHedgedPulls();
  /// Copies the current suspicion set into an outgoing envelope.
  void StampSuspicions(Envelope* env) const;

  /// Whether txn deadline `deadline` may be satisfied WITHOUT the
  /// suspect `s`'s knowledge: at least n-f datacenters (self included,
  /// `s` excluded) currently suspect `s` with clocks past the deadline.
  /// Their standing refusals then doom every conflicting transaction `s`
  /// could still be preparing below the deadline, so skipping is safe.
  bool DegradedSkipAllowed(DcId s, Timestamp deadline) const;

  /// True while an injected process stall is pausing this node.
  bool Stalled() const { return scheduler_->Now() < stalled_until_; }
  /// Per-record persistence penalty of an active fsync stall (else 0),
  /// charged once per record appended or ingested.
  Duration FsyncPenalty() const {
    return scheduler_->Now() < fsync_stall_until_ ? fsync_penalty_ : 0;
  }
  /// Queues the storage I/O of installing `body`'s writes, one deferred
  /// write_apply per write. The store changes state at the decision, so
  /// the I/O only occupies the server, in its idle time.
  void DeferApplyIo(const TxnBody& body);

  void SendCatchupRequests();
  void FinishCatchup();

  /// Wraps a deferred callback so it dies with this node object. The
  /// scheduler has no cancellation, and an amnesia restart destroys the
  /// node while its periodic loops and queued service work are still
  /// scheduled — the weak token turns those into no-ops instead of
  /// use-after-free.
  template <typename Fn>
  auto Guarded(Fn fn) {
    return [alive = std::weak_ptr<char>(alive_),
            fn = std::move(fn)]() mutable {
      if (alive.expired()) return;
      fn();
    };
  }

  const DcId id_;
  const HeliosConfig& config_;
  const LogProtocolKind kind_;
  sim::Scheduler* scheduler_;
  sim::Clock* clock_;
  SendFn send_;
  sim::ServiceQueue service_queue_;

  rdict::ReplicatedLog log_;
  MvStore store_;
  TxnPool pt_pool_;   ///< Local preparing transactions.
  TxnPool ept_pool_;  ///< External (remote) preparing transactions.

  /// Local preparing transactions by id, plus an index by q(t) so
  /// Algorithm 3 visits them oldest-first.
  PendingMap pending_;
  std::map<std::pair<Timestamp, TxnId>, TxnId> pending_by_ts_;

  /// Datacenters known to have refused to acknowledge a transaction.
  struct RefusalState {
    Timestamp txn_ts = kMinTimestamp;
    std::set<DcId> refusers;
  };
  std::map<TxnId, RefusalState> refusals_;

  /// Prepared cross-shard intents awaiting finalize (see StagedHold).
  std::map<TxnId, StagedHold> staged_holds_;
  /// Staged slices parked by wait-die, by id; their bodies fence younger
  /// overlapping admissions (OlderWaiterConflicts).
  std::map<TxnId, TxnBodyPtr> staged_waiting_;
  /// Parked slices the coordinator finalize-aborted while they waited:
  /// the wait-die retry runs off the scheduler, not the FIFO service
  /// queue, so the finalize cannot intercept it — instead the retry
  /// consumes the marker and aborts rather than admitting into a
  /// transaction nobody is left to finalize. Each entry is consumed by
  /// exactly one retry (or dies with the node object).
  std::set<TxnId> staged_doomed_;
  StagedResolver staged_resolver_;

  uint64_t next_txn_seq_ = 1;
  uint64_t next_load_seq_ = 1;
  bool down_ = false;
  bool started_ = false;
  /// Liveness token for Guarded(): resets implicitly when the node object
  /// is destroyed on an amnesia restart.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  /// Anti-entropy catch-up state (recovery only).
  bool recovering_ = false;
  std::set<DcId> catchup_pending_;
  int catchup_attempts_ = 0;
  uint64_t catchup_records_ = 0;
  uint64_t records_replayed_ = 0;
  sim::SimTime recover_started_sim_ = 0;
  std::function<void(const RecoveryOutcome&)> catchup_done_;
  NodeCounters counters_;
  HistoryRecorder* history_ = nullptr;
  /// Observability (null = disabled). Histograms are resolved once in
  /// SetObservability so the hot path never touches the registry map.
  obs::TraceRecorder* trace_ = nullptr;
  obs::Histogram* h_queue_wait_us_ = nullptr;
  obs::Histogram* h_commit_wait_us_ = nullptr;
  obs::Histogram* h_commit_total_us_ = nullptr;
  obs::Histogram* h_abort_total_us_ = nullptr;
  RecordSink record_sink_;
  TimetableSink timetable_sink_;
  /// Recycles outgoing envelopes; in-flight shared_ptrs survive this
  /// node's destruction (amnesia crash) via the pool's weak deleter.
  common::ObjectPool<Envelope> envelope_pool_;
  /// Measures delays on every node; steps the clock only once
  /// set_clock_step_sink installed a sink.
  ClockDiscipline clock_discipline_;
  /// Runtime override of co[self][*]; empty = use the config's offsets.
  std::vector<Duration> offset_row_override_;

  // --- Gray-failure health state (null/empty unless config.health.enabled;
  // the zero-fault hot path only ever pays pointer/empty checks) ----------
  /// phi-accrual detectors fed from envelope arrivals (scheduler basis).
  std::unique_ptr<health::PeerHealth> peer_health_;
  /// Peers this node currently suspects, with the clock at onset.
  std::map<DcId, Timestamp> suspected_;
  /// Per peer: targets that peer's latest envelope declared suspected.
  std::vector<std::set<DcId>> remote_suspects_;
  /// Sender-clock watermark guarding remote_suspects_ against reordered
  /// envelopes overwriting newer suspicion state with older.
  std::vector<Timestamp> suspect_watermark_;
  /// Re-admission fences: refuse preparing records from peer p with
  /// ts < fence_[p] forever after p's re-admission, so records delayed
  /// inside p during its gray episode cannot undermine the degraded
  /// commits made while it was suspected.
  std::vector<Timestamp> fence_;
  /// q(t) of each still-preparing remote transaction (reaction mode only),
  /// so onset-time retroactive refusals carry the right timestamp.
  std::map<TxnId, Timestamp> ept_prepare_ts_;
  sim::SimTime last_hedge_ = 0;
  /// Injected gray degradations (sim::FaultPlan process/fsync stalls).
  sim::SimTime stalled_until_ = 0;
  sim::SimTime fsync_stall_until_ = 0;
  Duration fsync_penalty_ = 0;
};

}  // namespace helios::core

#endif  // HELIOS_CORE_HELIOS_NODE_H_
