// The client-facing API every replication protocol in this repository
// implements (Helios and all three baselines of Section 5.2), so the
// T-YCSB workload driver and the experiment harness are protocol-agnostic.
//
// Per the paper's system model: clients perform reads first (through
// `ClientRead`, whose answer carries the version timestamp), buffer writes,
// then issue one commit request carrying the read set with version
// timestamps plus the write set. The commit latency the harness reports is
// the client-observed time from `ClientCommit` to its callback.

#ifndef HELIOS_API_PROTOCOL_H_
#define HELIOS_API_PROTOCOL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "store/mv_store.h"
#include "txn/transaction.h"

namespace helios::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace helios::obs

namespace helios::wal {
class MemoryWal;
}  // namespace helios::wal

namespace helios {

/// Decision returned to a client for a commit request.
struct CommitOutcome {
  TxnId id;
  bool committed = false;
  /// Short machine-parsable reason for aborts, e.g. "conflict:pool".
  std::string abort_reason;
};

using ReadCallback = std::function<void(Result<VersionedValue>)>;
using CommitCallback = std::function<void(const CommitOutcome&)>;
using ReadOnlyCallback =
    std::function<void(std::vector<Result<VersionedValue>>)>;

/// Crash-recovery progress, accumulated across every restart in the run
/// (restarted replica objects do not survive their next crash, so the
/// cluster owns the running totals). The harness exports these as
/// `recovery.*` counters for every protocol once a recovery happened.
struct RecoveryStats {
  uint64_t recoveries = 0;
  uint64_t records_replayed = 0;  ///< WAL records rebuilt on restart.
  uint64_t catchup_records = 0;   ///< Records pulled from peers post-restore.
  uint64_t duration_us = 0;       ///< Total restore -> caught-up time.
};

/// A running deployment of one protocol across the simulated datacenters.
class ProtocolCluster {
 public:
  virtual ~ProtocolCluster() = default;

  /// Begins background activity (log propagation, leases, ...). Call once
  /// before submitting client work.
  virtual void Start() = 0;

  /// Installs the same initial rows at every replica of each row's key,
  /// outside the protocol (experiment setup). Call before Start; repeated
  /// calls append, so load rows in the same order across runs for
  /// deterministic loader ids (MvStore::LoadInitial).
  virtual void LoadInitialAll(const InitialRows& rows) = 0;

  /// A client homed at `client_dc` reads `key`. The callback runs at the
  /// client, after client-to-datacenter link latency, with the value and
  /// version information needed to build the transaction's read set.
  virtual void ClientRead(DcId client_dc, const Key& key,
                          ReadCallback done) = 0;

  /// A client homed at `client_dc` requests to commit. `done` runs at the
  /// client when the decision arrives.
  virtual void ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                            std::vector<WriteEntry> writes,
                            CommitCallback done) = 0;

  /// Read-only snapshot transaction (Appendix B). Protocols without the
  /// optimization may implement it as individual reads.
  virtual void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                              ReadOnlyCallback done) = 0;

  // --- Transaction-scoped operations -------------------------------------
  //
  // Optimistic protocols (Helios, Message Futures) need no transaction
  // context before the commit request, so the defaults below forward to
  // the plain calls. Lock-based protocols (Replicated Commit, 2PC/Paxos)
  // override them: their reads acquire locks under the transaction's
  // identity and hold them until the decision.

  /// Allocates a client-side transaction identity.
  virtual TxnId BeginTxn(DcId client_dc);

  /// Reads `key` within transaction `txn`.
  virtual void TxnRead(DcId client_dc, const TxnId& txn, const Key& key,
                       ReadCallback done) {
    (void)txn;
    ClientRead(client_dc, key, done);
  }

  /// Requests commit of transaction `txn`.
  virtual void TxnCommit(DcId client_dc, const TxnId& txn,
                         std::vector<ReadEntry> reads,
                         std::vector<WriteEntry> writes, CommitCallback done) {
    (void)txn;
    ClientCommit(client_dc, std::move(reads), std::move(writes),
                 std::move(done));
  }

  /// Abandons a transaction after a failed read (releases any locks).
  virtual void TxnAbandon(DcId client_dc, const TxnId& txn) {
    (void)client_dc;
    (void)txn;
  }

  virtual std::string name() const = 0;
  virtual int num_datacenters() const = 0;

  // --- Observability (src/obs) -------------------------------------------

  /// Installs a lifecycle trace recorder and metrics registry on every
  /// component of the deployment. Either pointer may be null; protocols
  /// without instrumentation may ignore the call (default: no-op). Call
  /// before Start().
  virtual void SetObservability(obs::TraceRecorder* /*trace*/,
                                obs::MetricsRegistry* /*metrics*/) {}

  /// Dumps end-of-run protocol-level counters (commits, aborts, pool
  /// sizes, ...) into `registry`. Default: no-op.
  virtual void ExportMetrics(obs::MetricsRegistry* /*registry*/) const {}

  // --- Chaos harness (src/sim fault injection) ----------------------------

  /// Marks datacenter `dc`'s server process down or up without touching
  /// the network; the harness pairs this with Network::CrashNode /
  /// RecoverNode when executing a FaultPlan's node events. Default: no-op
  /// (the network-level drop already models the outage).
  virtual void SetDatacenterDown(DcId /*dc*/, bool /*down*/) {}

  /// Gray faults (FaultPlan's process-stall / fsync-stall kinds): freezes
  /// datacenter `dc`'s server process for `pause` without killing it (GC
  /// pause, VM migration, SIGSTOP) — the process stays up but does no work
  /// until the pause elapses. Default: no-op for deployments that cannot
  /// model it (the fault then simply has no effect on that protocol).
  virtual void InjectStall(DcId /*dc*/, Duration /*pause*/) {}

  /// Makes datacenter `dc`'s record persistence cost an extra `per_record`
  /// of service time for `window` (a sick disk). Default: no-op.
  virtual void InjectFsyncStall(DcId /*dc*/, Duration /*per_record*/,
                                Duration /*window*/) {}

  // --- Checker observation points (src/check) ------------------------------
  //
  // Read-only end-of-run surfaces the invariant oracles inspect: the
  // durable journal of every (datacenter, shard) replica, the latest
  // version of every key in a datacenter's store, the down flag, and the
  // accumulated recovery totals. Defaults are "nothing to observe" so
  // deployments without the surfaces (e.g. the live transport cluster)
  // need no changes.

  /// Number of shards the keyspace is split into; every datacenter runs
  /// one replica per shard. Default: 1 (an unsharded deployment).
  virtual int num_shards() const { return 1; }

  /// The durable in-memory WAL journal of datacenter `dc`'s replica of
  /// shard `shard` (in [0, num_shards())), or null when the deployment has
  /// none. A shard's journal carries only that shard's traffic. The
  /// journal outlives crashes, so it is valid even for a datacenter that
  /// is down at the end of the run.
  virtual const wal::MemoryWal* wal_journal(DcId /*dc*/,
                                            int /*shard*/) const {
    return nullptr;
  }

  /// Visits the latest installed version of every key in `dc`'s stores
  /// (one per shard; their key sets are disjoint). Default: no-op (no
  /// store surface).
  virtual void SnapshotStore(
      DcId /*dc*/,
      const std::function<void(const Key&, const VersionedValue&)>& /*fn*/)
      const {}

  /// Whether `dc` is crashed (down) right now.
  virtual bool datacenter_down(DcId /*dc*/) const { return false; }

  /// Copy of the accumulated crash-recovery totals.
  virtual RecoveryStats recovery_snapshot() const { return {}; }

 private:
  std::vector<uint64_t> client_txn_seq_;  // Lazily sized in BeginTxn.
};

inline TxnId ProtocolCluster::BeginTxn(DcId client_dc) {
  if (static_cast<size_t>(client_dc) >= client_txn_seq_.size()) {
    client_txn_seq_.resize(static_cast<size_t>(client_dc) + 1, 0);
  }
  return TxnId{client_dc, ++client_txn_seq_[static_cast<size_t>(client_dc)]};
}

}  // namespace helios

#endif  // HELIOS_API_PROTOCOL_H_
