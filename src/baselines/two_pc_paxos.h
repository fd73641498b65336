// 2PC/Paxos: the Spanner-inspired baseline of Section 5.2.
//
// One datacenter (Virginia in the paper's setup) is the 2PC coordinator:
//   - Every read is routed to the coordinator, which takes a shared lock in
//     its lock table and returns the value. Locks are held from the first
//     read until after commit — the long lock spans are what drive this
//     protocol's high abort rate in Figure 3(c).
//   - Commit is routed to the coordinator, which acquires write locks,
//     validates the read locks, then replicates the transaction to a
//     majority of datacenters before answering. The coordinator holds a
//     Paxos leader lease ("so that it will not need to go through the
//     leader election phase"), so replication is one accept round.
//   - Deadlocks are prevented with wound-wait (the paper aborts deadlocked
//     transactions immediately).
//
// A client's commit latency is RTT(client, coordinator) plus the Paxos
// round trip from the coordinator to its closest majority — which is why
// clients at or near the coordinator fare so much better than the rest
// (Figure 3(a)). All load concentrates on the coordinator's single server,
// which is what thrashes past ~195 clients in Figure 4.

#ifndef HELIOS_BASELINES_TWO_PC_PAXOS_H_
#define HELIOS_BASELINES_TWO_PC_PAXOS_H_

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "baselines/replica_cluster.h"
#include "store/lock_table.h"

namespace helios::baselines {

class TwoPcPaxosCluster : public ReplicaCluster {
 public:
  TwoPcPaxosCluster(sim::Scheduler* scheduler, sim::Network* network,
                    ReplicaConfig config, DcId coordinator);

  void ClientRead(DcId client_dc, const Key& key, ReadCallback done) override;
  void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                      ReadOnlyCallback done) override;

  void TxnRead(DcId client_dc, const TxnId& txn, const Key& key,
               ReadCallback done) override;
  void TxnCommit(DcId client_dc, const TxnId& txn,
                 std::vector<ReadEntry> reads, std::vector<WriteEntry> writes,
                 CommitCallback done) override;
  void TxnAbandon(DcId client_dc, const TxnId& txn) override;

  std::string name() const override { return "2PC/Paxos"; }

  /// Adds `protocol.wounds` to the shared counters.
  void ExportMetrics(obs::MetricsRegistry* registry) const override;

 private:
  /// At the coordinator a crash also loses the lock table and the wound
  /// bookkeeping.
  void OnCrash(DcId dc) override;
  /// The coordinator first: it journals every decision at decision time,
  /// so its journal is complete; a replica's may trail by in-flight
  /// learner messages.
  std::vector<DcId> CatchupSources(DcId dc) const override;

  /// Async sequential write-lock acquisition, then validation, then the
  /// accept round.
  void CoordinatorCommit(DcId home, const TxnId& txn, TxnBodyPtr body,
                         CommitCallback done);
  void AcquireWriteLocks(const TxnId& txn, Timestamp start_ts, TxnBodyPtr body,
                         size_t index, std::function<void(bool)> then);
  bool ValidateReads(const TxnId& txn, Timestamp start_ts,
                     const TxnBody& body);
  void FinishAtCoordinator(DcId home, const TxnId& txn, TxnBodyPtr body,
                           bool commit, CommitCallback done);
  /// The accept round the lease leaves of Paxos: the coordinator's own
  /// vote counts at once, each peer votes after its log-message service
  /// time, and `chosen` runs once, when a majority (n / 2 + 1) has voted.
  /// A reply raised against an earlier coordinator generation is dropped;
  /// every other reply occupies the coordinator, late ones included.
  void ReplicateToMajority(std::function<void()> chosen);

  bool Doomed(const TxnId& txn) const { return doomed_.count(txn) > 0; }

  /// Fresh coordinator-side lock table whose wound handler dooms victims.
  std::unique_ptr<LockTable> MakeLockTable();

  const DcId coordinator_;
  std::unique_ptr<LockTable> lock_table_;  ///< At the coordinator.
  /// Wounded transactions, and abandoned ones whose commit is in flight.
  std::unordered_set<TxnId, TxnIdHash> doomed_;
  /// Commits the coordinator has started and not yet finished.
  std::unordered_set<TxnId, TxnIdHash> committing_;
};

}  // namespace helios::baselines

#endif  // HELIOS_BASELINES_TWO_PC_PAXOS_H_
