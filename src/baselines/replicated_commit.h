// Replicated Commit (Mahmoud et al., VLDB'13), the paper's strongest
// baseline (Section 5.2).
//
// The client drives the protocol directly:
//   - Each read tries to shared-lock the key at ALL datacenters and
//     completes once a MAJORITY granted; the answer is the highest-version
//     value among the granting majority. (This majority-read strategy is
//     what costs Replicated Commit its throughput in Figure 3/4.)
//   - Commit sends a vote request to all datacenters — the paper describes
//     this as a Paxos accept round over the transaction. Each datacenter
//     acquires the write locks (no-wait), validates the reads, and votes.
//     A majority of yes-votes commits; the decision is then broadcast,
//     applying write sets and releasing locks.
//
// Commit latency is therefore one round trip to the closest majority,
// matching Helios-2's fault tolerance (2 of 5 datacenter outages).

#ifndef HELIOS_BASELINES_REPLICATED_COMMIT_H_
#define HELIOS_BASELINES_REPLICATED_COMMIT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/replica_cluster.h"
#include "store/lock_table.h"

namespace helios::baselines {

class ReplicatedCommitCluster : public ReplicaCluster {
 public:
  ReplicatedCommitCluster(sim::Scheduler* scheduler, sim::Network* network,
                          ReplicaConfig config);

  void ClientRead(DcId client_dc, const Key& key, ReadCallback done) override;
  void ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                      ReadOnlyCallback done) override;

  void TxnRead(DcId client_dc, const TxnId& txn, const Key& key,
               ReadCallback done) override;
  void TxnCommit(DcId client_dc, const TxnId& txn,
                 std::vector<ReadEntry> reads, std::vector<WriteEntry> writes,
                 CommitCallback done) override;
  void TxnAbandon(DcId client_dc, const TxnId& txn) override;

  std::string name() const override { return "ReplicatedCommit"; }

  const LockTable& locks(DcId dc) const {
    return locks_[static_cast<size_t>(dc)];
  }

 private:
  struct VoteReply {
    bool yes = false;
    Timestamp max_write_version_ts = kMinTimestamp;
  };

  /// The client-side vote count of one commit.
  struct Tally {
    int yes = 0;
    int no = 0;
    bool decided = false;
    /// The client gave up on the transaction (TxnAbandon) and broadcast
    /// its abort, releasing its locks: the tally must not commit it.
    bool abandoned = false;
    Timestamp max_write_version_ts = kMinTimestamp;
  };

  /// A crash also loses the datacenter's lock table.
  void OnCrash(DcId dc) override;

  // Server-side handlers; `reply` is routed back to the client by the
  // caller.
  void HandleLockRead(DcId dc, const TxnId& txn, Timestamp start_ts,
                      const Key& key,
                      std::function<void(Result<VersionedValue>)> reply);
  void HandleVote(DcId dc, const TxnId& txn, Timestamp start_ts,
                  const std::vector<ReadEntry>& reads,
                  const std::vector<WriteEntry>& writes,
                  std::function<void(VoteReply)> reply);
  void HandleDecision(DcId dc, const TxnId& txn, bool commit,
                      TxnBodyPtr body, Timestamp version_ts);

  void BroadcastDecision(DcId home, const TxnId& txn, bool commit,
                         TxnBodyPtr body, Timestamp version_ts);

  std::vector<LockTable> locks_;  ///< One no-wait table per datacenter.
  /// Tallies still waiting for a decision, so TxnAbandon can find them.
  std::unordered_map<TxnId, std::shared_ptr<Tally>, TxnIdHash> open_tallies_;
};

}  // namespace helios::baselines

#endif  // HELIOS_BASELINES_REPLICATED_COMMIT_H_
