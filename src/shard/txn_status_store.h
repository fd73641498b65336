// Durable per-datacenter transaction-status table for cross-shard commits.
//
// The parallel-commit coordinator of a sharded core::HeliosCluster writes
// a STAGED entry before fanning a transaction's slices out to the
// participant shards and upgrades it to COMMITTED/ABORTED at decision
// time — always *before* the client hears the outcome. The table models the durable disk of the
// coordinator's datacenter: a node crash destroys the coordinator's
// volatile state but never this table, so a recovering shard node can ask
// "what actually happened to this staged transaction I still hold an
// intent for?" (HeliosNode::set_staged_resolver) and get the only answer
// that is safe against what the client may have observed.

#ifndef HELIOS_SHARD_TXN_STATUS_STORE_H_
#define HELIOS_SHARD_TXN_STATUS_STORE_H_

#include <map>
#include <vector>

#include "common/types.h"

namespace helios::shard {

enum class TxnStatus { kStaged, kCommitted, kAborted };

inline const char* TxnStatusName(TxnStatus s) {
  switch (s) {
    case TxnStatus::kStaged:
      return "STAGED";
    case TxnStatus::kCommitted:
      return "COMMITTED";
    case TxnStatus::kAborted:
      return "ABORTED";
  }
  return "?";
}

struct TxnStatusRecord {
  TxnStatus status = TxnStatus::kStaged;
  Timestamp commit_ts = kMinTimestamp;  ///< Valid iff kCommitted.
  std::vector<int> participants;        ///< Shards holding a slice.
};

class TxnStatusStore {
 public:
  void Stage(const TxnId& id, std::vector<int> participants) {
    TxnStatusRecord rec;
    rec.participants = std::move(participants);
    entries_[id] = std::move(rec);
  }

  void Commit(const TxnId& id, Timestamp commit_ts) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    it->second.status = TxnStatus::kCommitted;
    it->second.commit_ts = commit_ts;
  }

  void Abort(const TxnId& id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    it->second.status = TxnStatus::kAborted;
  }

  const TxnStatusRecord* Lookup(const TxnId& id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  const std::map<TxnId, TxnStatusRecord>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::map<TxnId, TxnStatusRecord> entries_;
};

}  // namespace helios::shard

#endif  // HELIOS_SHARD_TXN_STATUS_STORE_H_
