// Multi-version key-value store: the repository's stand-in for the HBase
// layer under each Helios instance.
//
// Every committed write installs a version stamped with the transaction's
// commit timestamp. Versions of a key are ordered by (timestamp, writer) —
// a total order that every replica agrees on regardless of the order in
// which finished records arrive, so replicas converge deterministically.
//
// Correctness note (see core/helios_node.cc for the companion logic):
// commit timestamps are "dependency-bumped" above the version timestamps of
// everything the transaction read or overwrote, which guarantees that the
// (timestamp, writer) order of versions of a key matches the serialization
// order even when datacenter clocks are badly skewed. Clock synchronization
// therefore affects performance only, as the paper requires.

#ifndef HELIOS_STORE_MV_STORE_H_
#define HELIOS_STORE_MV_STORE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace helios {

/// One installed version of a key.
struct VersionedValue {
  Value value;
  Timestamp ts = kMinTimestamp;  ///< Commit timestamp of the writer.
  TxnId writer;                  ///< Transaction that installed the version.
};

/// How long replicas keep superseded versions before GC may drop them
/// (HeliosNode::RunGc, ReplicaCluster::ApplyDecision): the window of
/// snapshots MvStore::ReadAt can serve.
inline constexpr Duration kVersionRetention = Seconds(10);

/// In-memory multi-version store.
///
/// Storage: each key holds its newest version inline and its older
/// versions in a vector sorted by (ts, writer), so a key that is only ever
/// loaded costs one hash node and no version of its own. Writes almost
/// always arrive newest-first and append; an out-of-order write is
/// inserted by binary search.
///
/// GC: a min-heap holds, for each key with two or more versions, the key's
/// second-oldest version. Once that version falls below a horizon the
/// oldest is garbage, so TruncateVersionsBefore pops exactly the chains
/// it can shrink and a call that drops nothing costs one look at the top.
class MvStore {
 public:
  /// Writer origin of versions installed by LoadInitial: distinct from
  /// kInvalidDc and from every real datacenter id.
  static constexpr DcId kLoaderOrigin = -2;

  MvStore() = default;
  MvStore(const MvStore&) = delete;
  MvStore& operator=(const MvStore&) = delete;

  /// Latest version of `key`; NotFound if the key was never written.
  Result<VersionedValue> Read(const Key& key) const;

  /// Latest version with ts <= `snapshot_ts`; NotFound if no such version
  /// is left. No protocol under src/ calls it today: Helios read-only
  /// transactions read latest versions. Tests and perfbench's store replay
  /// call it, and closed-timestamp snapshot reads will; they are why
  /// replicas keep kVersionRetention of older versions.
  Result<VersionedValue> ReadAt(const Key& key, Timestamp snapshot_ts) const;

  /// Version timestamp of the latest version, or kMinTimestamp if absent.
  /// This is the value Algorithm 1 compares against the read set to detect
  /// overwritten reads.
  Timestamp LatestVersionTs(const Key& key) const;

  /// Largest latest-version timestamp across the keys `txn` reads or
  /// writes; used to dependency-bump commit timestamps.
  Timestamp MaxVersionTsOf(const TxnBody& txn) const;

  /// Installs one write. A repeated (commit_ts, writer) is ignored: the
  /// first value installed under a version stays.
  void ApplyWrite(const Key& key, const Value& value, Timestamp commit_ts,
                  TxnId writer);

  /// Installs the whole write set of a committed transaction.
  void ApplyTxn(const TxnBody& txn, Timestamp commit_ts);

  /// Installs an initial image outside the protocol, sizing an empty
  /// store's table for it. Each row lands at kMinTimestamp (skewed clocks
  /// can stamp early commits with negative timestamps, and a loaded
  /// version must never shadow a committed one) with writer
  /// {kLoaderOrigin, n}. n counts rows from 1 across calls and restarts at
  /// Clear, so a restarted store that reloads the same rows in one call
  /// gets the same writers as the original loads.
  void LoadInitial(const InitialRows& rows);

  /// Drops all but the newest version with ts < `horizon` for each key
  /// (older versions can no longer be read by any live snapshot).
  /// Horizons need not be monotone. Returns the number of versions
  /// discarded.
  size_t TruncateVersionsBefore(Timestamp horizon);

  /// Visits the latest version of every key, in unspecified key order.
  /// Checkers (src/check) snapshot replica state through this to compare
  /// live stores against a WAL replay.
  void ForEachLatest(
      const std::function<void(const Key&, const VersionedValue&)>& fn) const;

  size_t key_count() const { return data_.size(); }
  uint64_t version_count() const { return version_count_; }
  uint64_t writes_applied() const { return writes_applied_; }

  /// Drops every version and resets the counters and the loader sequence:
  /// the amnesia half of a crash restart (recovery then replays the WAL
  /// journal back in).
  void Clear();

 private:
  /// Every version of one key. `older` is ascending by (ts, writer) and
  /// every element of it is below `newest`.
  struct Chain {
    VersionedValue newest;
    std::vector<VersionedValue> older;
  };

  /// A chain's second-oldest version when it was scheduled. Stale once
  /// the chain's second-oldest changed; the pop then skips it.
  struct GcEntry {
    Timestamp ts;
    TxnId writer;
    Chain* chain;  ///< Stable: unordered_map nodes survive rehashing, and
                   ///< keys are never erased.
  };
  struct GcLater {
    bool operator()(const GcEntry& a, const GcEntry& b) const {
      if (a.ts != b.ts) return a.ts > b.ts;
      return b.writer < a.writer;
    }
  };

  /// The chain's second-oldest version; null with fewer than two.
  static const VersionedValue* SecondOldest(const Chain& chain);
  void Schedule(Chain& chain);

  std::unordered_map<Key, Chain> data_;
  std::priority_queue<GcEntry, std::vector<GcEntry>, GcLater> gc_heap_;
  uint64_t version_count_ = 0;
  uint64_t writes_applied_ = 0;
  uint64_t next_load_seq_ = 1;
};

}  // namespace helios

#endif  // HELIOS_STORE_MV_STORE_H_
