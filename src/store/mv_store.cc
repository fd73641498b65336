#include "store/mv_store.h"

#include <algorithm>
#include <cstddef>

namespace helios {

namespace {

bool VersionLess(Timestamp a_ts, const TxnId& a_writer, Timestamp b_ts,
                 const TxnId& b_writer) {
  if (a_ts != b_ts) return a_ts < b_ts;
  return a_writer < b_writer;
}

/// Whether GC at `horizon` counts version (ts, writer) as below it. Ties
/// on ts compare against writer {kInvalidDc, 0}, so a loaded version
/// (origin kLoaderOrigin) stamped exactly at the horizon counts as below.
bool BelowHorizon(Timestamp ts, const TxnId& writer, Timestamp horizon) {
  return VersionLess(ts, writer, horizon, TxnId{kInvalidDc, 0});
}

}  // namespace

Result<VersionedValue> MvStore::Read(const Key& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return Status::NotFound("key has no versions: " + key);
  }
  return it->second.newest;
}

Result<VersionedValue> MvStore::ReadAt(const Key& key,
                                       Timestamp snapshot_ts) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return Status::NotFound("key has no versions: " + key);
  }
  const Chain& chain = it->second;
  if (chain.newest.ts <= snapshot_ts) return chain.newest;
  // First older version with ts > snapshot_ts; the predecessor is the
  // answer.
  auto upper = std::upper_bound(
      chain.older.begin(), chain.older.end(), snapshot_ts,
      [](Timestamp ts, const VersionedValue& v) { return ts < v.ts; });
  if (upper == chain.older.begin()) {
    return Status::NotFound("no version at or before snapshot for: " + key);
  }
  return *std::prev(upper);
}

Timestamp MvStore::LatestVersionTs(const Key& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return kMinTimestamp;
  return it->second.newest.ts;
}

Timestamp MvStore::MaxVersionTsOf(const TxnBody& txn) const {
  Timestamp max_ts = kMinTimestamp;
  for (const ReadEntry& r : txn.read_set) {
    max_ts = std::max(max_ts, LatestVersionTs(r.key));
  }
  for (const WriteEntry& w : txn.write_set) {
    max_ts = std::max(max_ts, LatestVersionTs(w.key));
  }
  return max_ts;
}

void MvStore::ApplyWrite(const Key& key, const Value& value,
                         Timestamp commit_ts, TxnId writer) {
  ++writes_applied_;
  auto [it, fresh] = data_.try_emplace(key);
  Chain& chain = it->second;
  if (fresh) {
    chain.newest = VersionedValue{value, commit_ts, writer};
    ++version_count_;
    return;
  }
  VersionedValue& newest = chain.newest;
  if (VersionLess(newest.ts, newest.writer, commit_ts, writer)) {
    chain.older.push_back(std::move(newest));
    newest = VersionedValue{value, commit_ts, writer};
    ++version_count_;
    // A newer version leaves the second-oldest in place unless the chain
    // just reached two versions.
    if (chain.older.size() == 1) Schedule(chain);
    return;
  }
  if (newest.ts == commit_ts && newest.writer == writer) return;
  // Out of order: below the newest version.
  auto pos = std::partition_point(
      chain.older.begin(), chain.older.end(), [&](const VersionedValue& v) {
        return VersionLess(v.ts, v.writer, commit_ts, writer);
      });
  if (pos != chain.older.end() && pos->ts == commit_ts &&
      pos->writer == writer) {
    return;
  }
  const size_t index = static_cast<size_t>(pos - chain.older.begin());
  chain.older.insert(pos, VersionedValue{value, commit_ts, writer});
  ++version_count_;
  // Landing at index 0 or 1 moves the second-oldest version earlier (or,
  // with one older version, the chain just reached two).
  if (index <= 1) Schedule(chain);
}

void MvStore::ApplyTxn(const TxnBody& txn, Timestamp commit_ts) {
  for (const WriteEntry& w : txn.write_set) {
    ApplyWrite(w.key, w.value, commit_ts, txn.id);
  }
}

void MvStore::LoadInitial(const InitialRows& rows) {
  // Size the table once for the image a store starts from. Not on later
  // calls: reserve can also shrink the table, and loads of one row at a
  // time (LiveDatacenter) would rehash every few percent of growth.
  if (data_.empty()) data_.reserve(rows.size());
  for (const auto& [key, value] : rows) {
    ApplyWrite(key, value, kMinTimestamp,
               TxnId{kLoaderOrigin, next_load_seq_++});
  }
}

void MvStore::ForEachLatest(
    const std::function<void(const Key&, const VersionedValue&)>& fn) const {
  for (const auto& [key, chain] : data_) fn(key, chain.newest);
}

const VersionedValue* MvStore::SecondOldest(const Chain& chain) {
  if (chain.older.empty()) return nullptr;
  return chain.older.size() == 1 ? &chain.newest : &chain.older[1];
}

void MvStore::Schedule(Chain& chain) {
  const VersionedValue* second = SecondOldest(chain);
  gc_heap_.push(GcEntry{second->ts, second->writer, &chain});
}

size_t MvStore::TruncateVersionsBefore(Timestamp horizon) {
  size_t dropped = 0;
  while (!gc_heap_.empty()) {
    const GcEntry top = gc_heap_.top();
    if (!BelowHorizon(top.ts, top.writer, horizon)) break;
    gc_heap_.pop();
    Chain& chain = *top.chain;
    const VersionedValue* second = SecondOldest(chain);
    if (second == nullptr || second->ts != top.ts ||
        second->writer != top.writer) {
      continue;  // Stale: the chain was shrunk or rescheduled since.
    }
    // Keep the newest version below the horizon (it is still the visible
    // version for snapshots at the horizon) and everything above. The
    // second-oldest is below it, so at least the oldest goes.
    std::vector<VersionedValue>& older = chain.older;
    size_t cut = older.size();  // Every older version, if newest is below.
    if (!BelowHorizon(chain.newest.ts, chain.newest.writer, horizon)) {
      const auto above = std::partition_point(
          older.begin(), older.end(), [horizon](const VersionedValue& v) {
            return BelowHorizon(v.ts, v.writer, horizon);
          });
      cut = static_cast<size_t>(above - older.begin()) - 1;
    }
    older.erase(older.begin(),
                older.begin() + static_cast<std::ptrdiff_t>(cut));
    dropped += cut;
    if (older.empty()) {
      older.shrink_to_fit();  // Most keys settle back at one version.
    } else {
      Schedule(chain);
    }
  }
  version_count_ -= dropped;
  return dropped;
}

void MvStore::Clear() {
  data_.clear();
  gc_heap_ = {};
  version_count_ = 0;
  writes_applied_ = 0;
  next_load_seq_ = 1;
}

}  // namespace helios
