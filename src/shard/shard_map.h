// Partitioning of the keyspace across independent Helios deployments.
//
// A ShardMap is a pure routing function: it never changes during a run
// (no splits/merges/rebalancing), so every datacenter's coordinator and
// every client agree on which shard owns a key by construction. Two
// partition kinds:
//
//   hash   FNV-1a(key) mod S — uniform spread, destroys key locality.
//   range  S-1 sorted split points; shard i owns [boundary[i-1],
//          boundary[i]) with open ends — preserves locality, so a
//          workload over disjoint key ranges touches one shard per
//          transaction (the bench's disjoint-partition scaling leg).

#ifndef HELIOS_SHARD_SHARD_MAP_H_
#define HELIOS_SHARD_SHARD_MAP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace helios::shard {

class ShardMap {
 public:
  enum class Kind { kHash, kRange };

  /// Single-shard hash map: every key routes to shard 0.
  ShardMap() = default;

  static ShardMap Hash(int num_shards);
  /// Range partition from S-1 split points (must be sorted, distinct and
  /// non-empty — Validate() reports which constraint failed).
  static ShardMap Range(std::vector<Key> boundaries);
  /// Range partition splitting the harness workload keyspace
  /// ("user%08llu", see workload::TYcsbGenerator) into `num_shards`
  /// near-equal contiguous runs of `num_keys` keys. `num_shards` is
  /// clamped to [1, num_keys] so every shard owns at least one key —
  /// the result always passes Validate().
  static ShardMap RangeOverWorkloadKeys(int num_shards, uint64_t num_keys);

  Kind kind() const { return kind_; }
  int num_shards() const { return num_shards_; }
  const std::vector<Key>& boundaries() const { return boundaries_; }

  /// Which shard owns `key`. The map must be Validate()-clean.
  int ShardOf(const Key& key) const;

  /// Structural sanity: num_shards >= 1; a range map has exactly
  /// num_shards - 1 boundaries, strictly ascending and non-empty (an
  /// empty first boundary would leave shard 0 an empty partition, and
  /// equal neighbours would overlap).
  Status Validate() const;

  friend bool operator==(const ShardMap& a, const ShardMap& b) {
    return a.kind_ == b.kind_ && a.num_shards_ == b.num_shards_ &&
           a.boundaries_ == b.boundaries_;
  }
  friend bool operator!=(const ShardMap& a, const ShardMap& b) {
    return !(a == b);
  }

 private:
  Kind kind_ = Kind::kHash;
  int num_shards_ = 1;
  std::vector<Key> boundaries_;  ///< Range kind only (size num_shards - 1).
};

}  // namespace helios::shard

#endif  // HELIOS_SHARD_SHARD_MAP_H_
