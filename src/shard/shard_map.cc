#include "shard/shard_map.h"

#include <algorithm>
#include <cstdio>

namespace helios::shard {
namespace {

uint64_t Fnv1a64(const Key& key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ShardMap ShardMap::Hash(int num_shards) {
  ShardMap map;
  map.kind_ = Kind::kHash;
  map.num_shards_ = num_shards;
  return map;
}

ShardMap ShardMap::Range(std::vector<Key> boundaries) {
  ShardMap map;
  map.kind_ = Kind::kRange;
  map.num_shards_ = static_cast<int>(boundaries.size()) + 1;
  map.boundaries_ = std::move(boundaries);
  return map;
}

ShardMap ShardMap::RangeOverWorkloadKeys(int num_shards, uint64_t num_keys) {
  // Every shard must own at least one workload key: more shards than keys
  // would emit duplicate boundary strings — an invalid (overlapping) map.
  if (num_shards < 1) num_shards = 1;
  if (static_cast<uint64_t>(num_shards) > num_keys) {
    num_shards = num_keys < 1 ? 1 : static_cast<int>(num_keys);
  }
  std::vector<Key> boundaries;
  for (int s = 1; s < num_shards; ++s) {
    const uint64_t split =
        num_keys * static_cast<uint64_t>(s) / static_cast<uint64_t>(num_shards);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%08llu",
                  static_cast<unsigned long long>(split));
    boundaries.emplace_back(buf);
  }
  return Range(std::move(boundaries));
}

int ShardMap::ShardOf(const Key& key) const {
  if (num_shards_ <= 1) return 0;
  if (kind_ == Kind::kHash) {
    return static_cast<int>(Fnv1a64(key) %
                            static_cast<uint64_t>(num_shards_));
  }
  // First boundary > key starts the next partition; key belongs before it.
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), key);
  return static_cast<int>(it - boundaries_.begin());
}

Status ShardMap::Validate() const {
  if (num_shards_ < 1) {
    return Status::InvalidArgument("shard map needs >= 1 shard (got " +
                                   std::to_string(num_shards_) + ")");
  }
  if (kind_ == Kind::kHash) {
    if (!boundaries_.empty()) {
      return Status::InvalidArgument(
          "hash shard map must not carry range boundaries");
    }
    return Status::Ok();
  }
  if (static_cast<int>(boundaries_.size()) != num_shards_ - 1) {
    return Status::InvalidArgument(
        "range shard map with " + std::to_string(num_shards_) +
        " shards needs exactly " + std::to_string(num_shards_ - 1) +
        " boundaries (got " + std::to_string(boundaries_.size()) + ")");
  }
  for (size_t i = 0; i < boundaries_.size(); ++i) {
    if (boundaries_[i].empty()) {
      return Status::InvalidArgument(
          "range boundary " + std::to_string(i) +
          " is empty: shard 0 would own an empty partition");
    }
    if (i > 0 && boundaries_[i] <= boundaries_[i - 1]) {
      return Status::InvalidArgument(
          "range boundaries must be strictly ascending: boundary " +
          std::to_string(i) + " ('" + boundaries_[i] +
          "') does not sort after '" + boundaries_[i - 1] +
          "' (overlapping partitions)");
    }
  }
  return Status::Ok();
}

}  // namespace helios::shard
