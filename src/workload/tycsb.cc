#include "workload/tycsb.h"

#include <algorithm>
#include <cstdio>

namespace helios::workload {

TYcsbGenerator::TYcsbGenerator(const WorkloadConfig& config, uint64_t seed)
    : config_(config), rng_(seed), zipf_(config.num_keys, config.zipf_theta) {}

Key TYcsbGenerator::KeyName(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

InitialRows TYcsbGenerator::Preload(uint64_t num_keys) {
  InitialRows rows;
  rows.reserve(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) rows.emplace_back(KeyName(i), "init");
  return rows;
}

Value TYcsbGenerator::NextValue() {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  Value v;
  v.reserve(static_cast<size_t>(config_.value_size));
  for (int i = 0; i < config_.value_size; ++i) {
    v.push_back(kAlphabet[rng_.Uniform(sizeof(kAlphabet) - 1)]);
  }
  return v;
}

TxnPlan TYcsbGenerator::NextTxn() {
  TxnPlan plan;
  // Partition-local draws (key_partitions > 1): pick one contiguous
  // key-range partition for the whole transaction, then fold the zipf
  // index into it. The P == 1 path consumes exactly the original RNG
  // stream (base 0, span num_keys: the fold is the identity).
  uint64_t base = 0;
  uint64_t span = config_.num_keys;
  if (config_.key_partitions > 1) {
    const uint64_t parts = static_cast<uint64_t>(config_.key_partitions);
    const uint64_t p = rng_.Uniform(parts);
    base = config_.num_keys * p / parts;
    span = config_.num_keys * (p + 1) / parts - base;
  }
  // Distinct keys: each operation accesses a different record.
  std::vector<Key> keys;
  keys.reserve(static_cast<size_t>(config_.ops_per_txn));
  while (static_cast<int>(keys.size()) < config_.ops_per_txn) {
    Key k = KeyName(base + zipf_.Next(rng_) % span);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(std::move(k));
    }
  }

  if (config_.read_only_fraction > 0.0 &&
      rng_.Bernoulli(config_.read_only_fraction)) {
    plan.read_only = true;
    plan.reads = std::move(keys);
    return plan;
  }

  // Half reads, half writes; with an odd op count the extra op flips
  // between read and write across transactions via the RNG. Read-write
  // transactions always carry at least one write (the theoretical model of
  // Section 3.1 requires it).
  for (Key& k : keys) {
    if (rng_.Bernoulli(config_.write_fraction)) {
      plan.writes.push_back(std::move(k));
    } else {
      plan.reads.push_back(std::move(k));
    }
  }
  if (plan.writes.empty()) {
    plan.writes.push_back(std::move(plan.reads.back()));
    plan.reads.pop_back();
  }
  return plan;
}

}  // namespace helios::workload
