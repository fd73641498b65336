// T-YCSB: the transactional YCSB workload of Section 5.1.
//
// "It issues transactions that consist of a set of read and write
// operations, where each operation accesses a different record of the data
// store. [...] An operation is either a read or a write to a key from a
// pool of 50000 keys. The key is chosen using a Zipfian distribution. Each
// transaction contains five operations. Half of these operations are reads
// and the other half are writes."

#ifndef HELIOS_WORKLOAD_TYCSB_H_
#define HELIOS_WORKLOAD_TYCSB_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace helios::workload {

struct WorkloadConfig {
  int ops_per_txn = 5;
  /// Probability an operation is a write. The paper's half/half split of 5
  /// operations rounds per-transaction: ceil/floor alternating around 0.5.
  double write_fraction = 0.5;
  uint64_t num_keys = 50000;
  /// Zipfian skew. Note: YCSB's default theta of 0.99 concentrates ~8% of
  /// accesses on the hottest of 50,000 keys; with 60 concurrent clients
  /// and 100-300ms transactions that forces near-total aborts for every
  /// protocol — far from the paper's reported ~0.7% per 30 clients. The
  /// paper's measured abort rates imply weak effective skew, so the
  /// default here is mild (0.2). See EXPERIMENTS.md ("workload
  /// calibration").
  double zipf_theta = 0.2;
  int value_size = 16;
  /// Partition-local transactions: with P > 1, each transaction first
  /// draws one of P contiguous key-range partitions (boundaries
  /// num_keys*p/P — the same split ShardMap::RangeOverWorkloadKeys uses)
  /// and confines all its keys to it, so a range-sharded deployment with
  /// S == P shards sees only single-shard transactions. P == 1 (the
  /// default) draws no extra randomness and is byte-identical to the
  /// un-partitioned stream.
  int key_partitions = 1;
  /// Fraction of transactions issued as read-only snapshot transactions
  /// (Appendix B); 0 reproduces the paper's main experiments.
  double read_only_fraction = 0.0;
};

/// One planned transaction: distinct keys split into reads and writes.
struct TxnPlan {
  std::vector<Key> reads;
  std::vector<Key> writes;
  bool read_only = false;
};

/// Deterministic per-client workload stream.
class TYcsbGenerator {
 public:
  TYcsbGenerator(const WorkloadConfig& config, uint64_t seed);

  /// Next transaction plan: `ops_per_txn` distinct keys, read/write split
  /// per the configured fraction (at least one write, as the paper's model
  /// requires of read-write transactions).
  TxnPlan NextTxn();

  /// Canonical key name for index `i`, e.g. "user00000042".
  static Key KeyName(uint64_t i);

  /// The experiments' initial image: keys 0..num_keys-1 in order, each
  /// with value "init".
  static InitialRows Preload(uint64_t num_keys);

  /// Random payload of the configured size.
  Value NextValue();

  const WorkloadConfig& config() const { return config_; }

 private:
  WorkloadConfig config_;
  Rng rng_;
  ZipfianGenerator zipf_;
};

}  // namespace helios::workload

#endif  // HELIOS_WORKLOAD_TYCSB_H_
