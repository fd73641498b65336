// Transaction representation shared by Helios and every baseline protocol.
//
// Following the paper's system model (Section 4.1): clients perform reads
// first (collecting the version timestamp of each read), buffer writes, and
// submit a commit request carrying the read set (with version timestamps)
// and the buffered write set. Blind writes — a key in the write set that was
// never read — are allowed.

#ifndef HELIOS_TXN_TRANSACTION_H_
#define HELIOS_TXN_TRANSACTION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace helios {

/// One entry of a transaction's read set: the key plus the version
/// timestamp the client observed, used for "has it been overwritten?"
/// validation (Algorithm 1, lines 4-6).
struct ReadEntry {
  Key key;
  Timestamp version_ts = kMinTimestamp;
  /// Transaction that wrote the version the client read (invalid if the
  /// key had never been written). Used for exact overwrite validation and
  /// by the serializability checker's reads-from edges.
  TxnId version_writer;
};

/// One entry of a transaction's write set.
struct WriteEntry {
  Key key;
  Value value;
};

/// The immutable payload of a transaction: identity plus read and write
/// sets. Shared (by shared_ptr) between a transaction's preparing and
/// finished log records so replicating a decision does not copy the sets.
struct TxnBody {
  TxnId id;
  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;

  bool ReadsKey(const Key& k) const;
  bool WritesKey(const Key& k) const;
};

using TxnBodyPtr = std::shared_ptr<const TxnBody>;

/// Abort reason for a commit request whose write set names a key twice.
inline constexpr const char* kDuplicateWriteAbortReason =
    "invalid:duplicate_write";

/// True if `writes` names some key more than once. A write set comes from
/// a client, so every commit entry point refuses such a set (with
/// kDuplicateWriteAbortReason) before it builds a TxnBody.
bool HasDuplicateWriteKey(const std::vector<WriteEntry>& writes);

/// Builds a TxnBody. A write set that names a key twice stops the process
/// in every build: the commit entry points refuse one first.
TxnBodyPtr MakeTxnBody(TxnId id, std::vector<ReadEntry> reads,
                       std::vector<WriteEntry> writes);

/// True if the read or write set of `t` intersects the write set of
/// `other` — the conflict predicate of Algorithm 1 (a commit request
/// conflicting with a pooled preparing transaction) and, with the roles
/// swapped, of Algorithm 2 (an incoming remote transaction conflicting with
/// a local preparing one).
bool ConflictsWithWritesOf(const TxnBody& t, const TxnBody& other);

/// True if the write sets of the two transactions intersect.
bool WriteSetsIntersect(const TxnBody& a, const TxnBody& b);

}  // namespace helios

#endif  // HELIOS_TXN_TRANSACTION_H_
