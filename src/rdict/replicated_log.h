// Per-datacenter instance of the Replicated Dictionary shared log
// (Wuu & Bernstein, PODC'84), the communication substrate of Helios and
// Message Futures.
//
// Each datacenter appends its own records with strictly increasing local
// timestamps and periodically sends every peer a *partial log*: exactly the
// records the timetable says the peer may not have, plus a copy of its
// timetable. Receipt merges new records (including transitively relayed
// ones) and the timetable. Records known by every datacenter can be
// garbage-collected.
//
// Storage is one deque per origin in ascending timestamp order. An
// origin's records reach every log in that order (own appends take
// increasing timestamps, and a partial log carries each origin's records
// above what the receiver already knows), so inserting is an append.
// Because the timetable bounds what a peer has *per origin*
// (T[peer][origin] >= ts), building a partial log is a binary search per
// origin plus a k-way merge of the suffixes — proportional to the records
// actually sent, not to every live record, and over contiguous storage.
// Garbage collection is likewise a prefix pop per origin. The merge emits
// records in ascending (ts, origin) order.

#ifndef HELIOS_RDICT_REPLICATED_LOG_H_
#define HELIOS_RDICT_REPLICATED_LOG_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rdict/record.h"
#include "rdict/timetable.h"

namespace helios::rdict {

/// A partial-log transmission between two datacenters.
struct LogMessage {
  DcId from = kInvalidDc;
  Timetable table;
  std::vector<LogRecord> records;  ///< Sorted by RecordOrder.

  explicit LogMessage(int n) : table(n) {}
};

/// One datacenter's view of the replicated log.
class ReplicatedLog {
 public:
  ReplicatedLog(DcId self, int n);

  DcId self() const { return self_; }
  int size() const { return n_; }
  const Timetable& table() const { return table_; }

  /// Appends a locally created record. `rec.origin` must equal self and
  /// `rec.ts` must exceed every timestamp this datacenter has used before.
  Status AppendLocal(const LogRecord& rec);

  /// Declares that this datacenter has produced every record it will ever
  /// produce with timestamp <= `ts` (i.e. its clock passed `ts`). Called
  /// before each transmission so peers' knowledge advances even when this
  /// datacenter is idle — without it, an idle datacenter would stall every
  /// peer's commit wait. `ts` below the current bound is ignored; all
  /// subsequent appends must use timestamps > `ts`.
  void AdvanceOwnClock(Timestamp ts) { table_.Advance(self_, self_, ts); }

  /// Builds the partial log for `peer`: every live record the timetable
  /// does not prove the peer has, plus this datacenter's timetable.
  LogMessage BuildMessageFor(DcId peer) const;

  /// Reuse form of BuildMessageFor: fills `out` in place, keeping its
  /// vector capacities, so a pooled message/envelope costs no allocation
  /// in steady state. `out` must have been constructed for this cluster
  /// size.
  void BuildMessageInto(DcId peer, LogMessage* out) const;

  /// Ingests a message. Returns the records this datacenter had not seen
  /// before, in RecordOrder, after merging the timetable. Records the
  /// timetable already covers are ignored (duplicate delivery is harmless).
  std::vector<LogRecord> Ingest(const LogMessage& msg);

  /// Recovery: re-inserts a record persisted before a restart (any
  /// origin), advancing this datacenter's direct knowledge. Duplicates are
  /// ignored. Only call before normal operation resumes.
  void RestoreRecord(const LogRecord& rec);

  /// Recovery: merges a persisted timetable snapshot (element-wise max).
  void RestoreTimetable(const Timetable& table);

  /// Discards records that every datacenter is known to have received.
  /// Returns the number discarded.
  size_t GarbageCollect();

  /// Records currently retained (pre-GC).
  size_t live_records() const { return live_count_; }
  uint64_t total_appended() const { return total_appended_; }

  /// Direct-knowledge convenience: T[self][origin].
  Timestamp KnownUpTo(DcId origin) const { return table_.Get(self_, origin); }

  /// Scans live records in order (for tests and debugging).
  std::vector<LogRecord> Snapshot() const;

 private:
  /// One origin's live records, in ascending timestamp order.
  using OriginLog = std::deque<LogRecord>;

  /// Appends every record from per-origin suffixes starting at `from[o]`
  /// to `out` in ascending (ts, origin) order.
  void MergeSuffixes(const std::vector<OriginLog::const_iterator>& from,
                     std::vector<LogRecord>* out) const;

  /// Inserts unless a record with that (origin, ts) already exists.
  /// Returns whether it inserted. An append in the common case; only
  /// recovery can insert below an origin's newest record.
  bool InsertRecord(const LogRecord& rec);

  DcId self_;
  int n_;
  Timetable table_;
  std::vector<OriginLog> by_origin_;
  size_t live_count_ = 0;
  uint64_t total_appended_ = 0;
};

}  // namespace helios::rdict

#endif  // HELIOS_RDICT_REPLICATED_LOG_H_
