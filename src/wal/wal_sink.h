// Durability sink abstraction over the write-ahead log.
//
// A `WalSink` receives every replicated-log record a node appends or
// ingests plus periodic timetable snapshots. Two implementations exist:
//
//  * `MemoryWal` (here, header-only): the simulator's "disk". It lives
//    outside the node object, so it survives the amnesia restart that a
//    fault-plan `crash` event performs — crash wipes the node, recovery
//    replays `contents()` through `HeliosNode::Restore()`.
//  * `wal::FileWal` (file_wal.h): the file-backed WAL used by the live
//    `transport::LiveDatacenter` deployment, with CRC-framed entries, an
//    fsync policy, and torn-tail repair in `RecoverFileWal`.
//
// The sink is deliberately free of simulation side effects: appending
// never schedules events, draws randomness, or touches counters that are
// exported by default, so wiring it unconditionally keeps crash-free runs
// bit-identical.

#ifndef HELIOS_WAL_WAL_SINK_H_
#define HELIOS_WAL_WAL_SINK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdict/record.h"
#include "rdict/timetable.h"

namespace helios::wal {

/// Everything a WAL replay recovers. (Shared by `MemoryWal` and
/// `RecoverFileWal()` in file_wal.h.)
struct WalContents {
  std::vector<rdict::LogRecord> records;  ///< In append order.
  /// Latest timetable snapshot, if any was persisted.
  bool has_timetable = false;
  rdict::Timetable timetable{1};
  /// True if a torn/corrupted tail was detected and discarded.
  bool truncated_tail = false;
  uint64_t entries = 0;
};

/// Where a node's durable state goes. Not thread-safe; owned by the
/// single-threaded event loop that owns the node.
class WalSink {
 public:
  virtual ~WalSink() = default;

  /// Persists one replicated-log record (any origin).
  virtual Status AppendRecord(const rdict::LogRecord& record) = 0;

  /// Persists a timetable snapshot (checkpointing knowledge so recovery
  /// does not have to re-learn it record by record).
  virtual Status AppendTimetable(const rdict::Timetable& table) = 0;

  virtual uint64_t entries_appended() const = 0;
};

/// In-memory WAL: what a per-datacenter disk would hold, kept outside the
/// node object so it survives node destruction. Only the latest timetable
/// snapshot is retained (a file WAL keeps them all but replay also only
/// uses the last one).
class MemoryWal : public WalSink {
 public:
  Status AppendRecord(const rdict::LogRecord& record) override {
    contents_.records.push_back(record);
    ++contents_.entries;
    return Status::Ok();
  }

  Status AppendTimetable(const rdict::Timetable& table) override {
    contents_.has_timetable = true;
    contents_.timetable = table;
    ++contents_.entries;
    return Status::Ok();
  }

  uint64_t entries_appended() const override { return contents_.entries; }

  const WalContents& contents() const { return contents_; }

  /// Drops everything — models losing the disk itself, not a restart.
  void Reset() { contents_ = WalContents{}; }

 private:
  WalContents contents_;
};

}  // namespace helios::wal

#endif  // HELIOS_WAL_WAL_SINK_H_
