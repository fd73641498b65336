// FileWal: the file-backed write-ahead log for live deployments (heliosd,
// transport::LiveDatacenter): durable, append-only persistence for a
// datacenter's share of the replicated log, enabling restart recovery
// ("until the datacenter is back up again and Helios is recovered",
// Section 4.4).
//
// Every appended entry is framed as
//     u32 magic | u8 type | u32 payload_len | payload | u32 crc32(payload)
// where the payload is a wire-serialized LogRecord or a timetable
// snapshot. The recovery contract: replaying a WAL reproduces exactly the
// sequence of records the node had locally appended or ingested, in
// order, plus the latest persisted timetable — enough to rebuild the
// ReplicatedLog, replay committed write sets into the store, and rejoin
// the gossip without ever reusing a timestamp.
//
// On top of the framing, a daemon needs two things the simulator's
// MemoryWal does not:
//
//  * A configurable fsync policy. `kEveryRecord` fsyncs after each append
//    (a record is durable before the client ever sees "committed";
//    ~one disk flush per commit). `kGroupCommit` flushes to the OS on
//    every append but fsyncs only on an append that comes at least
//    `group_commit_interval` after the last fsync, batching many commits
//    into one flush. `kOsBuffered` never fsyncs (flush-to-OS only); data
//    survives process death but not host death.
//
//  * Crash-consistent recovery. `RecoverFileWal` distinguishes the two
//    corruption shapes a real disk produces: a torn tail (the process died
//    mid-append, leaving a partial final frame) is truncated off the file
//    and replay succeeds with what survived, while a corrupt frame in the
//    *middle* of otherwise valid data (bit rot, a bad sector) is a crisp
//    error naming the byte offset — silently dropping interior history
//    would desynchronize the replica from what its peers already
//    acknowledged.

#ifndef HELIOS_WAL_FILE_WAL_H_
#define HELIOS_WAL_FILE_WAL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/status.h"
#include "rdict/record.h"
#include "rdict/timetable.h"
#include "wal/wal_sink.h"
#include "wire/buffer.h"
#include "wire/codec.h"

namespace helios::wal {

inline constexpr uint32_t kEntryMagic = 0x57414C31;  // "WAL1"

enum class EntryType : uint8_t {
  kLogRecord = 1,
  kTimetable = 2,
};

enum class SyncPolicy : uint8_t {
  kOsBuffered = 0,   ///< fflush only; no fsync (fastest, least durable).
  kEveryRecord = 1,  ///< fsync after every append.
  kGroupCommit = 2,  ///< fsync at most once per group_commit_interval.
};

struct FileWalOptions {
  SyncPolicy policy = SyncPolicy::kGroupCommit;
  /// Minimum spacing of fsyncs under kGroupCommit. FileWal has no timer:
  /// an append fsyncs (covering every record before it) only if this much
  /// time has passed since the last fsync, so a record stays un-fsynced
  /// until the next such append. A running node appends at least a
  /// timetable checkpoint every GC tick (HeliosConfig::gc_interval,
  /// 500 ms by default), which bounds that wait.
  std::chrono::microseconds group_commit_interval{5000};
};

/// Parses "os"/"every"/"group" (the cluster-JSON spellings).
Result<SyncPolicy> ParseSyncPolicy(const std::string& name);
const char* SyncPolicyName(SyncPolicy policy);

/// File-backed WalSink with a durability policy. Not thread-safe; owned by
/// the datacenter's event loop like every other sink.
class FileWal : public WalSink {
 public:
  FileWal() = default;
  ~FileWal() override;
  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  /// Opens (creating or appending to) the WAL at `path`. Run
  /// `RecoverFileWal` first on restart: Open appends blindly and a torn
  /// tail left in place would corrupt the frame stream.
  Status Open(const std::string& path, const FileWalOptions& options = {});

  /// Appends one replicated-log record.
  Status AppendRecord(const rdict::LogRecord& record) override;

  /// Appends a timetable snapshot (checkpointing knowledge so recovery
  /// does not have to re-learn it from peers).
  Status AppendTimetable(const rdict::Timetable& table) override;

  /// Forces everything appended so far to disk regardless of policy
  /// (clean shutdown, pre-dump barrier).
  Status SyncToDisk();

  void Close();
  bool is_open() const { return file_ != nullptr; }
  const FileWalOptions& options() const { return options_; }
  uint64_t entries_appended() const override { return entries_appended_; }
  uint64_t bytes_written() const { return bytes_written_; }
  /// fsync() calls actually issued (group commit batches many appends
  /// into one).
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  using EncodePayloadFn = std::function<void(wire::Writer*)>;

  /// Frames one entry into the reused scratch buffer (payload encoded in
  /// place; length patched after the fact), writes it with one fwrite,
  /// then applies the policy.
  Status AppendEntry(EntryType type, const EncodePayloadFn& encode);

  /// Flushes buffered writes to the OS and optionally fsyncs.
  Status Flush(bool fsync_to_disk);

  /// Applies the policy after one append.
  Status AfterAppend();

  std::FILE* file_ = nullptr;
  wire::Buffer scratch_;
  FileWalOptions options_;
  uint64_t entries_appended_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t fsyncs_ = 0;
  bool dirty_ = false;  ///< Appends since the last fsync.
  std::chrono::steady_clock::time_point last_fsync_{};
};

/// What recovery found at `path`, beyond the replayed contents.
struct FileWalRecovery {
  WalContents contents;
  /// Bytes of valid frames kept (== file size after truncation).
  uint64_t valid_bytes = 0;
  /// Bytes of torn tail discarded (0 when the file was clean).
  uint64_t truncated_bytes = 0;
};

/// Replays and repairs the WAL at `path`. A missing file is a fresh node
/// (empty contents). A partial final frame — the file ends before the
/// frame's declared payload+CRC — is a torn tail: it is physically
/// truncated off the file so a subsequent FileWal::Open appends cleanly.
/// A complete frame that fails its CRC, carries a bad magic, or does not
/// decode is interior corruption: an error naming the byte offset, and
/// the file is left untouched for forensics.
Result<FileWalRecovery> RecoverFileWal(const std::string& path);

}  // namespace helios::wal

#endif  // HELIOS_WAL_FILE_WAL_H_
