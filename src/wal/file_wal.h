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
//    every append and leaves the fsync to a syncer thread, which batches
//    many commits into one flush per `group_commit_interval`, off the
//    appending thread. `kOsBuffered` never fsyncs (flush-to-OS only);
//    data survives process death but not host death.
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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

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
  /// Spacing of fsyncs under kGroupCommit. Every append reaches the OS
  /// before AppendRecord returns; the WAL's syncer thread then fsyncs at
  /// most once per interval and starts the fsync that covers an append
  /// within one interval of the first append since the previous fsync.
  /// No further append is needed, so a node that falls quiet has its
  /// last records on disk within one interval, not at its next append
  /// (a GC tick's timetable checkpoint, up to 500 ms away by default).
  std::chrono::microseconds group_commit_interval{5000};
};

/// Parses "os"/"every"/"group" (the cluster-JSON spellings).
Result<SyncPolicy> ParseSyncPolicy(const std::string& name);
const char* SyncPolicyName(SyncPolicy policy);

/// File-backed WalSink with a durability policy. Open, appends and Close
/// belong to one thread (the datacenter's event loop, like every other
/// sink); SyncToDisk may also run on another thread while appends do, as
/// stdio locks the FILE. Under kGroupCommit a syncer thread of the WAL's
/// own issues the fsyncs; it touches only the file descriptor, the dirty
/// flag and the fsync counters, never the FILE buffer. The fsync counters
/// are safe to read from any thread.
///
/// The first failed fsync is sticky, whichever thread issued it: every
/// later append and SyncToDisk returns it, because after a failed fsync
/// the kernel may already have dropped the dirty pages, so a later
/// successful fsync proves nothing about the records before it.
class FileWal : public WalSink {
 public:
  FileWal() = default;
  ~FileWal() override;
  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  /// Opens (creating or appending to) the WAL at `path` and, under
  /// kGroupCommit, starts the syncer. Run `RecoverFileWal` first on
  /// restart: Open appends blindly and a torn tail left in place would
  /// corrupt the frame stream.
  Status Open(const std::string& path, const FileWalOptions& options = {});

  /// Appends one replicated-log record.
  Status AppendRecord(const rdict::LogRecord& record) override;

  /// Appends a timetable snapshot (checkpointing knowledge so recovery
  /// does not have to re-learn it from peers).
  Status AppendTimetable(const rdict::Timetable& table) override;

  /// Forces everything appended so far to disk on the calling thread,
  /// regardless of policy (clean shutdown, pre-dump barrier).
  Status SyncToDisk();

  /// Stops and joins the syncer, fsyncs what it had not yet synced, and
  /// closes the file.
  void Close();
  bool is_open() const { return file_ != nullptr; }
  const FileWalOptions& options() const { return options_; }
  uint64_t entries_appended() const override { return entries_appended_; }
  uint64_t bytes_written() const { return bytes_written_; }
  /// fsync() calls actually issued (group commit batches many appends
  /// into one). Thread-safe, like the two below.
  uint64_t fsyncs() const { return fsyncs_.load(); }
  /// Wall time spent in fsync(), summed over every call and at its worst.
  uint64_t fsync_us_total() const {
    return fsync_us_total_.load(std::memory_order_relaxed);
  }
  uint64_t fsync_us_max() const {
    return fsync_us_max_.load(std::memory_order_relaxed);
  }

 private:
  using EncodePayloadFn = std::function<void(wire::Writer*)>;

  /// Frames one entry into the reused scratch buffer (payload encoded in
  /// place; length patched after the fact), writes it with one fwrite,
  /// then applies the policy.
  Status AppendEntry(EntryType type, const EncodePayloadFn& encode);

  /// Flushes buffered writes to the OS.
  Status Flush();

  /// fsyncs the descriptor, timing the call and recording a failure as
  /// the sticky error. Any thread.
  Status Fsync();

  /// The sticky fsync error, or OK.
  Status SyncError() const;

  /// The syncer thread's body (kGroupCommit only).
  void RunSyncer();

  std::FILE* file_ = nullptr;
  int fd_ = -1;
  wire::Buffer scratch_;
  FileWalOptions options_;
  uint64_t entries_appended_ = 0;
  uint64_t bytes_written_ = 0;

  std::atomic<int> sync_errno_{0};  ///< errno of the first failed fsync.
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> fsync_us_total_{0};
  std::atomic<uint64_t> fsync_us_max_{0};

  std::mutex syncer_mu_;
  /// Appends since the last fsync started. Written under syncer_mu_;
  /// appends read it without the lock, so only the first one since an
  /// fsync takes it.
  std::atomic<bool> dirty_{false};
  bool stop_syncer_ = false;           ///< Guarded by syncer_mu_.
  std::condition_variable syncer_cv_;  ///< Signals dirt or stop.
  std::thread syncer_;                 ///< Last: it uses the members above.
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
