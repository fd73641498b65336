#include "wal/file_wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "wire/codec.h"
#include "wire/serialization.h"

namespace helios::wal {

Result<SyncPolicy> ParseSyncPolicy(const std::string& name) {
  if (name == "os") return SyncPolicy::kOsBuffered;
  if (name == "every") return SyncPolicy::kEveryRecord;
  if (name == "group") return SyncPolicy::kGroupCommit;
  return Status::InvalidArgument("unknown sync policy '" + name +
                                 "' (want os|every|group)");
}

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kOsBuffered:
      return "os";
    case SyncPolicy::kEveryRecord:
      return "every";
    case SyncPolicy::kGroupCommit:
      return "group";
  }
  return "?";
}

FileWal::~FileWal() { Close(); }

Status FileWal::Open(const std::string& path, const FileWalOptions& options) {
  Close();
  options_ = options;
  dirty_.store(false);
  sync_errno_.store(0);
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open WAL " + path + ": " +
                            std::strerror(errno));
  }
  fd_ = ::fileno(file_);
  if (options_.policy == SyncPolicy::kGroupCommit) {
    stop_syncer_ = false;
    syncer_ = std::thread([this]() { RunSyncer(); });
  }
  return Status::Ok();
}

Status FileWal::AppendEntry(EntryType type, const EncodePayloadFn& encode) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (Status s = SyncError(); !s.ok()) return s;
  // Single-buffer framing: the payload is encoded in place after a
  // fixed-width length placeholder that is patched once the size is
  // known, so one reused buffer and one fwrite cover the whole entry.
  scratch_.Clear();
  wire::Writer w(&scratch_);
  w.PutFixed32(kEntryMagic);
  w.PutU8(static_cast<uint8_t>(type));
  const size_t len_at = w.offset();
  w.PutFixed32(0);  // Payload length, patched below.
  const size_t payload_at = w.offset();
  encode(&w);
  const size_t payload_len = w.offset() - payload_at;
  w.PatchFixed32(len_at, static_cast<uint32_t>(payload_len));
  w.PutFixed32(wire::Crc32(scratch_.data() + payload_at, payload_len));
  if (std::fwrite(scratch_.data(), 1, scratch_.size(), file_) !=
      scratch_.size()) {
    return Status::Internal(std::string("WAL write failed: ") +
                            std::strerror(errno));
  }
  ++entries_appended_;
  bytes_written_ += scratch_.size();
  // Every policy hands the bytes to the OS before returning, so they
  // survive the death of the process.
  if (Status s = Flush(); !s.ok()) return s;
  switch (options_.policy) {
    case SyncPolicy::kEveryRecord:
      return Fsync();
    case SyncPolicy::kGroupCommit:
      // The syncer fsyncs within one interval. Only the first append
      // since the last fsync wakes it: while the flag is set, an fsync
      // is still to start, and it covers this append.
      if (!dirty_.load()) {
        std::lock_guard<std::mutex> lock(syncer_mu_);
        dirty_.store(true);
        syncer_cv_.notify_one();
      }
      return Status::Ok();
    case SyncPolicy::kOsBuffered:
      return Status::Ok();
  }
  return Status::Internal("unreachable");
}

Status FileWal::AppendRecord(const rdict::LogRecord& record) {
  return AppendEntry(EntryType::kLogRecord, [&record](wire::Writer* w) {
    wire::EncodeLogRecord(record, w);
  });
}

Status FileWal::AppendTimetable(const rdict::Timetable& table) {
  return AppendEntry(EntryType::kTimetable, [&table](wire::Writer* w) {
    wire::EncodeTimetable(table, w);
  });
}

Status FileWal::Flush() {
  if (std::fflush(file_) != 0) {
    return Status::Internal(std::string("WAL flush failed: ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Status FileWal::Fsync() {
  const auto start = std::chrono::steady_clock::now();
  const int err = ::fsync(fd_) == 0 ? 0 : errno;
  const auto us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (err != 0) {
    int none = 0;
    sync_errno_.compare_exchange_strong(none, err);
  }
  // Counted after the error is recorded, so whoever sees this fsync
  // counted also sees its failure.
  fsyncs_.fetch_add(1);
  fsync_us_total_.fetch_add(us, std::memory_order_relaxed);
  uint64_t max = fsync_us_max_.load(std::memory_order_relaxed);
  while (us > max && !fsync_us_max_.compare_exchange_weak(
                         max, us, std::memory_order_relaxed)) {
  }
  return err == 0 ? Status::Ok() : SyncError();
}

Status FileWal::SyncError() const {
  const int err = sync_errno_.load();
  if (err == 0) return Status::Ok();
  return Status::Internal(std::string("WAL fsync failed: ") +
                          std::strerror(err));
}

void FileWal::RunSyncer() {
  auto last_fsync = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(syncer_mu_);
  for (;;) {
    syncer_cv_.wait(lock, [this]() { return stop_syncer_ || dirty_.load(); });
    // At most one fsync per interval. Close fsyncs whatever is still
    // dirty once the syncer has stopped.
    if (syncer_cv_.wait_until(lock,
                              last_fsync + options_.group_commit_interval,
                              [this]() { return stop_syncer_; })) {
      return;
    }
    if (!dirty_.load()) continue;  // A SyncToDisk got there first.
    // Cleared before the fsync starts: an append that lands during it
    // may not be covered, so that append must leave the file dirty again.
    dirty_.store(false);
    last_fsync = std::chrono::steady_clock::now();
    lock.unlock();
    (void)Fsync();  // A failure is sticky: the next append returns it.
    lock.lock();
  }
}

Status FileWal::SyncToDisk() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (Status s = SyncError(); !s.ok()) return s;
  if (Status s = Flush(); !s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(syncer_mu_);
    dirty_.store(false);  // Before the fsync, as in RunSyncer.
  }
  return Fsync();
}

void FileWal::Close() {
  if (file_ == nullptr) return;
  if (syncer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(syncer_mu_);
      stop_syncer_ = true;
    }
    syncer_cv_.notify_one();
    syncer_.join();
  }
  if (dirty_.load()) (void)SyncToDisk();
  std::fclose(file_);
  file_ = nullptr;
  fd_ = -1;
}

namespace {

Status CorruptAt(size_t offset, const char* what) {
  return Status::Internal("WAL corrupt at offset " + std::to_string(offset) +
                          ": " + what);
}

}  // namespace

Result<FileWalRecovery> RecoverFileWal(const std::string& path) {
  FileWalRecovery out;
  std::vector<uint8_t> bytes;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return out;  // Fresh node: nothing to replay.
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    if (size > 0) {
      bytes.resize(static_cast<size_t>(size));
      if (std::fread(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
        std::fclose(file);
        return Status::Internal("WAL read failed: " + path);
      }
    }
    std::fclose(file);
  }

  // Walk the frame stream. A frame whose declared extent runs past EOF is
  // a torn tail (the append that died with the process); any defect inside
  // a frame that is fully present is interior corruption and fails
  // recovery outright — truncating it would silently drop acknowledged
  // history.
  size_t off = 0;
  const size_t kHeader = 4 + 1 + 4;  // magic + type + length.
  while (off < bytes.size()) {
    if (bytes.size() - off < kHeader) break;  // Torn: partial header.
    wire::Decoder head(bytes.data() + off, kHeader);
    uint32_t magic = 0;
    uint8_t type = 0;
    uint32_t len = 0;
    (void)head.GetFixed32(&magic);
    (void)head.GetU8(&type);
    (void)head.GetFixed32(&len);
    if (magic != kEntryMagic) {
      // A full header's worth of bytes with the wrong magic cannot be a
      // partial append of a valid frame: frames are written front-first,
      // so a torn frame keeps its magic prefix.
      return CorruptAt(off, "bad entry magic");
    }
    if (bytes.size() - off - kHeader < static_cast<size_t>(len) + 4) {
      break;  // Torn: payload + CRC run past EOF.
    }
    const uint8_t* payload = bytes.data() + off + kHeader;
    wire::Decoder crc_dec(payload + len, 4);
    uint32_t stored = 0;
    (void)crc_dec.GetFixed32(&stored);
    if (stored != wire::Crc32(payload, len)) {
      return CorruptAt(off, "CRC mismatch");
    }

    wire::Decoder entry(payload, len);
    if (type == static_cast<uint8_t>(EntryType::kLogRecord)) {
      rdict::LogRecord rec;
      if (!wire::DecodeLogRecord(&entry, &rec).ok()) {
        return CorruptAt(off, "undecodable log record");
      }
      out.contents.records.push_back(std::move(rec));
    } else if (type == static_cast<uint8_t>(EntryType::kTimetable)) {
      rdict::Timetable table(1);
      if (!wire::DecodeTimetable(&entry, &table).ok()) {
        return CorruptAt(off, "undecodable timetable");
      }
      out.contents.timetable = table;
      out.contents.has_timetable = true;
    } else {
      return CorruptAt(off, "unknown entry type");
    }
    ++out.contents.entries;
    off += kHeader + len + 4;
  }

  out.valid_bytes = off;
  if (off < bytes.size()) {
    // Torn tail: chop the partial frame so the next Open() appends onto a
    // clean frame boundary.
    out.contents.truncated_tail = true;
    out.truncated_bytes = bytes.size() - off;
    if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0) {
      return Status::Internal("WAL torn-tail truncate failed: " + path +
                              ": " + std::strerror(errno));
    }
  }
  return out;
}

}  // namespace helios::wal
