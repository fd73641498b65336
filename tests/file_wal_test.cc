// Tests for the file-backed production WAL (wal::FileWal): fsync-policy
// behavior (including the group-commit syncer thread and its sticky
// errors), torn-tail repair on a real file, crisp interior-corruption
// errors, recovery equivalence across durability policies, and a random
// bit-flip/truncation sweep against RecoverFileWal on disk.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "txn/transaction.h"
#include "wal/file_wal.h"

namespace helios::wal {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/helios_file_wal_" + tag + "_" +
         std::to_string(::getpid()) + ".wal";
}

rdict::LogRecord MakeRecord(DcId origin, uint64_t seq, Timestamp ts) {
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kFinished;
  rec.committed = true;
  rec.ts = ts;
  rec.version_ts = ts + 1;
  rec.origin = origin;
  rec.body = MakeTxnBody(TxnId{origin, seq}, {},
                         {{"k" + std::to_string(seq), "v"}});
  return rec;
}

size_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<size_t>(size);
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes(FileSize(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (!bytes.empty()) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Appends `records` frames (and one timetable) under `policy` and returns
/// what RecoverFileWal read back.
FileWalRecovery WriteAndRecover(const std::string& path, SyncPolicy policy,
                                uint64_t records) {
  std::remove(path.c_str());
  FileWalOptions options;
  options.policy = policy;
  {
    FileWal wal;
    EXPECT_TRUE(wal.Open(path, options).ok());
    for (uint64_t i = 1; i <= records; ++i) {
      EXPECT_TRUE(wal.AppendRecord(MakeRecord(i % 3, i, 10 * i)).ok());
    }
    rdict::Timetable table(3);
    table.Set(1, 2, 99);
    EXPECT_TRUE(wal.AppendTimetable(table).ok());
    wal.Close();
  }
  auto recovered = RecoverFileWal(path);
  EXPECT_TRUE(recovered.ok());
  return recovered.value();
}

TEST(FileWalTest, ParseSyncPolicySpellings) {
  EXPECT_EQ(ParseSyncPolicy("os").value(), SyncPolicy::kOsBuffered);
  EXPECT_EQ(ParseSyncPolicy("every").value(), SyncPolicy::kEveryRecord);
  EXPECT_EQ(ParseSyncPolicy("group").value(), SyncPolicy::kGroupCommit);
  EXPECT_FALSE(ParseSyncPolicy("always").ok());
  for (SyncPolicy p : {SyncPolicy::kOsBuffered, SyncPolicy::kEveryRecord,
                       SyncPolicy::kGroupCommit}) {
    EXPECT_EQ(ParseSyncPolicy(SyncPolicyName(p)).value(), p);
  }
}

TEST(FileWalTest, RecoveryIsEquivalentAcrossSyncPolicies) {
  // The durability policy decides when bytes reach the platter, never what
  // a clean-shutdown file replays to: all three policies must recover the
  // identical contents (fsync-every vs group-commit equivalence).
  constexpr uint64_t kRecords = 25;
  const FileWalRecovery every =
      WriteAndRecover(TempPath("eq_every"), SyncPolicy::kEveryRecord,
                      kRecords);
  const FileWalRecovery group =
      WriteAndRecover(TempPath("eq_group"), SyncPolicy::kGroupCommit,
                      kRecords);
  const FileWalRecovery os =
      WriteAndRecover(TempPath("eq_os"), SyncPolicy::kOsBuffered, kRecords);

  for (const FileWalRecovery* r : {&every, &group, &os}) {
    ASSERT_EQ(r->contents.records.size(), kRecords);
    EXPECT_TRUE(r->contents.has_timetable);
    EXPECT_FALSE(r->contents.truncated_tail);
    EXPECT_EQ(r->truncated_bytes, 0u);
    for (uint64_t i = 0; i < kRecords; ++i) {
      EXPECT_EQ(r->contents.records[i].ts,
                static_cast<Timestamp>(10 * (i + 1)));
      EXPECT_EQ(r->contents.records[i].body->id.seq, i + 1);
    }
  }
  EXPECT_EQ(every.valid_bytes, group.valid_bytes);
  EXPECT_EQ(every.valid_bytes, os.valid_bytes);
}

TEST(FileWalTest, EveryRecordPolicyFsyncsPerAppend) {
  const std::string path = TempPath("fsync_every");
  std::remove(path.c_str());
  FileWalOptions options;
  options.policy = SyncPolicy::kEveryRecord;
  FileWal wal;
  ASSERT_TRUE(wal.Open(path, options).ok());
  for (uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, i, i)).ok());
  }
  EXPECT_EQ(wal.fsyncs(), 8u);
  wal.Close();
}

TEST(FileWalTest, GroupCommitBatchesFsyncs) {
  const std::string path = TempPath("fsync_group");
  std::remove(path.c_str());
  FileWalOptions options;
  options.policy = SyncPolicy::kGroupCommit;
  options.group_commit_interval = std::chrono::seconds(3600);  // Never due.
  FileWal wal;
  ASSERT_TRUE(wal.Open(path, options).ok());
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, i, i)).ok());
  }
  EXPECT_EQ(wal.fsyncs(), 0u) << "interval never elapsed";
  ASSERT_TRUE(wal.SyncToDisk().ok());
  EXPECT_EQ(wal.fsyncs(), 1u);
  wal.Close();
  EXPECT_EQ(wal.fsyncs(), 1u) << "Close() after SyncToDisk has no dirt";
}

/// Polls `wal.fsyncs()` until it reaches `want` or `deadline` passes.
bool AwaitFsyncs(const FileWal& wal, uint64_t want,
                 std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (wal.fsyncs() < want) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(FileWalTest, GroupCommitFsyncsWithinAnIntervalWithoutAnotherAppend) {
  // One append and then silence: the syncer alone must make it durable.
  const std::string path = TempPath("fsync_timer");
  std::remove(path.c_str());
  FileWalOptions options;
  options.policy = SyncPolicy::kGroupCommit;
  options.group_commit_interval = std::chrono::milliseconds(50);
  FileWal wal;
  ASSERT_TRUE(wal.Open(path, options).ok());
  ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, 1, 1)).ok());
  EXPECT_TRUE(AwaitFsyncs(wal, 1, std::chrono::seconds(5)))
      << "no fsync without a further append";
  wal.Close();
  std::remove(path.c_str());
}

TEST(FileWalTest, CloseJoinsTheSyncerAndFsyncsOutstandingDirt) {
  const std::string path = TempPath("fsync_close");
  std::remove(path.c_str());
  FileWalOptions options;
  options.policy = SyncPolicy::kGroupCommit;
  options.group_commit_interval = std::chrono::seconds(3600);  // Never due.
  FileWal wal;
  ASSERT_TRUE(wal.Open(path, options).ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, i, i)).ok());
  }
  EXPECT_EQ(wal.fsyncs(), 0u);
  // Returns at once although the syncer is parked in an hour-long wait.
  const auto start = std::chrono::steady_clock::now();
  wal.Close();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(wal.fsyncs(), 1u) << "Close() fsyncs what the syncer had not";
  EXPECT_FALSE(wal.is_open());
  auto recovered = RecoverFileWal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().contents.records.size(), 5u);
  std::remove(path.c_str());
}

TEST(FileWalTest, AppendToAFullDiskFails) {
  // /dev/full accepts the open and fails every write with ENOSPC; the
  // append flushes to the OS before returning, so it reports the failure.
  for (SyncPolicy policy : {SyncPolicy::kOsBuffered, SyncPolicy::kEveryRecord,
                            SyncPolicy::kGroupCommit}) {
    FileWalOptions options;
    options.policy = policy;
    FileWal wal;
    ASSERT_TRUE(wal.Open("/dev/full", options).ok());
    const Status s = wal.AppendRecord(MakeRecord(0, 1, 1));
    EXPECT_FALSE(s.ok()) << SyncPolicyName(policy);
    EXPECT_NE(s.message().find("WAL flush failed"), std::string::npos)
        << s.ToString();
    wal.Close();
  }
}

TEST(FileWalTest, FailedSyncerFsyncIsStickyOnTheNextAppend) {
  // fsync(2) on /dev/null fails (EINVAL) while writes succeed, so the
  // syncer's failure is the only one: it must surface on the loop side.
  FileWalOptions options;
  options.policy = SyncPolicy::kGroupCommit;
  options.group_commit_interval = std::chrono::milliseconds(1);
  FileWal wal;
  ASSERT_TRUE(wal.Open("/dev/null", options).ok());
  ASSERT_TRUE(wal.AppendRecord(MakeRecord(0, 1, 1)).ok());
  ASSERT_TRUE(AwaitFsyncs(wal, 1, std::chrono::seconds(5)));
  for (int i = 0; i < 2; ++i) {
    const Status s = wal.AppendRecord(MakeRecord(0, 2, 2));
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("WAL fsync failed"), std::string::npos)
        << s.ToString();
  }
  EXPECT_FALSE(wal.SyncToDisk().ok());
  EXPECT_EQ(wal.entries_appended(), 1u);
  wal.Close();
}

TEST(FileWalTest, TornTailIsPhysicallyTruncatedAndAppendable) {
  const std::string path = TempPath("torn");
  constexpr uint64_t kRecords = 10;
  (void)WriteAndRecover(path, SyncPolicy::kOsBuffered, kRecords);
  const size_t clean_size = FileSize(path);

  // Simulate a crash mid-append: a full header promising more payload
  // than the file holds.
  std::vector<uint8_t> bytes = ReadAll(path);
  const std::vector<uint8_t> torn = {0x31, 0x4C, 0x41, 0x57,  // kEntryMagic.
                                     0x01, 0xFF, 0x00, 0x00, 0x00,
                                     0xAA, 0xBB};
  bytes.insert(bytes.end(), torn.begin(), torn.end());
  WriteAll(path, bytes);

  auto recovered = RecoverFileWal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().contents.truncated_tail);
  EXPECT_EQ(recovered.value().contents.records.size(), kRecords);
  EXPECT_EQ(recovered.value().truncated_bytes, torn.size());
  EXPECT_EQ(recovered.value().valid_bytes, clean_size);
  // The repair is physical: the partial frame is gone from disk.
  EXPECT_EQ(FileSize(path), clean_size);

  // And the repaired file accepts appends on a clean frame boundary.
  {
    FileWal wal;
    ASSERT_TRUE(wal.Open(path, FileWalOptions{}).ok());
    ASSERT_TRUE(wal.AppendRecord(MakeRecord(1, 777, 12345)).ok());
    wal.Close();
  }
  auto again = RecoverFileWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().contents.truncated_tail);
  ASSERT_EQ(again.value().contents.records.size(), kRecords + 1);
  EXPECT_EQ(again.value().contents.records.back().body->id.seq, 777u);
}

TEST(FileWalTest, InteriorCorruptionIsACrispErrorNamingTheOffset) {
  const std::string path = TempPath("interior");
  (void)WriteAndRecover(path, SyncPolicy::kOsBuffered, 10);
  std::vector<uint8_t> bytes = ReadAll(path);
  // Flip one payload byte in the middle of the file: a fully present
  // frame whose CRC no longer matches.
  bytes[bytes.size() / 2] ^= 0x40;
  WriteAll(path, bytes);

  auto recovered = RecoverFileWal(path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("WAL corrupt at offset"),
            std::string::npos)
      << recovered.status().ToString();
  // Forensics: the file must not be silently repaired.
  EXPECT_EQ(FileSize(path), bytes.size());
}

TEST(FileWalTest, MissingFileRecoversEmpty) {
  const std::string path = TempPath("missing");
  std::remove(path.c_str());
  auto recovered = RecoverFileWal(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().contents.records.size(), 0u);
  EXPECT_FALSE(recovered.value().contents.truncated_tail);
}

TEST(FileWalTest, RandomCorruptionSweepOnDisk) {
  const std::string ref_path = TempPath("sweep_ref");
  constexpr uint64_t kRecords = 20;
  (void)WriteAndRecover(ref_path, SyncPolicy::kOsBuffered, kRecords);
  const std::vector<uint8_t> pristine = ReadAll(ref_path);
  std::remove(ref_path.c_str());

  const std::string path = TempPath("sweep");
  uint64_t rng = 0x5EEDull;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const bool truncated_trial = trial % 2 == 1;
    if (truncated_trial) {
      bytes.resize(next() % (bytes.size() + 1));
    } else {
      const uint64_t flips = 1 + next() % 4;
      for (uint64_t i = 0; i < flips; ++i) {
        bytes[next() % bytes.size()] ^=
            static_cast<uint8_t>(1u << (next() % 8));
      }
    }
    WriteAll(path, bytes);

    auto recovered = RecoverFileWal(path);
    if (!recovered.ok()) {
      // Only interior corruption may fail, and only crisply.
      EXPECT_FALSE(truncated_trial) << "trial " << trial;
      EXPECT_NE(
          recovered.status().message().find("WAL corrupt at offset"),
          std::string::npos)
          << "trial " << trial << ": " << recovered.status().ToString();
      continue;
    }
    const WalContents& c = recovered.value().contents;
    ASSERT_LE(c.records.size(), kRecords) << "trial " << trial;
    // Whatever survived must be an intact prefix-by-content: CRC-valid
    // frames decode to exactly what was written.
    for (size_t i = 0; i < c.records.size(); ++i) {
      if (truncated_trial) {
        EXPECT_EQ(c.records[i].ts, static_cast<Timestamp>(10 * (i + 1)))
            << "trial " << trial;
      }
    }
    if (truncated_trial) {
      // A truncation-only defect is always a torn tail; after the repair
      // a second recovery must be clean and identical.
      auto again = RecoverFileWal(path);
      ASSERT_TRUE(again.ok()) << "trial " << trial;
      EXPECT_FALSE(again.value().contents.truncated_tail)
          << "trial " << trial;
      EXPECT_EQ(again.value().contents.records.size(), c.records.size())
          << "trial " << trial;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace helios::wal
