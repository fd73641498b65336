#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "core/envelope.h"
#include "rdict/replicated_log.h"
#include "txn/pool.h"
#include "wal/file_wal.h"
#include "wire/serialization.h"

namespace helios::perfbench {
namespace {

bool IsCommittedFinished(const rdict::LogRecord& r) {
  return r.type == rdict::RecordType::kFinished && r.committed &&
         r.body != nullptr;
}

/// Node GC keeps ten seconds of versions (HeliosNode::RunGc).
constexpr Duration kVersionRetention = Seconds(10);

struct StoreReplay {
  CallTimer apply, truncate, read, read_at;
  uint64_t dropped = 0;
};

Status ReplayStore(const ReplayInput& in, StoreReplay* out) {
  const size_t n = in.stores.size();
  for (size_t dc = 0; dc < n; ++dc) {
    MvStore store;
    // Initial loads bypass the log; seed the ones still current.
    for (const auto& [key, vv] : in.stores[dc]) {
      if (vv.writer.origin < 0) {
        store.ApplyWrite(key, vv.value, vv.ts, vv.writer);
      }
    }
    uint64_t fed = 0;
    uint64_t journaled = 0;
    for (const auto& plane : in.planes) {
      const wal::WalContents* journal = plane[dc];
      if (journal == nullptr) continue;
      journaled += journal->records.size();
      Timestamp now = kMinTimestamp;
      Timestamp last_gc = kMinTimestamp;
      for (const rdict::LogRecord& rec : journal->records) {
        ++fed;
        if (IsCommittedFinished(rec)) {
          const TxnBody& body = *rec.body;
          for (const ReadEntry& r : body.read_set) {
            out->read.Time([&] { return store.Read(r.key); });
          }
          out->apply.Time([&] { store.ApplyTxn(body, rec.version_ts); });
          for (const ReadEntry& r : body.read_set) {
            out->read_at.Time(
                [&] { return store.ReadAt(r.key, rec.version_ts - 1); });
          }
        }
        now = std::max(now, rec.ts);
        if (last_gc == kMinTimestamp) last_gc = now;
        if (now - last_gc >= in.gc_interval) {
          out->dropped += out->truncate.Time([&] {
            return store.TruncateVersionsBefore(now - kVersionRetention);
          });
          last_gc = now;
        }
      }
    }
    if (fed != journaled) {
      return Status::FailedPrecondition("store replay fed " +
                                        std::to_string(fed) + " of " +
                                        std::to_string(journaled) +
                                        " journal records");
    }
    std::map<Key, VersionedValue> replayed;
    store.ForEachLatest([&](const Key& key, const VersionedValue& vv) {
      replayed[key] = vv;
    });
    const auto& live = in.stores[dc];
    if (replayed.size() != live.size()) {
      return Status::FailedPrecondition(
          "store replay at datacenter " + std::to_string(dc) + " holds " +
          std::to_string(replayed.size()) + " keys, the run's store " +
          std::to_string(live.size()));
    }
    for (const auto& [key, want] : live) {
      const auto it = replayed.find(key);
      if (it == replayed.end() || it->second.ts != want.ts ||
          it->second.writer != want.writer || it->second.value != want.value) {
        return Status::FailedPrecondition("store replay at datacenter " +
                                          std::to_string(dc) +
                                          " diverges at key '" + key + "'");
      }
    }
  }
  return Status::Ok();
}

struct TxnReplay {
  CallTimer add, remove, check;
  uint64_t hits = 0;
};

void ReplayTxnPools(const ReplayInput& in, TxnReplay* out) {
  for (const auto& plane : in.planes) {
    for (const wal::WalContents* journal : plane) {
      if (journal == nullptr) continue;
      TxnPool pool;
      for (const rdict::LogRecord& rec : journal->records) {
        if (rec.body == nullptr) continue;
        if (rec.type == rdict::RecordType::kPreparing) {
          const bool hit = out->check.Time([&] {
            return !pool.ConflictingWriters(*rec.body).empty() ||
                   !pool.Victims(*rec.body).empty();
          });
          if (hit) ++out->hits;
          out->add.Time([&] { pool.Add(rec.body); });
        } else {
          out->remove.Time([&] { return pool.Remove(rec.body->id); });
        }
      }
    }
  }
}

/// The wire round trip costs more than the rest of the gossip replay
/// together; pricing one message in eight keeps the replay short.
constexpr uint64_t kWireSampleEvery = 8;

struct GossipReplay {
  CallTimer build, ingest, gc, frame, unframe;
  uint64_t messages = 0;
  uint64_t records_sent = 0;
  uint64_t bytes = 0;
};

/// Frames `msg` as an envelope and decodes it again.
Status RoundTrip(const rdict::LogMessage& msg, int n, wire::Framer* framer,
                 GossipReplay* out) {
  core::Envelope env(n);
  env.log = msg;
  const wire::Buffer* frame = nullptr;
  out->frame.Time([&] { frame = &framer->Frame(env); });
  out->bytes += frame->size();
  auto decoded =
      out->unframe.Time([&] { return wire::UnframeEnvelope(*frame); });
  if (!decoded.ok() ||
      decoded.value().log.records.size() != msg.records.size()) {
    return Status::FailedPrecondition(
        "wire replay: envelope did not round-trip");
  }
  return Status::Ok();
}

Status ReplayGossip(const ReplayInput& in, GossipReplay* out) {
  const int n = static_cast<int>(in.stores.size());
  const Duration tick = in.log_interval;
  const int64_t gc_every = std::max<int64_t>(1, in.gc_interval / tick);
  std::vector<std::vector<int64_t>> lag(
      static_cast<size_t>(n), std::vector<int64_t>(static_cast<size_t>(n), 1));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const double one_way_us = in.rtt.Get(a, b) * 1000.0 / 2.0;
      lag[a][b] = std::max<int64_t>(
          1, std::llround(one_way_us / static_cast<double>(tick)));
    }
  }
  wire::Framer framer;
  for (const auto& plane : in.planes) {
    // Each origin's own records, in its append (= timestamp) order.
    std::vector<std::vector<const rdict::LogRecord*>> local(
        static_cast<size_t>(n));
    Timestamp first = 0;
    bool any = false;
    for (int dc = 0; dc < n; ++dc) {
      const wal::WalContents* journal = plane[static_cast<size_t>(dc)];
      if (journal == nullptr) continue;
      for (const rdict::LogRecord& rec : journal->records) {
        if (rec.origin != dc) continue;
        local[static_cast<size_t>(dc)].push_back(&rec);
        first = any ? std::min(first, rec.ts) : rec.ts;
        any = true;
      }
    }
    if (!any) continue;
    std::vector<rdict::ReplicatedLog> logs;
    logs.reserve(static_cast<size_t>(n));
    for (int dc = 0; dc < n; ++dc) logs.emplace_back(dc, n);
    std::vector<size_t> next(static_cast<size_t>(n), 0);
    struct InFlight {
      int64_t due;
      int to;
      rdict::LogMessage msg;
    };
    std::deque<InFlight> flight;
    Timestamp last = first;
    for (const auto& mine : local) {
      if (!mine.empty()) last = std::max(last, mine.back()->ts);
    }
    // Every message lands within the largest lag; far past it the logs
    // must have converged.
    const int64_t give_up = last / tick + 1000;
    for (int64_t k = first / tick + 1;; ++k) {
      if (k > give_up) {
        return Status::FailedPrecondition("rdict replay did not converge");
      }
      const Timestamp now = k * tick;
      bool appended_all = true;
      for (int dc = 0; dc < n; ++dc) {
        auto& mine = local[static_cast<size_t>(dc)];
        size_t& i = next[static_cast<size_t>(dc)];
        for (; i < mine.size() && mine[i]->ts <= now; ++i) {
          const Status st = logs[static_cast<size_t>(dc)].AppendLocal(*mine[i]);
          if (!st.ok()) return st;
        }
        appended_all = appended_all && i == mine.size();
      }
      for (int a = 0; a < n; ++a) {
        rdict::ReplicatedLog& log = logs[static_cast<size_t>(a)];
        log.AdvanceOwnClock(now);
        for (int b = 0; b < n; ++b) {
          if (a == b) continue;
          rdict::LogMessage msg =
              out->build.Time([&] { return log.BuildMessageFor(b); });
          ++out->messages;
          out->records_sent += msg.records.size();
          if (out->messages % kWireSampleEvery == 0) {
            const Status st = RoundTrip(msg, n, &framer, out);
            if (!st.ok()) return st;
          }
          flight.push_back({k + lag[a][b], b, std::move(msg)});
        }
      }
      for (auto it = flight.begin(); it != flight.end();) {
        if (it->due > k) {
          ++it;
          continue;
        }
        out->ingest.Time(
            [&] { return logs[static_cast<size_t>(it->to)].Ingest(it->msg); });
        it = flight.erase(it);
      }
      if (k % gc_every == 0) {
        for (auto& log : logs) {
          out->gc.Time([&] { return log.GarbageCollect(); });
        }
      }
      if (appended_all) {
        bool settled = true;
        for (int dc = 0; dc < n; ++dc) {
          for (int o = 0; o < n; ++o) {
            const auto& mine = local[static_cast<size_t>(o)];
            if (!mine.empty() &&
                logs[static_cast<size_t>(dc)].KnownUpTo(o) < mine.back()->ts) {
              settled = false;
            }
          }
        }
        if (settled) break;
      }
    }
  }
  return Status::Ok();
}

struct WalReplay {
  CallTimer append, sync;
  uint64_t bytes = 0;
  uint64_t commits = 0;
};

Status ReplayWal(const ReplayInput& in, WalReplay* out) {
  int file = 0;
  wal::FileWalOptions options;
  options.policy = wal::SyncPolicy::kGroupCommit;
  for (const auto& plane : in.planes) {
    for (const wal::WalContents* journal : plane) {
      if (journal == nullptr) continue;
      const std::string path =
          in.tmp_dir + "/replay-" + std::to_string(file++) + ".wal";
      std::remove(path.c_str());
      wal::FileWal fw;
      Status st = fw.Open(path, options);
      if (!st.ok()) return st;
      Timestamp now = kMinTimestamp;
      Timestamp last_sync = kMinTimestamp;
      for (const rdict::LogRecord& rec : journal->records) {
        st = out->append.Time([&] { return fw.AppendRecord(rec); });
        if (!st.ok()) return st;
        if (IsCommittedFinished(rec)) ++out->commits;
        now = std::max(now, rec.ts);
        if (last_sync == kMinTimestamp) last_sync = now;
        if (now - last_sync >= in.gc_interval) {
          st = out->sync.Time([&] { return fw.SyncToDisk(); });
          if (!st.ok()) return st;
          last_sync = now;
        }
      }
      st = out->sync.Time([&] { return fw.SyncToDisk(); });
      if (!st.ok()) return st;
      out->bytes += fw.bytes_written();
      fw.Close();
      auto recovered = wal::RecoverFileWal(path);
      std::remove(path.c_str());
      if (!recovered.ok()) return recovered.status();
      const size_t got = recovered.value().contents.records.size();
      if (got != journal->records.size()) {
        return Status::FailedPrecondition(
            "wal replay: recovered " + std::to_string(got) + " of " +
            std::to_string(journal->records.size()) + " records");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status RunReplays(const ReplayInput& in, Report* report) {
  StoreReplay store;
  Status st = ReplayStore(in, &store);
  if (!st.ok()) return st;
  TxnReplay txn;
  ReplayTxnPools(in, &txn);
  GossipReplay gossip;
  st = ReplayGossip(in, &gossip);
  if (!st.ok()) return st;
  WalReplay wal;
  st = ReplayWal(in, &wal);
  if (!st.ok()) return st;

  const double base = in.run_wall_s;
  report->Set("store.apply_txn_ns", "ns", store.apply.mean_ns());
  report->Set("store.truncate_ns", "ns", store.truncate.mean_ns());
  report->Set("store.truncate_dropped_per_call", "versions",
              Ratio(static_cast<double>(store.dropped),
                    static_cast<double>(store.truncate.calls)));
  report->Set("store.read_ns", "ns", store.read.mean_ns());
  report->Set("store.read_at_ns", "ns", store.read_at.mean_ns());
  report->Set("store.replay_share", "ratio",
              Ratio(store.apply.total_s() + store.truncate.total_s() +
                        store.read.total_s() + store.read_at.total_s(),
                    base));
  report->Set("txn.pool_add_ns", "ns", txn.add.mean_ns());
  report->Set("txn.pool_remove_ns", "ns", txn.remove.mean_ns());
  report->Set("txn.conflict_check_ns", "ns", txn.check.mean_ns());
  report->Set("txn.conflict_hit_ratio", "ratio",
              Ratio(static_cast<double>(txn.hits),
                    static_cast<double>(txn.check.calls)));
  report->Set("txn.replay_share", "ratio",
              Ratio(txn.add.total_s() + txn.remove.total_s() +
                        txn.check.total_s(),
                    base));
  report->Set("rdict.build_message_ns", "ns", gossip.build.mean_ns());
  report->Set("rdict.ingest_ns", "ns", gossip.ingest.mean_ns());
  report->Set("rdict.records_per_message", "records",
              Ratio(static_cast<double>(gossip.records_sent),
                    static_cast<double>(gossip.messages)));
  report->Set("rdict.gc_ns", "ns", gossip.gc.mean_ns());
  report->Set("rdict.replay_share", "ratio",
              Ratio(gossip.build.total_s() + gossip.ingest.total_s() +
                        gossip.gc.total_s(),
                    base));
  report->Set("wire.frame_ns", "ns", gossip.frame.mean_ns());
  report->Set("wire.unframe_ns", "ns", gossip.unframe.mean_ns());
  report->Set("wire.bytes_per_message", "bytes",
              Ratio(static_cast<double>(gossip.bytes),
                    static_cast<double>(gossip.frame.calls)));
  report->Set("wal.append_ns", "ns", wal.append.mean_ns());
  report->Set("wal.sync_ns", "ns", wal.sync.mean_ns());
  report->Set("wal.bytes_per_commit", "bytes",
              Ratio(static_cast<double>(wal.bytes),
                    static_cast<double>(wal.commits)));

  std::vector<double> solve_ms;
  const double lp_start = WallSeconds();
  while (solve_ms.size() < 200 && WallSeconds() - lp_start < 0.5) {
    const double t0 = WallSeconds();
    auto mao = lp::SolveMao(in.rtt);
    solve_ms.push_back((WallSeconds() - t0) * 1e3);
    if (!mao.ok()) return mao.status();
  }
  report->Set("lp.solve_mao_ms", "ms", Median(solve_ms));
  return Status::Ok();
}

}  // namespace helios::perfbench
