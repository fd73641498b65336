#include "rdict/replicated_log.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace helios::rdict {

namespace {

bool TsBefore(const LogRecord& rec, Timestamp ts) { return rec.ts < ts; }
bool TsAfter(Timestamp ts, const LogRecord& rec) { return ts < rec.ts; }

}  // namespace

std::string LogRecord::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s(txn=%s ts=%lld origin=%d%s)",
                type == RecordType::kPreparing ? "prep" : "fin",
                body ? body->id.ToString().c_str() : "?",
                static_cast<long long>(ts), origin,
                type == RecordType::kFinished
                    ? (committed ? " committed" : " aborted")
                    : "");
  return buf;
}

ReplicatedLog::ReplicatedLog(DcId self, int n)
    : self_(self), n_(n), table_(n), by_origin_(static_cast<size_t>(n)) {
  assert(self >= 0 && self < n);
}

bool ReplicatedLog::InsertRecord(const LogRecord& rec) {
  OriginLog& log = by_origin_[static_cast<size_t>(rec.origin)];
  if (log.empty() || log.back().ts < rec.ts) {
    log.push_back(rec);
  } else {
    const auto it = std::lower_bound(log.begin(), log.end(), rec.ts, TsBefore);
    if (it != log.end() && it->ts == rec.ts) return false;
    log.insert(it, rec);
  }
  ++live_count_;
  return true;
}

Status ReplicatedLog::AppendLocal(const LogRecord& rec) {
  if (rec.origin != self_) {
    return Status::InvalidArgument("AppendLocal with foreign origin");
  }
  if (rec.ts <= table_.Get(self_, self_)) {
    return Status::InvalidArgument(
        "record timestamps must be strictly increasing per origin");
  }
  InsertRecord(rec);
  table_.Set(self_, self_, rec.ts);
  ++total_appended_;
  return Status::Ok();
}

void ReplicatedLog::MergeSuffixes(
    const std::vector<OriginLog::const_iterator>& from,
    std::vector<LogRecord>* out) const {
  // K-way merge by (ts, origin) — k = cluster size, so linear selection
  // per emitted record beats a heap for realistic n. Origin index order
  // breaks timestamp ties, matching RecordOrder.
  std::vector<OriginLog::const_iterator> cursor;
  std::vector<OriginLog::const_iterator> end;
  size_t total = 0;
  for (DcId o = 0; o < n_; ++o) {
    const OriginLog& log = by_origin_[static_cast<size_t>(o)];
    if (from[o] == log.end()) continue;
    cursor.push_back(from[o]);
    end.push_back(log.end());
    total += static_cast<size_t>(log.end() - from[o]);
  }
  out->reserve(out->size() + total);
  while (cursor.size() > 1) {
    size_t best = 0;
    for (size_t c = 1; c < cursor.size(); ++c) {
      if (cursor[c]->ts < cursor[best]->ts) best = c;
    }
    out->push_back(*cursor[best]);
    if (++cursor[best] == end[best]) {
      cursor.erase(cursor.begin() + static_cast<std::ptrdiff_t>(best));
      end.erase(end.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
  if (!cursor.empty()) out->insert(out->end(), cursor[0], end[0]);
}

void ReplicatedLog::BuildMessageInto(DcId peer, LogMessage* out) const {
  out->from = self_;
  out->table = table_;
  out->records.clear();
  // Per origin, the timetable proves `peer` has everything with
  // ts <= T[peer][origin]; only the suffix above that bound is sent.
  std::vector<OriginLog::const_iterator> from(static_cast<size_t>(n_));
  for (DcId origin = 0; origin < n_; ++origin) {
    const OriginLog& log = by_origin_[static_cast<size_t>(origin)];
    from[origin] = std::upper_bound(log.begin(), log.end(),
                                    table_.Get(peer, origin), TsAfter);
  }
  MergeSuffixes(from, &out->records);
}

LogMessage ReplicatedLog::BuildMessageFor(DcId peer) const {
  LogMessage msg(n_);
  BuildMessageInto(peer, &msg);
  return msg;
}

std::vector<LogRecord> ReplicatedLog::Ingest(const LogMessage& msg) {
  std::vector<LogRecord> fresh;
  for (const LogRecord& rec : msg.records) {
    if (table_.HasRecord(self_, rec.origin, rec.ts)) continue;  // Duplicate.
    InsertRecord(rec);
    fresh.push_back(rec);
  }
  // Note: the timetable merge below absorbs the sender's row, which covers
  // all records in the message; per-record Advance is not needed.
  table_.MergeFrom(msg.table, self_, msg.from);
  return fresh;
}

void ReplicatedLog::RestoreRecord(const LogRecord& rec) {
  if (table_.HasRecord(self_, rec.origin, rec.ts)) {
    // Knowledge already covers it; keep the record itself if missing (it
    // may still need retransmission to peers).
    InsertRecord(rec);
    return;
  }
  InsertRecord(rec);
  table_.Advance(self_, rec.origin, rec.ts);
  if (rec.origin == self_) ++total_appended_;
}

void ReplicatedLog::RestoreTimetable(const Timetable& table) {
  for (DcId i = 0; i < n_; ++i) {
    for (DcId j = 0; j < n_; ++j) {
      table_.Advance(i, j, table.Get(i, j));
    }
  }
}

size_t ReplicatedLog::GarbageCollect() {
  size_t dropped = 0;
  // Everything at or below MinColumn(origin) is known everywhere: erase
  // the per-origin prefix.
  for (DcId origin = 0; origin < n_; ++origin) {
    OriginLog& log = by_origin_[static_cast<size_t>(origin)];
    const Timestamp known = table_.MinColumn(origin);
    while (!log.empty() && log.front().ts <= known) {
      log.pop_front();
      ++dropped;
    }
  }
  live_count_ -= dropped;
  return dropped;
}

std::vector<LogRecord> ReplicatedLog::Snapshot() const {
  std::vector<LogRecord> out;
  out.reserve(live_count_);
  std::vector<OriginLog::const_iterator> from(static_cast<size_t>(n_));
  for (DcId origin = 0; origin < n_; ++origin) {
    from[origin] = by_origin_[static_cast<size_t>(origin)].begin();
  }
  MergeSuffixes(from, &out);
  return out;
}

}  // namespace helios::rdict
