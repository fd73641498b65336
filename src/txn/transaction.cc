#include "txn/transaction.h"

#include <algorithm>

#include "common/check.h"

namespace helios {

bool TxnBody::ReadsKey(const Key& k) const {
  return std::any_of(read_set.begin(), read_set.end(),
                     [&](const ReadEntry& r) { return r.key == k; });
}

bool TxnBody::WritesKey(const Key& k) const {
  return std::any_of(write_set.begin(), write_set.end(),
                     [&](const WriteEntry& w) { return w.key == k; });
}

bool HasDuplicateWriteKey(const std::vector<WriteEntry>& writes) {
  for (size_t i = 0; i < writes.size(); ++i) {
    for (size_t j = i + 1; j < writes.size(); ++j) {
      if (writes[i].key == writes[j].key) return true;
    }
  }
  return false;
}

TxnBodyPtr MakeTxnBody(TxnId id, std::vector<ReadEntry> reads,
                       std::vector<WriteEntry> writes) {
  HELIOS_CHECK(!HasDuplicateWriteKey(writes),
               "duplicate key in the write set of " + id.ToString());
  auto body = std::make_shared<TxnBody>();
  body->id = id;
  body->read_set = std::move(reads);
  body->write_set = std::move(writes);
  return body;
}

bool ConflictsWithWritesOf(const TxnBody& t, const TxnBody& other) {
  for (const WriteEntry& w : other.write_set) {
    if (t.ReadsKey(w.key) || t.WritesKey(w.key)) return true;
  }
  return false;
}

bool WriteSetsIntersect(const TxnBody& a, const TxnBody& b) {
  for (const WriteEntry& w : a.write_set) {
    if (b.WritesKey(w.key)) return true;
  }
  return false;
}

}  // namespace helios
