#include "store/lock_table.h"

#include <algorithm>
#include <cassert>

namespace helios {

namespace {

// Wound-wait priority: (start timestamp, id) — lexicographically smaller is
// older and wins. The id tie-break makes the order total so two requests can
// never each consider the other older.
bool Older(Timestamp a_ts, TxnId a, Timestamp b_ts, TxnId b) {
  if (a_ts != b_ts) return a_ts < b_ts;
  return a < b;
}

}  // namespace

bool LockTable::Compatible(const LockState& state, TxnId txn, LockMode mode) {
  for (const Holder& h : state.holders) {
    if (h.txn == txn) continue;  // Own hold never conflicts (upgrade case).
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockTable::Grant(LockState& state, TxnId txn, LockMode mode,
                      Timestamp start_ts) {
  for (Holder& h : state.holders) {
    if (h.txn == txn) {
      if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
      return;
    }
  }
  state.holders.push_back(Holder{txn, mode, start_ts});
}

bool LockTable::TryAcquire(const Key& key, LockMode mode, TxnId txn,
                           Timestamp start_ts) {
  if (Holds(key, txn, mode)) return true;
  LockState& state = locks_[key];
  if (!Compatible(state, txn, mode)) {
    if (state.holders.empty() && state.waiters.empty()) locks_.erase(key);
    return false;
  }
  Grant(state, txn, mode, start_ts);
  held_by_txn_[txn].insert(key);
  return true;
}

bool LockTable::Holds(const Key& key, TxnId txn, LockMode mode) const {
  auto it = locks_.find(key);
  if (it == locks_.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn == txn) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

void LockTable::Acquire(const Key& key, LockMode mode, TxnId txn,
                        Timestamp start_ts, GrantCallback grant) {
  if (Holds(key, txn, mode)) {
    grant(Status::Ok());
    return;
  }
  LockState& state = locks_[key];
  if (Compatible(state, txn, mode)) {
    Grant(state, txn, mode, start_ts);
    held_by_txn_[txn].insert(key);
    grant(Status::Ok());
    return;
  }

  if (policy_ == LockPolicy::kNoWait) {
    ++immediate_refusals_;
    if (state.holders.empty() && state.waiters.empty()) locks_.erase(key);
    grant(Status::Aborted("lock conflict (no-wait) on " + key));
    return;
  }

  // Wound-wait: if the requester is older than every conflicting holder,
  // wound them all and take the lock; otherwise wait.
  bool older_than_all = true;
  for (const Holder& h : state.holders) {
    if (h.txn == txn) continue;
    const bool conflicts =
        mode == LockMode::kExclusive || h.mode == LockMode::kExclusive;
    if (conflicts && !Older(start_ts, txn, h.start_ts, h.txn)) {
      older_than_all = false;
      break;
    }
  }
  if (older_than_all) {
    WoundHolders(key, txn, mode, start_ts);
    // Wounding releases locks, which pumps waiter queues — a queued waiter
    // may have been granted this very key in the meantime. Re-run the full
    // decision; this terminates because every wound permanently removes a
    // transaction.
    Acquire(key, mode, txn, start_ts, std::move(grant));
    return;
  }
  state.waiters.push_back(Waiter{txn, mode, start_ts, std::move(grant)});
}

void LockTable::WoundHolders(const Key& key, TxnId requester, LockMode mode,
                             Timestamp start_ts) {
  (void)start_ts;  // Used by the assertion below in debug builds.
  std::vector<TxnId> victims;
  {
    auto it = locks_.find(key);
    if (it == locks_.end()) return;
    for (const Holder& h : it->second.holders) {
      if (h.txn == requester) continue;
      const bool conflicts =
          mode == LockMode::kExclusive || h.mode == LockMode::kExclusive;
      if (conflicts) {
        assert(Older(start_ts, requester, h.start_ts, h.txn));
        victims.push_back(h.txn);
      }
    }
  }
  for (const TxnId& victim : victims) {
    ++wounds_;
    ReleaseAll(victim);
    if (wound_handler_) wound_handler_(victim);
  }
}

void LockTable::PumpWaiters(const Key& key) {
  auto it = locks_.find(key);
  if (it == locks_.end()) return;
  LockState& state = it->second;
  while (!state.waiters.empty()) {
    Waiter& w = state.waiters.front();
    if (!Compatible(state, w.txn, w.mode)) break;
    Grant(state, w.txn, w.mode, w.start_ts);
    held_by_txn_[w.txn].insert(key);
    GrantCallback cb = std::move(w.grant);
    state.waiters.pop_front();
    cb(Status::Ok());
    // The callback may have mutated the table; re-find the state.
    it = locks_.find(key);
    if (it == locks_.end()) return;
  }
  if (state.holders.empty() && state.waiters.empty()) locks_.erase(key);
}

void LockTable::ReleaseAll(TxnId txn) {
  // Cancel queued waiters of this transaction first.
  std::vector<GrantCallback> cancelled;
  for (auto& [key, state] : locks_) {
    for (auto wit = state.waiters.begin(); wit != state.waiters.end();) {
      if (wit->txn == txn) {
        cancelled.push_back(std::move(wit->grant));
        wit = state.waiters.erase(wit);
      } else {
        ++wit;
      }
    }
  }

  auto held = held_by_txn_.find(txn);
  std::vector<Key> keys;
  if (held != held_by_txn_.end()) {
    keys.assign(held->second.begin(), held->second.end());
    held_by_txn_.erase(held);
  }
  // Drop every hold before granting any waiter: a grant callback may lead
  // an older transaction to wound `txn` on a key not yet visited, and with
  // `txn`'s index already gone that wound could not release the hold, so
  // Acquire's wound-and-retry would recurse without end.
  for (const Key& key : keys) {
    auto it = locks_.find(key);
    if (it == locks_.end()) continue;
    auto& holders = it->second.holders;
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [&](const Holder& h) { return h.txn == txn; }),
                  holders.end());
  }
  for (const Key& key : keys) {
    PumpWaiters(key);
    auto it = locks_.find(key);
    if (it != locks_.end() && it->second.holders.empty() &&
        it->second.waiters.empty()) {
      locks_.erase(it);
    }
  }

  for (GrantCallback& cb : cancelled) {
    cb(Status::Aborted("lock request cancelled"));
  }
}

}  // namespace helios
