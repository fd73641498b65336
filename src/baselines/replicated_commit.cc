#include "baselines/replicated_commit.h"

#include <algorithm>
#include <memory>

namespace helios::baselines {

namespace {

/// A transaction whose votes cannot complete (e.g. datacenter outages)
/// aborts after this long.
constexpr Duration kDecisionTimeout = Seconds(5);

}  // namespace

ReplicatedCommitCluster::ReplicatedCommitCluster(sim::Scheduler* scheduler,
                                                 sim::Network* network,
                                                 ReplicaConfig config)
    : ReplicaCluster(scheduler, network, std::move(config)) {
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    locks_.emplace_back(LockPolicy::kNoWait);
  }
}

void ReplicatedCommitCluster::OnCrash(DcId dc) {
  locks_[static_cast<size_t>(dc)] = LockTable(LockPolicy::kNoWait);
}

// --- Server-side handlers -----------------------------------------------------

void ReplicatedCommitCluster::HandleLockRead(
    DcId dc, const TxnId& txn, Timestamp start_ts, const Key& key,
    std::function<void(Result<VersionedValue>)> reply) {
  if (state(dc).down) return;  // A crashed datacenter drops everything.
  replica(dc).service.Submit(
      config_.service.read + config_.service.lock_op,
      [this, dc, gen = state(dc).gen, txn, start_ts, key,
       reply = std::move(reply)]() {
        if (!Alive(dc, gen)) return;  // Crashed while queued.
        if (state(dc).recovering) {
          reply(Status::Unavailable("recovering"));
          return;
        }
        const MvStore& store = replica(dc).store;
        locks_[static_cast<size_t>(dc)].Acquire(
            key, LockMode::kShared, txn, start_ts,
            [&store, &key, &reply](Status s) {
              // No-wait: the grant callback runs synchronously.
              if (!s.ok()) {
                reply(Status::Aborted("read lock refused"));
                return;
              }
              reply(store.Read(key));
            });
      });
}

void ReplicatedCommitCluster::HandleVote(
    DcId dc, const TxnId& txn, Timestamp start_ts,
    const std::vector<ReadEntry>& reads, const std::vector<WriteEntry>& writes,
    std::function<void(VoteReply)> reply) {
  if (state(dc).down) return;
  const Duration vote_cost =
      config_.service.commit_request +
      config_.service.lock_op *
          static_cast<Duration>(reads.size() + writes.size());
  replica(dc).service.Submit(
      vote_cost,
      [this, dc, gen = state(dc).gen, txn, start_ts, reads, writes,
       reply = std::move(reply)]() {
        if (!Alive(dc, gen)) return;
        if (state(dc).recovering) {
          // A store that has not caught up cannot validate reads; vote no
          // rather than risk validating against stale versions.
          reply(VoteReply{});
          return;
        }
        LockTable& locks = locks_[static_cast<size_t>(dc)];
        const MvStore& store = replica(dc).store;
        VoteReply vote;
        vote.yes = true;
        // Acquire write locks (no-wait: grants are synchronous).
        for (const WriteEntry& w : writes) {
          bool got = false;
          locks.Acquire(w.key, LockMode::kExclusive, txn, start_ts,
                        [&got](Status s) { got = s.ok(); });
          if (!got) {
            vote.yes = false;
            break;
          }
          vote.max_write_version_ts =
              std::max(vote.max_write_version_ts, store.LatestVersionTs(w.key));
        }
        // Validate reads: either the shared lock is still held (the normal
        // path) or the version the client read is still current.
        if (vote.yes) {
          for (const ReadEntry& r : reads) {
            if (locks.Holds(r.key, txn, LockMode::kShared)) continue;
            bool got = false;
            locks.Acquire(r.key, LockMode::kShared, txn, start_ts,
                          [&got](Status s) { got = s.ok(); });
            auto current = store.Read(r.key);
            const bool matches =
                current.ok() ? current.value().writer == r.version_writer
                             : !r.version_writer.valid();
            if (!got || !matches) {
              vote.yes = false;
              break;
            }
          }
        }
        // Locks (granted or partial) stay held until the decision.
        reply(vote);
      });
}

void ReplicatedCommitCluster::HandleDecision(DcId dc, const TxnId& txn,
                                             bool commit, TxnBodyPtr body,
                                             Timestamp version_ts) {
  if (state(dc).down) return;
  const Duration cost =
      commit ? config_.service.write_apply *
                   static_cast<Duration>(body ? body->write_set.size() : 0)
             : Micros(10);
  replica(dc).service.Submit(cost, [this, dc, gen = state(dc).gen, txn,
                                    commit, body = std::move(body),
                                    version_ts]() {
    if (!Alive(dc, gen)) return;
    // A no-op when catch-up already applied this decision.
    if (commit && body != nullptr) ApplyDecision(dc, body, version_ts);
    locks_[static_cast<size_t>(dc)].ReleaseAll(txn);
  });
}

void ReplicatedCommitCluster::BroadcastDecision(DcId home, const TxnId& txn,
                                                bool commit, TxnBodyPtr body,
                                                Timestamp version_ts) {
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    Route(home, dc, [this, dc, txn, commit, body, version_ts]() {
      HandleDecision(dc, txn, commit, body, version_ts);
    });
  }
  txn_start_ts_.erase(txn);
}

// --- Client-side protocol ------------------------------------------------------

void ReplicatedCommitCluster::TxnRead(DcId client_dc, const TxnId& txn,
                                      const Key& key, ReadCallback done) {
  const int n = config_.num_datacenters;
  const int majority = n / 2 + 1;
  const Timestamp start_ts = StartTs(client_dc, txn);

  struct ReadState {
    int replies = 0;
    int granted = 0;
    bool answered = false;
    bool have_value = false;
    VersionedValue best;
  };
  auto state = std::make_shared<ReadState>();
  auto on_reply = [state, n, majority, done](Result<VersionedValue> r) {
    ++state->replies;
    if (r.ok()) {
      ++state->granted;
      const VersionedValue& v = r.value();
      if (!state->have_value || state->best.ts < v.ts ||
          (state->best.ts == v.ts && state->best.writer < v.writer)) {
        state->have_value = true;
        state->best = v;
      }
    } else if (r.status().code() == StatusCode::kNotFound) {
      // Key absent but lock granted: counts toward the majority.
      ++state->granted;
    }
    if (state->answered) return;
    if (state->granted >= majority) {
      state->answered = true;
      if (state->have_value) {
        done(state->best);
      } else {
        done(Status::NotFound("no replica has the key"));
      }
      return;
    }
    const int refused = state->replies - state->granted;
    if (refused > n - majority) {
      state->answered = true;
      done(Status::Aborted("read lock refused at a majority"));
    }
  };

  for (DcId dc = 0; dc < n; ++dc) {
    Route(client_dc, dc, [this, dc, txn, start_ts, key, client_dc,
                          on_reply]() {
      HandleLockRead(dc, txn, start_ts, key,
                     [this, dc, client_dc, on_reply](Result<VersionedValue> r) {
                       RouteBack(dc, client_dc,
                                 [on_reply, r = std::move(r)]() { on_reply(r); });
                     });
    });
  }
}

void ReplicatedCommitCluster::TxnCommit(DcId client_dc, const TxnId& txn,
                                        std::vector<ReadEntry> reads,
                                        std::vector<WriteEntry> writes,
                                        CommitCallback done) {
  if (RefuseDuplicateWrites(client_dc, txn, writes, done)) return;
  const int n = config_.num_datacenters;
  const int majority = n / 2 + 1;
  const Timestamp start_ts = StartTs(client_dc, txn);
  TxnBodyPtr body = MakeTxnBody(txn, std::move(reads), std::move(writes));
  const sim::SimTime requested_at = scheduler_->Now();

  auto tally = std::make_shared<Tally>();
  open_tallies_[txn] = tally;

  auto decide = [this, tally, client_dc, txn, body, done,
                 requested_at](bool commit) {
    if (tally->decided) return;
    tally->decided = true;
    open_tallies_.erase(txn);
    commit = commit && !tally->abandoned;
    const char* reason = commit            ? ""
                         : tally->abandoned ? "abandoned"
                                            : "vote:no-majority";
    Timestamp version_ts = kMinTimestamp;
    if (commit) {
      // Dependency-bump the version timestamp above everything read or
      // overwritten so the per-key version order matches the lock order.
      version_ts = clock(client_dc).NowUnique();
      for (const ReadEntry& r : body->read_set) {
        version_ts = std::max(version_ts, r.version_ts + 1);
      }
      version_ts = std::max(version_ts, tally->max_write_version_ts + 1);
      ++commits_;
      history_.RecordCommit(
          core::CommittedTxn{txn, client_dc, version_ts, body});
    } else {
      ++aborts_;
    }
    if (observed()) {
      RecordDecision(client_dc, txn, commit, requested_at, reason);
    }
    BroadcastDecision(client_dc, txn, commit, body, version_ts);
    done(CommitOutcome{txn, commit, reason});
  };

  auto on_vote = [tally, majority, n, decide](const VoteReply& vote) {
    if (tally->decided) return;
    if (vote.yes) {
      ++tally->yes;
      tally->max_write_version_ts =
          std::max(tally->max_write_version_ts, vote.max_write_version_ts);
    } else {
      ++tally->no;
    }
    if (tally->yes >= majority) {
      decide(true);
    } else if (tally->no > n - majority) {
      decide(false);
    }
  };

  for (DcId dc = 0; dc < n; ++dc) {
    Route(client_dc, dc, [this, dc, txn, start_ts, body, client_dc,
                          on_vote]() {
      HandleVote(dc, txn, start_ts, body->read_set, body->write_set,
                 [this, dc, client_dc, on_vote](VoteReply vote) {
                   RouteBack(dc, client_dc, [on_vote, vote]() { on_vote(vote); });
                 });
    });
  }

  // Outage guard: if votes can never resolve (crashed datacenters), abort.
  scheduler_->After(kDecisionTimeout, [decide]() { decide(false); });
}

void ReplicatedCommitCluster::TxnAbandon(DcId client_dc, const TxnId& txn) {
  auto it = open_tallies_.find(txn);
  if (it != open_tallies_.end()) it->second->abandoned = true;
  BroadcastDecision(client_dc, txn, false, nullptr, kMinTimestamp);
}

// Reads outside a transaction take no locks and stay local.
void ReplicatedCommitCluster::ClientRead(DcId client_dc, const Key& key,
                                         ReadCallback done) {
  ReadAt(client_dc, client_dc, {key},
         [done = std::move(done)](std::vector<Result<VersionedValue>> r) {
           done(std::move(r[0]));
         });
}

void ReplicatedCommitCluster::ClientReadOnly(DcId client_dc,
                                             std::vector<Key> keys,
                                             ReadOnlyCallback done) {
  ReadAt(client_dc, client_dc, std::move(keys), std::move(done));
}

}  // namespace helios::baselines
