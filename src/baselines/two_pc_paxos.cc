#include "baselines/two_pc_paxos.h"

#include <memory>
#include <string>
#include <utility>

#include "common/check.h"

namespace helios::baselines {

namespace {

/// A commit whose accept round cannot complete (e.g. no live majority)
/// aborts after this long.
constexpr Duration kDecisionTimeout = Seconds(10);

}  // namespace

TwoPcPaxosCluster::TwoPcPaxosCluster(sim::Scheduler* scheduler,
                                     sim::Network* network,
                                     ReplicaConfig config, DcId coordinator)
    : ReplicaCluster(scheduler, network, std::move(config)),
      coordinator_(coordinator) {
  HELIOS_CHECK(coordinator_ >= 0 && coordinator_ < config_.num_datacenters,
               "2PC coordinator dc" + std::to_string(coordinator_) +
                   " outside " + std::to_string(config_.num_datacenters) +
                   " datacenters");
  lock_table_ = MakeLockTable();
}

std::unique_ptr<LockTable> TwoPcPaxosCluster::MakeLockTable() {
  auto table = std::make_unique<LockTable>(LockPolicy::kWoundWait);
  table->set_wound_handler([this](TxnId victim) {
    // Wound-wait killed the transaction; its pending lock callbacks were
    // cancelled with kAborted by the table. Remember it so later requests
    // from the same client abort fast.
    doomed_.insert(victim);
  });
  return table;
}

void TwoPcPaxosCluster::ReplicateToMajority(std::function<void()> chosen) {
  const DcId coord = coordinator_;
  const uint64_t gen = state(coord).gen;
  const int majority = config_.num_datacenters / 2 + 1;
  struct Round {
    int votes = 1;  // The coordinator's own.
    std::function<void()> chosen;
  };
  auto round = std::make_shared<Round>();
  round->chosen = std::move(chosen);
  if (round->votes == majority) std::exchange(round->chosen, nullptr)();
  for (DcId peer = 0; peer < config_.num_datacenters; ++peer) {
    if (peer == coord) continue;
    network_->Send(coord, peer, [this, coord, peer, gen, majority, round]() {
      if (state(peer).down) return;
      replica(peer).service.Submit(
          config_.service.log_message,
          [this, coord, peer, gen, majority, round]() {
            if (state(peer).down) return;
            network_->Send(peer, coord, [this, coord, gen, majority, round]() {
              if (!Alive(coord, gen)) return;
              // Processing the vote occupies the coordinator.
              replica(coord).service.Charge(config_.service.log_message);
              if (++round->votes == majority) {
                std::exchange(round->chosen, nullptr)();
              }
            });
          });
    });
  }
}

void TwoPcPaxosCluster::OnCrash(DcId dc) {
  if (dc != coordinator_) return;
  lock_table_ = MakeLockTable();
  doomed_.clear();
  committing_.clear();
  txn_start_ts_.clear();
}

std::vector<DcId> TwoPcPaxosCluster::CatchupSources(DcId dc) const {
  std::vector<DcId> sources;
  if (dc != coordinator_) sources.push_back(coordinator_);
  for (DcId p = 0; p < config_.num_datacenters; ++p) {
    if (p != dc && p != coordinator_) sources.push_back(p);
  }
  return sources;
}

void TwoPcPaxosCluster::ExportMetrics(obs::MetricsRegistry* registry) const {
  ReplicaCluster::ExportMetrics(registry);
  registry->counter("protocol.wounds").Set(lock_table_->wounds());
}

void TwoPcPaxosCluster::TxnRead(DcId client_dc, const TxnId& txn,
                                const Key& key, ReadCallback done) {
  const Timestamp start_ts = StartTs(client_dc, txn);
  Route(client_dc, coordinator_, [this, client_dc, txn, start_ts, key,
                                  done = std::move(done)]() {
    // A crashed coordinator drops everything.
    if (state(coordinator_).down) return;
    replica(coordinator_).service.Submit(
        config_.service.read + config_.service.lock_op,
        [this, client_dc, txn, start_ts, key, gen = state(coordinator_).gen,
         done]() {
          if (!Alive(coordinator_, gen)) return;  // Crashed while queued.
          if (state(coordinator_).recovering) {
            // The store is mid-catch-up; locking against it could validate
            // reads on stale versions.
            RouteBack(coordinator_, client_dc, [done]() {
              done(Status::Unavailable("recovering"));
            });
            return;
          }
          if (Doomed(txn)) {
            RouteBack(coordinator_, client_dc, [done]() {
              done(Status::Aborted("transaction wounded"));
            });
            return;
          }
          // Wound-wait: this may grant now, later, or cancel with kAborted.
          lock_table_->Acquire(
              key, LockMode::kShared, txn, start_ts,
              [this, client_dc, key, done](Status s) {
                if (!s.ok()) {
                  RouteBack(coordinator_, client_dc, [done, s]() { done(s); });
                  return;
                }
                auto r = replica(coordinator_).store.Read(key);
                RouteBack(coordinator_, client_dc,
                          [done, r = std::move(r)]() { done(r); });
              });
        });
  });
}

void TwoPcPaxosCluster::AcquireWriteLocks(const TxnId& txn, Timestamp start_ts,
                                          TxnBodyPtr body, size_t index,
                                          std::function<void(bool)> then) {
  if (index >= body->write_set.size()) {
    then(true);
    return;
  }
  lock_table_->Acquire(
      body->write_set[index].key, LockMode::kExclusive, txn, start_ts,
      [this, txn, start_ts, body, index, then = std::move(then)](Status s) {
        if (!s.ok()) {
          then(false);
          return;
        }
        AcquireWriteLocks(txn, start_ts, body, index + 1, then);
      });
}

bool TwoPcPaxosCluster::ValidateReads(const TxnId& txn, Timestamp start_ts,
                                      const TxnBody& body) {
  const MvStore& store = replica(coordinator_).store;
  for (const ReadEntry& r : body.read_set) {
    if (lock_table_->Holds(r.key, txn, LockMode::kShared)) continue;
    // The read was not performed through TxnRead (or its lock was lost):
    // fall back to version validation under a non-blocking shared lock.
    const bool got =
        lock_table_->TryAcquire(r.key, LockMode::kShared, txn, start_ts);
    auto current = store.Read(r.key);
    const bool matches = current.ok()
                             ? current.value().writer == r.version_writer
                             : !r.version_writer.valid();
    if (!got || !matches) return false;
  }
  return true;
}

void TwoPcPaxosCluster::FinishAtCoordinator(DcId home, const TxnId& txn,
                                            TxnBodyPtr body, bool commit,
                                            CommitCallback done) {
  const DcId coord = coordinator_;
  if (state(coord).down) return;
  if (commit) {
    const Timestamp version_ts = clock(coord).NowUnique();
    replica(coord).service.Charge(
        config_.service.write_apply *
        static_cast<Duration>(body->write_set.size()));
    ApplyDecision(coord, body, version_ts);
    ++commits_;
    history_.RecordCommit(core::CommittedTxn{txn, home, version_ts, body});
    // Learners: ship the decided transaction to every replica. Building
    // and sending each message occupies the coordinator.
    for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
      if (dc == coord) continue;
      const uint64_t gen = state(dc).gen;
      replica(coord).service.Charge(config_.service.log_message);
      network_->Send(coord, dc, [this, dc, gen, body, version_ts]() {
        if (state(dc).down) return;
        replica(dc).service.Submit(
            config_.service.write_apply *
                static_cast<Duration>(body->write_set.size()),
            [this, dc, gen, body, version_ts]() {
              if (!Alive(dc, gen)) return;
              ApplyDecision(dc, body, version_ts);
            });
      });
    }
  } else {
    ++aborts_;
  }
  lock_table_->ReleaseAll(txn);
  doomed_.erase(txn);
  committing_.erase(txn);
  txn_start_ts_.erase(txn);
  RouteBack(coord, home, [done, txn, commit]() {
    done(CommitOutcome{txn, commit, commit ? "" : "2pc:abort"});
  });
}

void TwoPcPaxosCluster::CoordinatorCommit(DcId home, const TxnId& txn,
                                          TxnBodyPtr body,
                                          CommitCallback done) {
  committing_.insert(txn);
  if (Doomed(txn)) {
    FinishAtCoordinator(home, txn, body, false, done);
    return;
  }
  const Timestamp start_ts = StartTs(home, txn);
  AcquireWriteLocks(
      txn, start_ts, body, 0,
      [this, home, txn, start_ts, body, done](bool locked) {
        if (!locked || Doomed(txn) || !ValidateReads(txn, start_ts, *body)) {
          FinishAtCoordinator(home, txn, body, false, done);
          return;
        }
        // Locks held and reads valid: replicate to a majority before
        // acknowledging the commit (Spanner-style durability of the commit
        // record).
        auto decided = std::make_shared<bool>(false);
        const uint64_t gen = state(coordinator_).gen;
        ReplicateToMajority([this, home, txn, body, done, decided, gen]() {
          if (*decided) return;
          *decided = true;
          replica(coordinator_).service.Submit(
              config_.service.commit_request,
              [this, home, txn, body, done, gen]() {
                if (!Alive(coordinator_, gen)) return;
                // The transaction may have been wounded or abandoned (and
                // its locks released) while the accept round was in
                // flight; it must abort in that case or a conflicting
                // transaction could slip through its released locks.
                FinishAtCoordinator(home, txn, body, !Doomed(txn), done);
              });
        });
        scheduler_->After(kDecisionTimeout,
                          [this, home, txn, body, done, decided, gen]() {
                            if (*decided) return;
                            *decided = true;
                            if (!Alive(coordinator_, gen)) return;
                            FinishAtCoordinator(home, txn, body, false, done);
                          });
      });
}

void TwoPcPaxosCluster::TxnCommit(DcId client_dc, const TxnId& txn,
                                  std::vector<ReadEntry> reads,
                                  std::vector<WriteEntry> writes,
                                  CommitCallback done) {
  if (RefuseDuplicateWrites(client_dc, txn, writes, done)) return;
  TxnBodyPtr body = MakeTxnBody(txn, std::move(reads), std::move(writes));
  if (observed()) {
    // The decision point lives deep in the coordinator's async pipeline;
    // wrapping the client callback captures request -> decision-delivery
    // (one client link longer than the coordinator's own processing).
    const sim::SimTime requested_at = scheduler_->Now();
    done = [this, client_dc, requested_at,
            done = std::move(done)](const CommitOutcome& outcome) {
      RecordDecision(client_dc, outcome.id, outcome.committed, requested_at,
                     outcome.abort_reason);
      done(outcome);
    };
  }
  Route(client_dc, coordinator_, [this, client_dc, txn, body,
                                  done = std::move(done)]() {
    if (state(coordinator_).down) return;
    // Commit processing at the coordinator: the 2PC bookkeeping plus one
    // lock-table operation per write lock and read validation.
    const Duration cost =
        config_.service.commit_request +
        config_.service.lock_op *
            static_cast<Duration>(body->read_set.size() +
                                  body->write_set.size());
    replica(coordinator_).service.Submit(
        cost, [this, client_dc, txn, body, gen = state(coordinator_).gen,
               done]() {
          if (!Alive(coordinator_, gen)) return;
          if (state(coordinator_).recovering) {
            RouteBack(coordinator_, client_dc, [txn, done]() {
              done(CommitOutcome{txn, false, "recovering"});
            });
            return;
          }
          CoordinatorCommit(client_dc, txn, body, done);
        });
  });
}

void TwoPcPaxosCluster::TxnAbandon(DcId client_dc, const TxnId& txn) {
  Route(client_dc, coordinator_, [this, txn]() {
    if (state(coordinator_).down) return;
    // A commit already in flight loses its locks here, so it must not
    // finish as committed: doom it (FinishAtCoordinator drops the mark).
    // Nothing is kept for a transaction abandoned in its read phase.
    if (committing_.count(txn) > 0) {
      doomed_.insert(txn);
    } else {
      doomed_.erase(txn);
    }
    lock_table_->ReleaseAll(txn);
    txn_start_ts_.erase(txn);
  });
}

// Reads outside a transaction are served by the coordinator without
// locking.
void TwoPcPaxosCluster::ClientRead(DcId client_dc, const Key& key,
                                   ReadCallback done) {
  ReadAt(client_dc, coordinator_, {key},
         [done = std::move(done)](std::vector<Result<VersionedValue>> r) {
           done(std::move(r[0]));
         });
}

void TwoPcPaxosCluster::ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                                       ReadOnlyCallback done) {
  ReadAt(client_dc, coordinator_, std::move(keys), std::move(done));
}

}  // namespace helios::baselines
