#include "baselines/replica_cluster.h"

#include <string>

#include "common/check.h"

namespace helios::baselines {

ReplicaCluster::ReplicaCluster(sim::Scheduler* scheduler,
                               sim::Network* network, ReplicaConfig config)
    : scheduler_(scheduler), network_(network), config_(std::move(config)) {
  HELIOS_CHECK(network_->size() == config_.num_datacenters,
               std::to_string(network_->size()) + "-node network for " +
                   std::to_string(config_.num_datacenters) + " datacenters");
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    replicas_.push_back(std::make_unique<Replica>(scheduler_));
    const Duration offset =
        config_.clock_offsets.empty()
            ? 0
            : config_.clock_offsets[static_cast<size_t>(dc)];
    clocks_.push_back(std::make_unique<sim::Clock>(scheduler_, offset));
    wals_.push_back(std::make_unique<wal::MemoryWal>());
  }
  dc_state_.resize(static_cast<size_t>(config_.num_datacenters));
  journaled_.resize(static_cast<size_t>(config_.num_datacenters));
}

void ReplicaCluster::SetObservability(obs::TraceRecorder* trace,
                                      obs::MetricsRegistry* metrics) {
  trace_ = trace;
  h_commit_total_us_ =
      metrics == nullptr ? nullptr : &metrics->histogram("txn.commit_total_us");
  h_abort_total_us_ =
      metrics == nullptr ? nullptr : &metrics->histogram("txn.abort_total_us");
}

void ReplicaCluster::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->counter("protocol.commits").Set(commits_);
  registry->counter("protocol.aborts").Set(aborts_);
}

void ReplicaCluster::RecordDecision(DcId dc, const TxnId& txn, bool commit,
                                    sim::SimTime t0,
                                    const std::string& reason) {
  const sim::SimTime now = scheduler_->Now();
  if (trace_ != nullptr) {
    trace_->Span(obs::EventKind::kTxnServer, dc, txn, t0, now, kInvalidDc,
                 reason);
    trace_->Instant(commit ? obs::EventKind::kTxnCommit
                           : obs::EventKind::kTxnAbort,
                    dc, txn, now, kInvalidDc, reason);
  }
  obs::Histogram* h = commit ? h_commit_total_us_ : h_abort_total_us_;
  if (h != nullptr) h->Observe(static_cast<double>(now - t0));
}

void ReplicaCluster::Route(DcId home, DcId target, std::function<void()> fn) {
  if (home == target) {
    scheduler_->After(config_.client_link_one_way, std::move(fn));
  } else {
    scheduler_->After(config_.client_link_one_way,
                      [this, home, target, fn = std::move(fn)]() {
                        network_->Send(home, target, fn);
                      });
  }
}

void ReplicaCluster::RouteBack(DcId target, DcId home,
                               std::function<void()> fn) {
  if (home == target) {
    scheduler_->After(config_.client_link_one_way, std::move(fn));
  } else {
    network_->Send(target, home, [this, fn = std::move(fn)]() {
      scheduler_->After(config_.client_link_one_way, fn);
    });
  }
}

void ReplicaCluster::ReadAt(DcId home, DcId dc, std::vector<Key> keys,
                            ReadOnlyCallback done) {
  Route(home, dc, [this, home, dc, keys = std::move(keys),
                   done = std::move(done)]() {
    if (state(dc).down) return;
    replica(dc).service.Submit(
        config_.service.read * static_cast<Duration>(keys.size()),
        [this, home, dc, keys, gen = state(dc).gen, done]() {
          if (!Alive(dc, gen)) return;
          std::vector<Result<VersionedValue>> out;
          if (state(dc).recovering) {
            out.assign(keys.size(), Result<VersionedValue>(
                                        Status::Unavailable("recovering")));
          } else {
            const MvStore& store = replica(dc).store;
            out.reserve(keys.size());
            for (const Key& k : keys) out.push_back(store.Read(k));
          }
          RouteBack(dc, home, [done, out = std::move(out)]() { done(out); });
        });
  });
}

TxnId ReplicaCluster::BeginTxn(DcId client_dc) {
  const TxnId id = ProtocolCluster::BeginTxn(client_dc);
  txn_start_ts_[id] = clock(client_dc).NowUnique();
  return id;
}

Timestamp ReplicaCluster::StartTs(DcId home, const TxnId& txn) {
  auto it = txn_start_ts_.find(txn);
  if (it != txn_start_ts_.end()) return it->second;
  return clock(home).Now();
}

void ReplicaCluster::ClientCommit(DcId client_dc,
                                  std::vector<ReadEntry> reads,
                                  std::vector<WriteEntry> writes,
                                  CommitCallback done) {
  TxnCommit(client_dc, BeginTxn(client_dc), std::move(reads),
            std::move(writes), std::move(done));
}

bool ReplicaCluster::RefuseDuplicateWrites(
    DcId client_dc, const TxnId& txn, const std::vector<WriteEntry>& writes,
    const CommitCallback& done) {
  if (!HasDuplicateWriteKey(writes)) return false;
  ++aborts_;
  TxnAbandon(client_dc, txn);
  scheduler_->After(2 * config_.client_link_one_way, [txn, done]() {
    done(CommitOutcome{txn, false, kDuplicateWriteAbortReason});
  });
  return true;
}

void ReplicaCluster::LoadInitialAll(const InitialRows& rows) {
  for (auto& r : replicas_) r->store.LoadInitial(rows);
  initial_loads_.insert(initial_loads_.end(), rows.begin(), rows.end());
}

bool ReplicaCluster::ApplyDecision(DcId dc, const TxnBodyPtr& body,
                                   Timestamp version_ts) {
  if (!journaled_[static_cast<size_t>(dc)].insert(body->id).second) {
    return false;
  }
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kFinished;
  rec.committed = true;
  rec.ts = version_ts;
  rec.version_ts = version_ts;
  rec.origin = body->id.origin;
  rec.body = body;
  (void)wals_[static_cast<size_t>(dc)]->AppendRecord(rec);
  MvStore& store = replica(dc).store;
  store.ApplyTxn(*body, version_ts);
  // Baselines read only latest versions. A GC pass that drops nothing
  // costs one look at the store's schedule, so collect on every decision
  // instead of on a timer, which would add scheduler events.
  store.TruncateVersionsBefore(clock(dc).Now() - kVersionRetention);
  return true;
}

// --- Crash recovery ------------------------------------------------------------

std::vector<DcId> ReplicaCluster::CatchupSources(DcId dc) const {
  std::vector<DcId> peers;
  for (DcId p = 0; p < config_.num_datacenters; ++p) {
    if (p != dc) peers.push_back(p);
  }
  return peers;
}

void ReplicaCluster::SetDatacenterDown(DcId dc, bool down) {
  DcState& st = dc_state_[static_cast<size_t>(dc)];
  if (down) {
    if (st.down) return;
    // Crash with amnesia: a fresh replica replaces the old one so closures
    // queued against it hit the generation guard instead of freed memory.
    replicas_[static_cast<size_t>(dc)] = std::make_unique<Replica>(scheduler_);
    ++st.gen;
    st.down = true;
    st.recovering = false;
    OnCrash(dc);
    return;
  }
  if (!st.down) return;
  st.down = false;
  st.recovering = true;
  const sim::SimTime started = scheduler_->Now();
  const uint64_t gen = st.gen;
  // Restore: data loaded outside the protocol first (the fresh store
  // numbers them as the original loads did), then the journal of every
  // decision this datacenter had applied before the crash.
  MvStore& store = replica(dc).store;
  store.LoadInitial(initial_loads_);
  const auto& journal = wals_[static_cast<size_t>(dc)]->contents().records;
  for (const auto& rec : journal) {
    if (rec.body != nullptr) store.ApplyTxn(*rec.body, rec.version_ts);
  }
  CatchupRound(dc, gen, journal.size(), started, 0);
}

void ReplicaCluster::CatchupRound(DcId dc, uint64_t gen, uint64_t replayed,
                                  sim::SimTime started, int round) {
  // Crashed again, or a pull already answered.
  if (!Alive(dc, gen) || !state(dc).recovering) return;
  if (round == core::kCatchupRounds) {
    // Nobody answered: rejoin with the local journal alone rather than
    // staying wedged in the recovering state.
    FinishRecovery(dc, replayed, 0, started);
    return;
  }
  // Pull the journal of a source and apply the decisions missed during
  // the outage. A peer still catching up itself may lack them too, so
  // only peers that are up and caught up qualify; each round asks the
  // next one.
  std::vector<DcId> sources;
  for (DcId p : CatchupSources(dc)) {
    if (CaughtUp(p)) sources.push_back(p);
  }
  if (!sources.empty()) {
    PullFrom(dc, sources[static_cast<size_t>(round) % sources.size()], gen,
             replayed, started);
  }
  scheduler_->After(core::kCatchupRetryInterval,
                    [this, dc, gen, replayed, started, round]() {
                      CatchupRound(dc, gen, replayed, started, round + 1);
                    });
}

void ReplicaCluster::PullFrom(DcId dc, DcId peer, uint64_t gen,
                              uint64_t replayed, sim::SimTime started) {
  network_->Send(dc, peer, [this, dc, peer, gen, replayed, started]() {
    if (!CaughtUp(peer)) return;  // Request lost; the next round retries.
    replica(peer).service.Submit(
        config_.service.read, [this, dc, peer, gen, replayed, started]() {
          if (!CaughtUp(peer)) return;
          auto records = std::make_shared<std::vector<rdict::LogRecord>>(
              wals_[static_cast<size_t>(peer)]->contents().records);
          network_->Send(
              peer, dc, [this, dc, gen, replayed, started, records]() {
                if (!Alive(dc, gen) || !state(dc).recovering) return;
                uint64_t fresh = 0;
                for (const auto& rec : *records) {
                  // ApplyDecision dedups against everything already
                  // applied: the pre-crash journal and decisions delivered
                  // since the restart.
                  if (rec.body != nullptr &&
                      ApplyDecision(dc, rec.body, rec.version_ts)) {
                    ++fresh;
                  }
                }
                FinishRecovery(dc, replayed, fresh, started);
              });
        });
  });
}

void ReplicaCluster::FinishRecovery(DcId dc, uint64_t records_replayed,
                                    uint64_t catchup_records,
                                    sim::SimTime started) {
  DcState& st = dc_state_[static_cast<size_t>(dc)];
  if (!st.recovering) return;  // Already finished.
  st.recovering = false;
  ++recovery_stats_.recoveries;
  recovery_stats_.records_replayed += records_replayed;
  recovery_stats_.catchup_records += catchup_records;
  const sim::SimTime now = scheduler_->Now();
  recovery_stats_.duration_us += static_cast<uint64_t>(now - started);
  if (trace_ != nullptr) {
    trace_->Span(obs::EventKind::kNodeRecover, dc, TxnId{}, started, now,
                 kInvalidDc, "journal-replay+peer-catchup");
  }
}

}  // namespace helios::baselines
