#include "core/helios_cluster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/mutation.h"
#include "lp/mao.h"
#include "obs/metrics.h"

namespace helios::core {

HeliosCluster::HeliosCluster(sim::Scheduler* scheduler, sim::Network* network,
                             HeliosConfig config, LogProtocolKind kind,
                             std::string name, shard::ShardMap map)
    : scheduler_(scheduler),
      network_(network),
      config_(std::move(config)),
      kind_(kind),
      name_(std::move(name)),
      map_(std::move(map)) {
  // An invalid map silently misroutes keys — overlapping or empty
  // partitions — so it stops the process in every build.
  const Status map_ok = map_.Validate();
  HELIOS_CHECK(map_ok.ok(),
               name_ + ": invalid shard map: " + map_ok.ToString());
  HELIOS_CHECK(network_->size() == config_.num_datacenters,
               name_ + ": network of " + std::to_string(network_->size()) +
                   " nodes for " + std::to_string(config_.num_datacenters) +
                   " datacenters");
  const int n = config_.num_datacenters;
  const int num_shards = map_.num_shards();
  planes_.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Plane& p = plane(s);
    p.config = config_;
    if (num_shards > 1) {
      // Interleave the per-shard TxnId sequences: shard s mints residue
      // s+1 (mod S+1), leaving residue 0 to the cross-shard coordinator.
      p.config.txn_seq_start = static_cast<uint64_t>(s) + 1;
      p.config.txn_seq_stride = static_cast<uint64_t>(num_shards) + 1;
    }
    p.clocks.reserve(static_cast<size_t>(n));
    p.nodes.reserve(static_cast<size_t>(n));
    p.wals.reserve(static_cast<size_t>(n));
    for (DcId dc = 0; dc < n; ++dc) {
      const Duration offset =
          config_.clock_offsets.empty()
              ? 0
              : config_.clock_offsets[static_cast<size_t>(dc)];
      p.clocks.push_back(std::make_unique<sim::Clock>(scheduler_, offset));
      p.wals.push_back(std::make_unique<wal::MemoryWal>());
      p.nodes.push_back(MakeNode(s, dc));
    }
  }
  status_.resize(static_cast<size_t>(n));
  next_xseq_.assign(static_cast<size_t>(n), 0);
}

std::unique_ptr<HeliosNode> HeliosCluster::MakeNode(int shard, DcId dc) {
  Plane& p = plane(shard);
  auto fresh = std::make_unique<HeliosNode>(
      dc, p.config, kind_, scheduler_, p.clocks[static_cast<size_t>(dc)].get(),
      [this, shard, dc](DcId to, const EnvelopePtr& env) {
        // Sized once per logical send; retransmissions and duplicate
        // deliveries reuse the cached size and the shared envelope (no
        // re-encode, no deep copies).
        const size_t size = envelope_sizer_ ? envelope_sizer_(*env) : 0;
        network_->SendSized(dc, to, size, [this, shard, to, env]() {
          node(to, shard).HandleEnvelope(env);
        });
      });
  fresh->set_history_recorder(&history_);
  fresh->SetObservability(trace_, metrics_);
  fresh->set_staged_resolver(
      [this, dc](const TxnId& id) { return ResolveStaged(dc, id); });
  // Durability is always on: every append/ingest and every GC-tick
  // timetable snapshot lands in the per-datacenter MemoryWal. The sink is
  // a pure memory side effect — no scheduler events, no RNG — so
  // crash-free runs stay bit-identical.
  wal::MemoryWal* wal = p.wals[static_cast<size_t>(dc)].get();
  fresh->set_record_sink(
      [wal](const rdict::LogRecord& rec) { (void)wal->AppendRecord(rec); });
  fresh->set_timetable_sink(
      [wal](const rdict::Timetable& t) { (void)wal->AppendTimetable(t); });
  return fresh;
}

void HeliosCluster::Start() {
  HELIOS_CHECK(!started_, name_ + ": started twice");
  started_ = true;
  for (Plane& p : planes_) {
    for (auto& node : p.nodes) node->Start();
  }
}

int HeliosCluster::SingleShard(const std::vector<ReadEntry>& reads,
                               const std::vector<WriteEntry>& writes) const {
  if (planes_.size() == 1) return 0;
  const int first = !reads.empty()    ? map_.ShardOf(reads.front().key)
                    : !writes.empty() ? map_.ShardOf(writes.front().key)
                                      : 0;
  for (const ReadEntry& r : reads) {
    if (map_.ShardOf(r.key) != first) return kCrossShard;
  }
  for (const WriteEntry& w : writes) {
    if (map_.ShardOf(w.key) != first) return kCrossShard;
  }
  return first;
}

int HeliosCluster::SingleShard(const std::vector<Key>& keys) const {
  if (planes_.size() == 1 || keys.empty()) return 0;
  const int first = map_.ShardOf(keys.front());
  for (const Key& key : keys) {
    if (map_.ShardOf(key) != first) return kCrossShard;
  }
  return first;
}

void HeliosCluster::ClientRead(DcId client_dc, const Key& key,
                               ReadCallback done) {
  const int s = ShardOf(key);
  const Duration link = config_.client_link_one_way;
  scheduler_->After(link, [this, client_dc, s, key, done = std::move(done),
                           link]() {
    node(client_dc, s).HandleRead(
        key, [this, done, link](Result<VersionedValue> result) {
          scheduler_->After(link, [done, result = std::move(result)]() {
            done(result);
          });
        });
  });
}

void HeliosCluster::ClientCommit(DcId client_dc, std::vector<ReadEntry> reads,
                                 std::vector<WriteEntry> writes,
                                 CommitCallback done) {
  const Duration link = config_.client_link_one_way;
  if (const int s = SingleShard(reads, writes); s != kCrossShard) {
    // Unchanged Helios fast path: the owning shard handles everything.
    ++xstats_.single_shard;
    scheduler_->After(link, [this, client_dc, s, reads = std::move(reads),
                             writes = std::move(writes),
                             done = std::move(done), link]() mutable {
      node(client_dc, s).HandleCommitRequest(
          std::move(reads), std::move(writes),
          [this, done, link](const CommitOutcome& outcome) {
            scheduler_->After(link, [done, outcome]() { done(outcome); });
          });
    });
    return;
  }
  SliceMap slices;
  for (const ReadEntry& r : reads) {
    slices[map_.ShardOf(r.key)].first.push_back(r);
  }
  for (const WriteEntry& w : writes) {
    slices[map_.ShardOf(w.key)].second.push_back(w);
  }
  // Cross-shard: one client link to the coordinator (co-located with the
  // datacenter's shard nodes), which is pure bookkeeping — all service
  // cost is paid by the per-shard admissions it fans out to.
  scheduler_->After(
      link, [this, client_dc, slices = std::move(slices),
             reads = std::move(reads), writes = std::move(writes),
             done = std::move(done)]() mutable {
        if (datacenter_down(client_dc)) return;  // Client times out.
        const uint64_t stride = static_cast<uint64_t>(num_shards()) + 1;
        const TxnId id{client_dc,
                       ++next_xseq_[static_cast<size_t>(client_dc)] * stride};
        StartCrossShard(client_dc, std::move(slices),
                        MakeTxnBody(id, std::move(reads), std::move(writes)),
                        std::move(done));
      });
}

void HeliosCluster::StartCrossShard(DcId dc, SliceMap slices, TxnBodyPtr body,
                                    CommitCallback done) {
  const TxnId id = body->id;
  CrossShardTxn x;
  x.dc = dc;
  for (const auto& [s, rw] : slices) x.participants.push_back(s);
  x.body = std::move(body);
  x.done = std::move(done);
  ++xstats_.staged;
  // The durable STAGED record must exist before any slice can write an
  // intent, or a crash could find an intent with no status to resolve.
  status_[static_cast<size_t>(dc)].Stage(id, x.participants);
  inflight_.emplace(id, std::move(x));
  for (auto& [s, rw] : slices) {
    node(dc, s).HandleStagedCommit(
        id, std::move(rw.first), std::move(rw.second),
        [this, s](const StagedAdmitOutcome& out) { OnSliceAdmitted(s, out); },
        [this, s](const StagedCommitOutcome& out) {
          OnSlicePrepared(s, out);
        });
  }
}

void HeliosCluster::OnSliceAdmitted(int s, const StagedAdmitOutcome& out) {
  auto it = inflight_.find(out.id);
  if (it == inflight_.end()) {
    // Decided (abort) or crashed — e.g. the slice was parked in wait-die
    // when the decision's finalize swept through, and its retry admitted
    // afterwards. Release the intent now: with the transaction forgotten,
    // nobody is left to finalize it and it would block conflicting
    // admissions on shard s forever. Safe to abort unconditionally — a
    // commit decision consumes every participant's single admitted ack
    // before the transaction leaves inflight_, so a stray admitted=true
    // ack can never belong to a committed transaction.
    if (out.admitted) {
      node(out.id.origin, s).HandleFinalizeStaged(out.id, false,
                                                  kMinTimestamp);
    }
    return;
  }
  CrossShardTxn& x = it->second;
  if (out.admitted) {
    x.admitted[s] = out.request_ts;
  } else {
    x.failed.insert(s);
    if (x.abort_reason.empty()) x.abort_reason = out.abort_reason;
  }
  Advance(out.id);
}

void HeliosCluster::OnSlicePrepared(int s, const StagedCommitOutcome& out) {
  auto it = inflight_.find(out.id);
  if (it == inflight_.end()) {
    // Same reconciliation as OnSliceAdmitted: a commit decision consumes
    // all n prepared acks before erasing the transaction, so a stray
    // prepared=true ack can only be the leftover of an abort/crash race —
    // release the held intent.
    if (out.prepared) {
      node(out.id.origin, s).HandleFinalizeStaged(out.id, false,
                                                  kMinTimestamp);
    }
    return;
  }
  CrossShardTxn& x = it->second;
  if (out.prepared) {
    x.prepared.insert(s);
    x.max_proposed = std::max(x.max_proposed, out.proposed_ts);
  } else {
    x.failed.insert(s);
    x.prepared.erase(s);
    if (x.abort_reason.empty()) x.abort_reason = out.abort_reason;
  }
  Advance(out.id);
}

void HeliosCluster::Advance(const TxnId& id) {
  auto it = inflight_.find(id);
  HELIOS_CHECK(it != inflight_.end(),
               "cross-shard txn " + id.ToString() + " is not in flight");
  CrossShardTxn& x = it->second;
  const size_t n = x.participants.size();
  const Duration link = config_.client_link_one_way;

  if (!x.failed.empty()) {
    // Abort immediately: slices whose admission is still queued behind us
    // in their shard's service queue are aborted by the finalize (FIFO
    // per node guarantees the admission processes first).
    status_[static_cast<size_t>(x.dc)].Abort(id);
    ++xstats_.aborted;
    for (const int s : x.participants) {
      if (x.failed.count(s) > 0) continue;  // Already aborted itself.
      node(x.dc, s).HandleFinalizeStaged(id, false, kMinTimestamp);
    }
    const std::string reason =
        x.abort_reason.empty() ? "xshard:abort" : x.abort_reason;
    CommitCallback done = std::move(x.done);
    inflight_.erase(it);
    scheduler_->After(link, [done = std::move(done), id, reason]() {
      done(CommitOutcome{id, false, reason});
    });
    return;
  }

  if (!x.floor_sent && x.admitted.size() == n) {
    // Every slice admitted: raise all commit waits to the shared base so
    // the per-slice waits compose (see HandleRaiseStagedWait), then let
    // them run concurrently — the parallel-commit latency win.
    x.floor_sent = true;
    Timestamp base = kMinTimestamp;
    for (const auto& [s, q] : x.admitted) base = std::max(base, q);
    for (const int s : x.participants) {
      node(x.dc, s).HandleRaiseStagedWait(id, base);
    }
    return;
  }

  if (x.prepared.size() == n) {
    // Implicit commit: every intent is durable and its wait passed. Flip
    // the durable status BEFORE the client reply — that write is what
    // recovery trusts — then finalize the slices asynchronously.
    const Timestamp commit_ts = x.max_proposed;
    status_[static_cast<size_t>(x.dc)].Commit(id, commit_ts);
    ++xstats_.committed;
    history_.RecordCommit(CommittedTxn{id, x.dc, commit_ts, x.body});
    for (const int s : x.participants) {
      node(x.dc, s).HandleFinalizeStaged(id, true, commit_ts);
    }
    CommitCallback done = std::move(x.done);
    inflight_.erase(it);
    scheduler_->After(link, [done = std::move(done), id]() {
      done(CommitOutcome{id, true, ""});
    });
  }
}

StagedResolution HeliosCluster::ResolveStaged(DcId dc, const TxnId& id) {
  StagedResolution res;
  const shard::TxnStatusRecord* rec =
      status_[static_cast<size_t>(dc)].Lookup(id);
  if (rec == nullptr) return res;  // Not a cross-shard transaction.
  if (common::ActiveMutation() == common::Mutation::kSkipStagedResolution) {
    // Seeded bug for the src/check mutation test: trust the intent, never
    // the verdict — so a transaction whose coordinator never decided (or
    // decided abort) can commit on one shard while a sibling slice
    // aborts, which the shard-atomicity and staged-resolution oracles
    // must catch.
    res.status = StagedStatus::kCommitted;
    res.commit_ts =
        rec->commit_ts != kMinTimestamp ? rec->commit_ts : Timestamp{0};
    return res;
  }
  switch (rec->status) {
    case shard::TxnStatus::kCommitted:
      res.status = StagedStatus::kCommitted;
      res.commit_ts = rec->commit_ts;
      break;
    case shard::TxnStatus::kAborted:
      res.status = StagedStatus::kAborted;
      break;
    case shard::TxnStatus::kStaged:
      // The coordinator died mid-commit and never decided: decide abort
      // durably NOW, so every sibling slice — asking at any later
      // recovery — resolves identically. Safe because the client cannot
      // have seen a commit (the reply follows the COMMITTED write).
      status_[static_cast<size_t>(dc)].Abort(id);
      ++xstats_.resolved_aborts;
      res.status = StagedStatus::kAborted;
      break;
  }
  return res;
}

void HeliosCluster::ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                                   ReadOnlyCallback done) {
  const Duration link = config_.client_link_one_way;
  if (const int s = SingleShard(keys); s != kCrossShard) {
    scheduler_->After(link, [this, client_dc, s, keys = std::move(keys),
                             done = std::move(done), link]() mutable {
      node(client_dc, s).HandleReadOnly(
          std::move(keys),
          [this, done, link](std::vector<Result<VersionedValue>> results) {
            scheduler_->After(link, [done, results = std::move(results)]() {
              done(results);
            });
          });
    });
    return;
  }
  std::map<int, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < keys.size(); ++i) {
    by_shard[map_.ShardOf(keys[i])].push_back(i);
  }
  // Cross-shard read-only: one consistent snapshot per shard, merged in
  // input order. The snapshots are taken at slightly different instants,
  // so the combined result is NOT one atomic snapshot across shards
  // (docs/SHARDING.md documents the tearing).
  struct Merge {
    std::vector<Result<VersionedValue>> results;
    size_t remaining = 0;
  };
  auto merge = std::make_shared<Merge>();
  merge->results.resize(keys.size(),
                        Status::Unavailable("read-only shard never replied"));
  merge->remaining = by_shard.size();
  scheduler_->After(link, [this, client_dc, keys = std::move(keys),
                           by_shard = std::move(by_shard), merge,
                           done = std::move(done), link]() mutable {
    for (auto& [s, idxs] : by_shard) {
      std::vector<Key> shard_keys;
      shard_keys.reserve(idxs.size());
      for (const size_t i : idxs) shard_keys.push_back(keys[i]);
      node(client_dc, s)
          .HandleReadOnly(
              std::move(shard_keys),
              [this, merge, idxs, done, link](
                  std::vector<Result<VersionedValue>> results) {
                for (size_t j = 0; j < idxs.size(); ++j) {
                  merge->results[idxs[j]] = std::move(results[j]);
                }
                if (--merge->remaining > 0) return;
                scheduler_->After(link, [merge, done]() {
                  done(std::move(merge->results));
                });
              });
    }
  });
}

void HeliosCluster::LoadInitialAll(const Key& key, const Value& value) {
  Plane& p = plane(ShardOf(key));
  p.initial_loads.emplace_back(key, value);
  for (auto& node : p.nodes) node->LoadInitial(key, value);
}

void HeliosCluster::CrashDatacenter(DcId dc) {
  network_->CrashNode(dc);
  SetDatacenterDown(dc, true);
}

void HeliosCluster::RecoverDatacenter(DcId dc) {
  network_->RecoverNode(dc);
  SetDatacenterDown(dc, false);
}

void HeliosCluster::SetDatacenterDown(DcId dc, bool down) {
  if (down) {
    // The coordinator is co-located with the datacenter's shard nodes and
    // shares their fate: its volatile state for transactions it was
    // driving dies with it. The durable status table survives.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      it = it->first.origin == dc ? inflight_.erase(it) : std::next(it);
    }
  }
  for (int s = 0; s < num_shards(); ++s) SetNodeDown(s, dc, down);
}

void HeliosCluster::SetNodeDown(int shard, DcId dc, bool down) {
  Plane& p = plane(shard);
  if (down) {
    if (node(dc, shard).down()) return;
    // Crash with amnesia: destroy the node object — log, store, pools,
    // pending transactions, refusal state, clock floor bookkeeping and
    // offset overrides all vanish. A fresh down shell takes its place so
    // deliveries already in flight land on a live object that drops them.
    p.nodes[static_cast<size_t>(dc)] = MakeNode(shard, dc);
    node(dc, shard).SetDown(true);
    return;
  }
  HeliosNode& current = node(dc, shard);
  if (!current.down()) return;
  // Recovery: replay data loaded outside the protocol, then the WAL
  // (records + latest timetable snapshot), then rejoin and catch up.
  for (const auto& [key, value] : p.initial_loads) {
    current.LoadInitial(key, value);
  }
  const wal::WalContents& contents =
      p.wals[static_cast<size_t>(dc)]->contents();
  const Status restored = current.Restore(
      contents.records, contents.has_timetable ? &contents.timetable : nullptr);
  HELIOS_CHECK(restored.ok(), name_ + ": dc" + std::to_string(dc) + " shard " +
                                  std::to_string(shard) +
                                  " failed to restore: " + restored.ToString());
  current.SetDown(false);
  if (!started_) return;  // Crash/recover before Start(): nothing to rejoin.
  current.Start();
  current.BeginCatchup([&recovery = p.recovery](const RecoveryOutcome& out) {
    ++recovery.recoveries;
    recovery.records_replayed += out.records_replayed;
    recovery.catchup_records += out.catchup_records;
    recovery.duration_us +=
        static_cast<uint64_t>(out.finished_sim - out.started_sim);
  });
}

void HeliosCluster::SetObservability(obs::TraceRecorder* trace,
                                     obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
  for (Plane& p : planes_) {
    for (auto& node : p.nodes) node->SetObservability(trace, metrics);
  }
}

void HeliosCluster::InjectStall(DcId dc, Duration pause) {
  for (int s = 0; s < num_shards(); ++s) node(dc, s).InjectStall(pause);
}

void HeliosCluster::InjectFsyncStall(DcId dc, Duration per_record,
                                     Duration window) {
  for (int s = 0; s < num_shards(); ++s) {
    node(dc, s).InjectFsyncStall(per_record, window);
  }
}

void HeliosCluster::SnapshotStore(
    DcId dc,
    const std::function<void(const Key&, const VersionedValue&)>& fn) const {
  for (int s = 0; s < num_shards(); ++s) node(dc, s).store().ForEachLatest(fn);
}

RecoveryStats HeliosCluster::recovery_snapshot() const {
  RecoveryStats total;
  for (const Plane& p : planes_) {
    total.recoveries = std::max(total.recoveries, p.recovery.recoveries);
    total.records_replayed += p.recovery.records_replayed;
    total.catchup_records += p.recovery.catchup_records;
    total.duration_us += p.recovery.duration_us;
  }
  return total;
}

NodeCounters HeliosCluster::PlaneCounters(int shard) const {
  NodeCounters total;
  for (const auto& node : plane(shard).nodes) total += node->counters();
  return total;
}

NodeCounters HeliosCluster::AggregateCounters() const {
  NodeCounters total;
  for (int s = 0; s < num_shards(); ++s) total += PlaneCounters(s);
  return total;
}

void HeliosCluster::ExportMetrics(obs::MetricsRegistry* registry) const {
  const NodeCounters total = AggregateCounters();
  registry->counter("node.read_requests").Set(total.read_requests);
  registry->counter("node.commit_requests").Set(total.commit_requests);
  registry->counter("node.commits").Set(total.commits);
  registry->counter("node.aborts_on_request").Set(total.aborts_on_request);
  registry->counter("node.aborts_by_remote").Set(total.aborts_by_remote);
  registry->counter("node.aborts_liveness").Set(total.aborts_liveness);
  registry->counter("node.records_ingested").Set(total.records_ingested);
  registry->counter("node.envelopes_sent").Set(total.envelopes_sent);
  // Only f > 0 acknowledges on receipt; gating keeps f = 0 snapshots'
  // key set byte for byte.
  if (config_.fault_tolerance > 0) {
    registry->counter("node.acks_sent").Set(total.acks_sent);
  }
  registry->counter("node.refusals_issued").Set(total.refusals_issued);
  registry->counter("node.read_only_txns").Set(total.read_only_txns);
  // Protocol-neutral aliases so cross-protocol comparisons can key on the
  // same names the baselines export. Client-facing totals: commits
  // decided by the nodes plus cross-shard transactions decided by the
  // coordinator.
  registry->counter("protocol.commits").Set(total.commits + xstats_.committed);
  registry->counter("protocol.aborts")
      .Set(total.total_aborts() + xstats_.aborted);
  const int n = config_.num_datacenters;
  for (DcId dc = 0; dc < n; ++dc) {
    const std::string prefix = "node.dc" + std::to_string(dc);
    double pt = 0.0, ept = 0.0, busy = 0.0;
    for (int s = 0; s < num_shards(); ++s) {
      pt += static_cast<double>(node(dc, s).pt_pool_size());
      ept += static_cast<double>(node(dc, s).ept_pool_size());
      busy += static_cast<double>(node(dc, s).service_queue().total_busy());
    }
    registry->gauge(prefix + ".pt_pool").Set(pt);
    registry->gauge(prefix + ".ept_pool").Set(ept);
    registry->gauge(prefix + ".service_busy_us").Set(busy);
  }
  // Gated on the health config so runs without the subsystem keep their
  // pre-existing metrics key set byte for byte.
  if (config_.health.enabled) {
    registry->counter("health.suspicions").Set(total.suspicions);
    registry->counter("health.readmissions").Set(total.readmissions);
    registry->counter("health.suspicion_refusals")
        .Set(total.suspicion_refusals);
    registry->counter("health.degraded_commits").Set(total.degraded_commits);
    registry->counter("health.hedged_pulls").Set(total.hedged_pulls);
    for (DcId dc = 0; dc < n; ++dc) {
      const std::string prefix = "health.dc" + std::to_string(dc);
      double suspected = 0.0;
      for (DcId peer = 0; peer < n; ++peer) {
        if (peer == dc) continue;
        double phi = 0.0;
        bool suspects = false;
        for (int s = 0; s < num_shards(); ++s) {
          phi = std::max(phi, node(dc, s).HealthPhi(peer));
          suspects = suspects || node(dc, s).Suspects(peer);
        }
        registry->gauge(prefix + ".phi.dc" + std::to_string(peer)).Set(phi);
        if (suspects) suspected += 1.0;
      }
      registry->gauge(prefix + ".suspected").Set(suspected);
    }
  }
  if (num_shards() == 1) return;
  // Cross-shard parallel-commit lifecycle (coordinator + slice views).
  registry->counter("xshard.single_shard").Set(xstats_.single_shard);
  registry->counter("xshard.staged").Set(xstats_.staged);
  registry->counter("xshard.committed").Set(xstats_.committed);
  registry->counter("xshard.aborted").Set(xstats_.aborted);
  registry->counter("xshard.resolved_aborts").Set(xstats_.resolved_aborts);
  registry->counter("xshard.slices_staged").Set(total.staged_requests);
  registry->counter("xshard.slices_waited").Set(total.staged_waits);
  registry->counter("xshard.slices_prepared").Set(total.staged_prepared);
  registry->counter("xshard.slices_committed").Set(total.staged_commits);
  registry->counter("xshard.slices_aborted").Set(total.staged_aborts);
  registry->counter("xshard.slices_resolved").Set(total.staged_resolved);
  for (DcId dc = 0; dc < n; ++dc) {
    double held = 0.0;
    for (int s = 0; s < num_shards(); ++s) {
      held += static_cast<double>(node(dc, s).staged_hold_count());
    }
    registry->gauge("node.dc" + std::to_string(dc) + ".staged_holds")
        .Set(held);
  }
  // Per-shard commit volume, so load imbalance across the partition is
  // visible in reports.
  for (int s = 0; s < num_shards(); ++s) {
    const NodeCounters c = PlaneCounters(s);
    const std::string prefix = "shard.s" + std::to_string(s);
    registry->counter(prefix + ".commits").Set(c.commits);
    registry->counter(prefix + ".staged_commits").Set(c.staged_commits);
    registry->counter(prefix + ".records_ingested").Set(c.records_ingested);
  }
}

Result<double> HeliosCluster::ReplanOffsetsFromEstimates() {
  // Every shard's node at a datacenter gossips over the same WAN, so
  // shard 0's measurements stand for the datacenter.
  const int n = config_.num_datacenters;
  lp::RttMatrix matrix(n);
  for (DcId a = 0; a < n; ++a) {
    for (DcId b = a + 1; b < n; ++b) {
      const std::optional<Duration> ab = node(a).MeasuredRttTo(b);
      const std::optional<Duration> ba = node(b).MeasuredRttTo(a);
      if (!ab.has_value() || !ba.has_value()) {
        return Status::Unavailable("no RTT measured yet between dc" +
                                   std::to_string(a) + " and dc" +
                                   std::to_string(b));
      }
      matrix.Set(a, b, ToMillis(*ab + *ba) / 2.0);
    }
  }
  auto mao = lp::SolveMao(matrix);
  if (!mao.ok()) return mao.status();
  const auto offsets = lp::EvenSplitOffsetsUs(mao.value());
  for (int s = 0; s < num_shards(); ++s) {
    for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
      node(dc, s).SetCommitOffsetRow(offsets[static_cast<size_t>(dc)]);
    }
  }
  return lp::AverageLatency(mao.value());
}

}  // namespace helios::core
