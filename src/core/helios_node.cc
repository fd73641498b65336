#include "core/helios_node.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/mutation.h"

namespace helios::core {

namespace {

/// Minimum spacing of hedged catch-up pulls to the best-informed healthy
/// peer while any datacenter is suspected.
constexpr Duration kHedgeInterval = Millis(100);

}  // namespace

HeliosNode::HeliosNode(DcId id, const HeliosConfig& config,
                       LogProtocolKind kind, sim::Scheduler* scheduler,
                       sim::Clock* clock, SendFn send)
    : id_(id),
      config_(config),
      kind_(kind),
      scheduler_(scheduler),
      clock_(clock),
      send_(std::move(send)),
      service_queue_(scheduler),
      log_(id, config.num_datacenters),
      clock_discipline_(id, config.num_datacenters, config.log_interval) {
  HELIOS_CHECK(id >= 0 && id < config.num_datacenters,
               "node id " + std::to_string(id) + " outside " +
                   std::to_string(config.num_datacenters) + " datacenters");
  next_txn_seq_ = config_.txn_seq_start;
  HELIOS_CHECK(kind_ != LogProtocolKind::kMessageFutures ||
                   config_.fault_tolerance == 0,
               "Message Futures runs with f = 0");
  if (config_.health_enabled) {
    peer_health_ = std::make_unique<health::PeerHealth>(
        config_.num_datacenters, id_);
    remote_suspects_.resize(static_cast<size_t>(config_.num_datacenters));
    suspect_watermark_.assign(static_cast<size_t>(config_.num_datacenters),
                              kMinTimestamp);
    fence_.assign(static_cast<size_t>(config_.num_datacenters),
                  kMinTimestamp);
  }
}

void HeliosNode::set_clock_step_sink(ClockDiscipline::StepSink sink) {
  clock_discipline_.set_sink(std::move(sink));
}

void HeliosNode::SetCommitOffsetRow(std::vector<Duration> row) {
  HELIOS_CHECK(static_cast<int>(row.size()) == config_.num_datacenters,
               "offset row of " + std::to_string(row.size()) + " entries for " +
                   std::to_string(config_.num_datacenters) + " datacenters");
  offset_row_override_ = std::move(row);
}

void HeliosNode::SetObservability(obs::TraceRecorder* trace,
                                  obs::MetricsRegistry* metrics) {
  trace_ = trace;
  if (metrics != nullptr) {
    h_queue_wait_us_ = &metrics->histogram("txn.queue_wait_us");
    h_commit_wait_us_ = &metrics->histogram("txn.commit_wait_us");
    h_commit_total_us_ = &metrics->histogram("txn.commit_total_us");
    h_abort_total_us_ = &metrics->histogram("txn.abort_total_us");
  } else {
    h_queue_wait_us_ = nullptr;
    h_commit_wait_us_ = nullptr;
    h_commit_total_us_ = nullptr;
    h_abort_total_us_ = nullptr;
  }
}

Duration HeliosNode::OffsetTo(DcId x) const {
  if (!offset_row_override_.empty()) {
    return offset_row_override_[static_cast<size_t>(x)];
  }
  return config_.commit_offset(id_, x);
}

void HeliosNode::Start() {
  if (started_) return;  // A recovered node restarts its loops exactly once.
  started_ = true;
  // Stagger the first transmission so datacenters do not tick in lockstep.
  const Duration stagger =
      config_.log_interval * id_ / std::max(1, config_.num_datacenters);
  scheduler_->After(config_.log_interval + stagger,
                    Guarded([this]() { SendToAllPeers(); }));
  scheduler_->After(HeliosConfig::gc_interval, Guarded([this]() { RunGc(); }));
}

// --- Client-facing handlers -------------------------------------------------

void HeliosNode::HandleRead(const Key& key, ReadCallback reply) {
  service_queue_.Submit(config_.service.read,
                        Guarded([this, key, reply = std::move(reply)]() {
                          if (down_) return;
                          if (recovering_) {
                            reply(Status::Unavailable("recovering"));
                            return;
                          }
                          ++counters_.read_requests;
                          reply(store_.Read(key));
                        }));
}

void HeliosNode::HandleReadOnly(std::vector<Key> keys, ReadOnlyCallback reply) {
  const Duration cost =
      config_.service.read * static_cast<Duration>(keys.size());
  service_queue_.Submit(
      cost, Guarded([this, keys = std::move(keys), reply = std::move(reply)]() {
        if (down_) return;
        if (recovering_) {
          std::vector<Result<VersionedValue>> out(
              keys.size(), Result<VersionedValue>(
                               Status::Unavailable("recovering")));
          reply(std::move(out));
          return;
        }
        ++counters_.read_only_txns;
        // The node is single-threaded, so reading every key's latest
        // applied version within one event *is* a consistent snapshot of
        // this datacenter's applied state — the "snapshot point" of
        // Appendix B. Read-only transactions never contend with
        // read-write transactions and never enter the commit protocol.
        std::vector<Result<VersionedValue>> out;
        out.reserve(keys.size());
        for (const Key& k : keys) out.push_back(store_.Read(k));
        reply(std::move(out));
      }));
}

void HeliosNode::HandleCommitRequest(std::vector<ReadEntry> reads,
                                     std::vector<WriteEntry> writes,
                                     CommitCallback reply) {
  const sim::SimTime arrived = scheduler_->Now();
  if (trace_ != nullptr) {
    trace_->Instant(obs::EventKind::kTxnRequest, id_, TxnId{}, arrived);
  }
  service_queue_.Submit(config_.service.commit_request,
                        Guarded([this, arrived, reads = std::move(reads),
                                 writes = std::move(writes),
                                 reply = std::move(reply)]() mutable {
                          ProcessCommitRequest(std::move(reads),
                                               std::move(writes),
                                               std::move(reply), arrived);
                        }));
}

void HeliosNode::HandleStagedCommit(const TxnId& id,
                                    std::vector<ReadEntry> reads,
                                    std::vector<WriteEntry> writes,
                                    StagedAdmitCallback admitted,
                                    StagedCommitCallback prepared) {
  const sim::SimTime arrived = scheduler_->Now();
  if (trace_ != nullptr) {
    trace_->Instant(obs::EventKind::kTxnRequest, id_, id, arrived);
  }
  service_queue_.Submit(config_.service.commit_request,
                        Guarded([this, id, arrived, reads = std::move(reads),
                                 writes = std::move(writes),
                                 admitted = std::move(admitted),
                                 prepared = std::move(prepared)]() mutable {
                          ProcessStagedCommit(id, std::move(reads),
                                              std::move(writes),
                                              std::move(admitted),
                                              std::move(prepared), arrived);
                        }));
}

void HeliosNode::HandleRaiseStagedWait(const TxnId& id, Timestamp wait_base) {
  service_queue_.Submit(config_.service.log_record,
                        Guarded([this, id, wait_base]() {
                          ProcessRaiseStagedWait(id, wait_base);
                        }));
}

void HeliosNode::HandleFinalizeStaged(const TxnId& id, bool commit,
                                      Timestamp commit_ts) {
  service_queue_.Submit(config_.service.log_record,
                        Guarded([this, id, commit, commit_ts]() {
                          ProcessFinalizeStaged(id, commit, commit_ts);
                        }));
}

void HeliosNode::HandleEnvelope(EnvelopePtr env) {
  if (down_) return;  // A crashed datacenter drops everything.
  if (trace_ != nullptr) {
    trace_->Instant(obs::EventKind::kEnvelopeRecv, id_, TxnId{},
                    scheduler_->Now(), env->log.from);
  }
  const DcId from = env->log.from;
  if (env->kind == EnvelopeKind::kGossip && from >= 0 &&
      from < env->log.table.size()) {
    // Gossip carries the sender's clock at send time as T[from][from]; the
    // catch-up kinds are sent off the tick and may carry an older stamp.
    clock_discipline_.OnGossip(from, env->log.table.Get(from, from),
                               clock_->Now(), env->apparent_delay_us,
                               scheduler_->Now());
  }
  if (peer_health_ != nullptr && env->kind != EnvelopeKind::kAck) {
    // Every envelope but an ack is a heartbeat: acks answer our own gossip
    // and flow only under load, so counting them would shrink the fitted
    // inter-arrival time and make a quiet spell look like silence. Fed at
    // arrival (not processing) time so a backlog in our own service queue
    // never indicts a healthy peer.
    peer_health_->OnArrival(env->log.from, scheduler_->Now());
  }
  // Only the fixed per-message cost is known up front; per-record work is
  // charged inside ProcessEnvelope for *fresh* records only (recognizing a
  // retransmitted record is a constant-time timetable lookup).
  service_queue_.Submit(config_.service.log_message,
                        Guarded([this, env = std::move(env)]() {
                          ProcessEnvelope(*env);
                        }));
}

// --- Algorithm 1: commit requests -------------------------------------------

bool HeliosNode::ReadStillValid(const ReadEntry& read) const {
  auto latest = store_.Read(read.key);
  if (!latest.ok()) {
    // Key has never been written: valid only if the client saw that too.
    return !read.version_writer.valid();
  }
  return latest.value().writer == read.version_writer;
}

void HeliosNode::ProcessCommitRequest(std::vector<ReadEntry> reads,
                                      std::vector<WriteEntry> writes,
                                      CommitCallback reply,
                                      sim::SimTime arrived_sim) {
  if (down_) return;
  if (recovering_) {
    // Not yet caught up: refuse rather than decide on a stale log. The
    // client's timeout-retry loop (or its next attempt) comes back once
    // catch-up finished.
    reply(CommitOutcome{TxnId{}, false, "recovering"});
    return;
  }
  ++counters_.commit_requests;
  if (HasDuplicateWriteKey(writes)) {
    // A malformed client request: refused on arrival, before it becomes
    // a transaction.
    ++counters_.aborts_on_request;
    reply(CommitOutcome{TxnId{}, false, kDuplicateWriteAbortReason});
    return;
  }
  const TxnId id{id_, next_txn_seq_};
  next_txn_seq_ += config_.txn_seq_stride;
  TxnBodyPtr body = MakeTxnBody(id, std::move(reads), std::move(writes));

  PendingTxn pending;
  pending.arrived_sim = arrived_sim;
  pending.reply = std::move(reply);
  // The waiter fence guards plain admissions too: a parked older staged
  // slice holds no pool entry, so a stream of single-shard transactions
  // on its keys would otherwise occupy the pools at every wait-die poll
  // and starve it through its whole retry budget. The empty-map check
  // keeps every unsharded or single-shard deployment on the exact
  // pre-sharding path.
  if (!staged_waiting_.empty() && OlderWaiterConflicts(id, *body)) {
    ++counters_.aborts_on_request;
    RecordDecisionTrace(id, false, "conflict:waiting", arrived_sim,
                        scheduler_->Now());
    pending.reply(CommitOutcome{id, false, "conflict:waiting"});
    return;
  }
  std::string abort_reason;
  if (!AdmitPreparing(id, body, &pending, &abort_reason)) {
    ++counters_.aborts_on_request;
    pending.reply(CommitOutcome{id, false, abort_reason});
    return;
  }

  // With sufficiently negative commit offsets the wait may already be
  // satisfied (the paper's Figure 2 scenario for co < 0).
  TryCommitAll();
}

namespace {

/// Wait-die retry schedule for staged admissions: poll the pools every
/// interval, give up (die) after the budget. The budget must outlast a
/// younger blocker's whole prepared-hold window — commit wait plus the
/// coordinator finalize round — or the oldest transaction aborts right
/// before its blocker would have released.
constexpr Duration kStagedRetryInterval = Micros(500);
constexpr int kStagedRetryBudget = 400;  // x interval = 200ms of patience.

/// Age order for wait-die: coordinator sequence numbers grow over time at
/// every datacenter, so (seq, origin) is a total order that roughly tracks
/// start order; the origin tie-break only arbitrates cross-datacenter ties.
bool MintedAfter(const TxnId& a, const TxnId& b) {
  if (a.seq != b.seq) return a.seq > b.seq;
  return a.origin > b.origin;
}

}  // namespace

void HeliosNode::ProcessStagedCommit(const TxnId& id,
                                     std::vector<ReadEntry> reads,
                                     std::vector<WriteEntry> writes,
                                     StagedAdmitCallback admitted,
                                     StagedCommitCallback prepared,
                                     sim::SimTime arrived_sim) {
  if (down_) return;
  ++counters_.staged_requests;
  TryStagedAdmission(id, MakeTxnBody(id, std::move(reads), std::move(writes)),
                     std::move(admitted), std::move(prepared), arrived_sim,
                     kStagedRetryBudget);
}

bool HeliosNode::StagedConflictsAllYoungerStaged(const TxnId& id,
                                                 const TxnBody& body) const {
  std::vector<TxnBodyPtr> blockers = pt_pool_.ConflictingWriters(body);
  const std::vector<TxnBodyPtr> remote = ept_pool_.ConflictingWriters(body);
  blockers.insert(blockers.end(), remote.begin(), remote.end());
  if (blockers.empty()) return false;  // Overwritten read: waiting can't help.
  for (const TxnBodyPtr& b : blockers) {
    // Every blocker's fate resolves in bounded time — a local pending
    // transaction commits or aborts at decision time, a remote preparing
    // record is cleared by its origin's committed/aborted record within
    // about one RTT — so waiting is safe whenever age order permits it.
    if (!MintedAfter(b->id, id)) return false;
  }
  return true;
}

bool HeliosNode::OlderWaiterConflicts(const TxnId& id,
                                      const TxnBody& body) const {
  for (const auto& [wid, wbody] : staged_waiting_) {
    if (MintedAfter(wid, id)) continue;  // Younger waiters never fence.
    for (const WriteEntry& w : wbody->write_set) {
      if (body.ReadsKey(w.key) || body.WritesKey(w.key)) return true;
    }
    for (const WriteEntry& w : body.write_set) {
      if (wbody->ReadsKey(w.key)) return true;
    }
  }
  return false;
}

void HeliosNode::TryStagedAdmission(const TxnId& id, TxnBodyPtr body,
                                    StagedAdmitCallback admitted,
                                    StagedCommitCallback prepared,
                                    sim::SimTime arrived_sim,
                                    int retries_left) {
  staged_waiting_.erase(id);  // Re-registered below if it parks again.
  const bool doomed = staged_doomed_.erase(id) > 0;
  if (down_) return;
  if (doomed) {
    // The coordinator finalize-aborted this slice while it was parked
    // (see ProcessFinalizeStaged): abort instead of admitting.
    ++counters_.staged_aborts;
    admitted(StagedAdmitOutcome{id, false, "xshard:abort", kMinTimestamp});
    return;
  }
  if (recovering_) {
    ++counters_.staged_aborts;
    admitted(StagedAdmitOutcome{id, false, "recovering", kMinTimestamp});
    return;
  }
  if (OlderWaiterConflicts(id, *body)) {
    ++counters_.staged_aborts;
    admitted(StagedAdmitOutcome{id, false, "conflict:waiting", kMinTimestamp});
    return;
  }
  PendingTxn pending;
  pending.arrived_sim = arrived_sim;
  pending.staged = true;
  pending.wait_armed = false;
  pending.staged_reply = std::move(prepared);
  std::string abort_reason;
  if (!AdmitPreparing(id, body, &pending, &abort_reason)) {
    if (retries_left > 0 && StagedConflictsAllYoungerStaged(id, *body)) {
      // Wait arm of wait-die (see TryStagedAdmission's declaration). The
      // recheck runs off the scheduler, not the service queue: it is a
      // local pool probe, and queueing it would serialize behind the very
      // admissions it yields to.
      ++counters_.staged_waits;
      staged_waiting_[id] = body;
      scheduler_->After(
          kStagedRetryInterval,
          Guarded([this, id, body = std::move(body),
                   admitted = std::move(admitted),
                   prepared = std::move(pending.staged_reply),
                   arrived_sim, retries_left]() mutable {
            TryStagedAdmission(id, std::move(body), std::move(admitted),
                               std::move(prepared), arrived_sim,
                               retries_left - 1);
          }));
      return;
    }
    ++counters_.staged_aborts;
    admitted(StagedAdmitOutcome{id, false, abort_reason, kMinTimestamp});
    return;
  }
  // No TryCommitAll here: the slice cannot prepare before the coordinator
  // raises its wait base, and nothing else changed for other transactions.
  admitted(StagedAdmitOutcome{id, true, "", pending_.at(id).request_ts});
}

void HeliosNode::ProcessRaiseStagedWait(const TxnId& id, Timestamp wait_base) {
  if (down_) return;
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // Already aborted (victim / doomed).
  PendingTxn& t = it->second;
  if (!t.staged || t.wait_armed) return;
  for (DcId x = 0; x < config_.num_datacenters; ++x) {
    if (x == id_) continue;
    t.kts[static_cast<size_t>(x)] =
        std::max(t.kts[static_cast<size_t>(x)], wait_base + OffsetTo(x));
  }
  t.wait_armed = true;
  TryCommitAll();
}

bool HeliosNode::AdmitPreparing(const TxnId& id, const TxnBodyPtr& body,
                                PendingTxn* pending,
                                std::string* abort_reason) {
  const sim::SimTime arrived_sim = pending->arrived_sim;
  const sim::SimTime processed_sim = scheduler_->Now();
  pending->processed_sim = processed_sim;
  if (trace_ != nullptr) {
    trace_->Span(obs::EventKind::kTxnQueue, id_, id, arrived_sim,
                 processed_sim);
  }
  if (h_queue_wait_us_ != nullptr) {
    h_queue_wait_us_->Observe(
        static_cast<double>(processed_sim - arrived_sim));
  }

  // Lines 2-3: conflict with any preparing transaction, local or remote.
  if (!pt_pool_.ConflictingWriters(*body).empty() ||
      !ept_pool_.ConflictingWriters(*body).empty()) {
    *abort_reason = "conflict:preparing";
    RecordDecisionTrace(id, false, *abort_reason, arrived_sim, processed_sim);
    return false;
  }
  // Lines 4-6: has anything in the read set been overwritten?
  for (const ReadEntry& r : body->read_set) {
    if (!ReadStillValid(r)) {
      *abort_reason = "overwritten:" + r.key;
      RecordDecisionTrace(id, false, *abort_reason, arrived_sim,
                          processed_sim);
      return false;
    }
  }

  // Lines 7-9: timestamp and knowledge timestamps (Eq. 1).
  const Timestamp q = NextRecordTs();
  pending->body = body;
  pending->request_ts = q;
  pending->kts.assign(static_cast<size_t>(config_.num_datacenters),
                      kMinTimestamp);
  for (DcId x = 0; x < config_.num_datacenters; ++x) {
    if (x == id_) continue;
    pending->kts[static_cast<size_t>(x)] = q + OffsetTo(x);
  }

  // Line 10: append the preparing record and pool the transaction.
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kPreparing;
  rec.ts = q;
  rec.origin = id_;
  rec.body = body;
  const Status append = AppendOwn(rec);
  HELIOS_CHECK(append.ok(), append.ToString());
  if (trace_ != nullptr) {
    trace_->Instant(obs::EventKind::kTxnAppend, id_, id, scheduler_->Now());
  }

  pt_pool_.Add(body);
  pending_by_ts_.emplace(std::make_pair(q, id), id);
  pending_.emplace(id, std::move(*pending));
  return true;
}

// --- Algorithm 2: log processing ---------------------------------------------

std::shared_ptr<Envelope> HeliosNode::AcquireEnvelope() {
  auto env = envelope_pool_.Acquire(config_.num_datacenters);
  env->ResetForReuse();
  return env;
}

void HeliosNode::ProcessEnvelope(const Envelope& env) {
  if (down_) return;
  MergeRefusals(env.refusals);

  std::vector<rdict::LogRecord> fresh = log_.Ingest(env.log);
  counters_.records_ingested += fresh.size();
  if (recovering_) catchup_records_ += fresh.size();
  service_queue_.Charge((config_.service.log_record + FsyncPenalty()) *
                        static_cast<Duration>(fresh.size()));

  if (ReactionEnabled() && env.log.from >= 0 &&
      env.log.from < config_.num_datacenters) {
    // The sender's whole current suspicion set rides every envelope;
    // absence is retraction. The sender-clock watermark keeps a reordered
    // (fault-injected) old envelope from reviving retracted suspicions.
    const DcId from = env.log.from;
    const Timestamp sender_clock = env.log.table.Get(from, from);
    if (sender_clock >= suspect_watermark_[static_cast<size_t>(from)]) {
      suspect_watermark_[static_cast<size_t>(from)] = sender_clock;
      std::set<DcId>& targets = remote_suspects_[static_cast<size_t>(from)];
      targets.clear();
      for (const Suspicion& susp : env.suspicions) {
        if (susp.target >= 0 && susp.target < config_.num_datacenters &&
            susp.target != from) {
          targets.insert(susp.target);
        }
      }
    }
  }
  if (wal_ != nullptr) {
    for (const rdict::LogRecord& rec : fresh) {
      CheckJournaled(wal_->AppendRecord(rec));
    }
  }

  bool sender_prepared = false;  // Fresh preparing records of the sender's.
  for (const rdict::LogRecord& rec : fresh) {
    if (rec.origin == id_) continue;  // Lines 2-3: skip local records.

    // Lines 4-6: the incoming write set aborts conflicting local
    // preparing transactions. Held cross-shard intents are exempt: they
    // already passed their commit wait, so by Rule 1 a conflicting record
    // ordered before their knowledge point would have arrived while they
    // were still pending (and killed them then); this conflicter is later
    // and aborts at its own origin when our preparing record lands there —
    // the same immunity a plain transaction gains by committing at the
    // instant its wait is satisfied.
    for (const TxnBodyPtr& victim : pt_pool_.Victims(*rec.body)) {
      if (staged_holds_.count(victim->id) > 0) continue;
      AbortPending(victim->id, "conflict:remote",
                   &NodeCounters::aborts_by_remote);
    }

    if (rec.type == rdict::RecordType::kPreparing) {
      // Lines 7-8.
      ept_pool_.Add(rec.body);
      sender_prepared = sender_prepared || rec.origin == env.log.from;
      if (config_.fault_tolerance > 0) {
        // Grace-time acknowledgment (Section 4.4): refuse to acknowledge a
        // record that arrived later than q(t) + GT on our clock.
        bool refuse = clock_->Now() > rec.ts + config_.grace_time;
        bool by_suspicion = false;
        if (ReactionEnabled() && rec.origin >= 0 &&
            rec.origin < config_.num_datacenters) {
          ept_prepare_ts_[rec.body->id] = rec.ts;
          // While suspecting the origin, refuse everything it prepares —
          // the standing refusal is what makes skipping its knowledge in
          // the commit wait serializable. After re-admission, the fence
          // keeps refusing records the origin timestamped during its gray
          // episode but only managed to push out afterwards.
          if (suspected_.count(rec.origin) > 0 ||
              rec.ts < fence_[static_cast<size_t>(rec.origin)]) {
            refuse = true;
            by_suspicion = true;
          }
        }
        if (refuse) {
          RefusalState& state = refusals_[rec.body->id];
          state.txn_ts = rec.ts;
          if (state.refusers.insert(id_).second) {
            ++counters_.refusals_issued;
            if (by_suspicion) ++counters_.suspicion_refusals;
          }
        }
      }
    } else {
      // Lines 9-13.
      if (rec.committed) {
        DeferApplyIo(*rec.body);
        store_.ApplyTxn(*rec.body, rec.version_ts);
      }
      ept_pool_.Remove(rec.body->id);
      refusals_.erase(rec.body->id);
      ept_prepare_ts_.erase(rec.body->id);
    }
  }

  if (env.kind == EnvelopeKind::kGossip && sender_prepared &&
      config_.fault_tolerance > 0) {
    SendAck(env.log.from);
  } else if (env.kind == EnvelopeKind::kCatchupRequest) {
    // A recovering peer sent us its restored timetable (merged by the
    // Ingest above); BuildMessageFor now computes exactly the suffix it
    // is missing. Answer immediately instead of waiting for the next
    // gossip tick.
    auto resp = AcquireEnvelope();
    log_.BuildMessageInto(env.log.from, &resp->log);
    resp->refusals = RefusalsSnapshot();
    resp->kind = EnvelopeKind::kCatchupResponse;
    SendEnvelope(env.log.from, std::move(resp));
  } else if (env.kind == EnvelopeKind::kCatchupResponse && recovering_) {
    catchup_pending_.erase(env.log.from);
    if (catchup_pending_.empty()) FinishCatchup();
  }

  // Algorithm 3 runs whenever new knowledge arrives.
  TryCommitAll();
}

void HeliosNode::SendAck(DcId to) {
  // Rule 3 counts us toward `to`'s quorum once `to`'s table shows
  // T[self][to] >= q(t). The ingest above already decided condition (3)
  // for every fresh record — acknowledge or refuse — so the answer leaves
  // now rather than at our next tick. No AdvanceOwnClock: the ack promises
  // nothing our last tick or last record did not, which keeps our records'
  // timestamps where the tick put them. Only gossip is acked, so an ack
  // never answers an ack and acks never outnumber the gossip received.
  auto ack = AcquireEnvelope();
  log_.BuildMessageInto(to, &ack->log);
  ack->refusals = RefusalsSnapshot();
  StampSuspicions(ack.get());
  ack->kind = EnvelopeKind::kAck;
  ++counters_.acks_sent;
  SendEnvelope(to, std::move(ack));
}

// --- Algorithm 3: committing preparing transactions ---------------------------

Timestamp HeliosNode::EtaBound(DcId target) const {
  // Eq. 3: eta = min over kappa of T[C][C] - GT, with kappa the n-f
  // best-informed datacenters *excluding the target* (the quorum-
  // intersection argument needs kappa to never contain the datacenter
  // whose knowledge is being inferred).
  const int n = config_.num_datacenters;
  const int f = config_.fault_tolerance;
  if (f <= 0 || n - f > n - 1) return kMinTimestamp;
  std::vector<Timestamp> clocks;
  clocks.reserve(static_cast<size_t>(n) - 1);
  for (DcId c = 0; c < n; ++c) {
    if (c != target) clocks.push_back(log_.table().Get(c, c));
  }
  std::nth_element(clocks.begin(), clocks.begin() + (n - f - 1), clocks.end(),
                   std::greater<Timestamp>());
  const Timestamp kth = clocks[static_cast<size_t>(n - f - 1)];
  if (kth == kMinTimestamp) return kMinTimestamp;
  return kth - config_.grace_time;
}

Timestamp HeliosNode::EffectiveKnowledge(DcId peer) const {
  const Timestamp direct = log_.table().Get(id_, peer);
  if (config_.fault_tolerance <= 0) return direct;
  return std::max(direct, EtaBound(peer));  // Eq. 2.
}

bool HeliosNode::CommitWaitSatisfied(const PendingTxn& t,
                                     bool* degraded) const {
  const int n = config_.num_datacenters;
  if (kind_ == LogProtocolKind::kMessageFutures) {
    // Message Futures: every peer has acknowledged our log up to q(t),
    // i.e. the log carrying t made a full round trip to everyone.
    for (DcId b = 0; b < n; ++b) {
      if (b == id_) continue;
      if (log_.table().Get(b, id_) < t.request_ts) return false;
    }
    return true;
  }
  // Helios Rule 2 / Rule 3 condition (1).
  if (common::ActiveMutation() == common::Mutation::kSkipCommitWait) {
    return true;  // Seeded bug for the src/check mutation test.
  }
  for (DcId b = 0; b < n; ++b) {
    if (b == id_) continue;
    if (EffectiveKnowledge(b) < t.kts[static_cast<size_t>(b)]) {
      if (!DegradedSkipAllowed(b, t.kts[static_cast<size_t>(b)])) {
        return false;
      }
      if (degraded != nullptr) *degraded = true;
    }
  }
  return true;
}

bool HeliosNode::DegradedSkipAllowed(DcId s, Timestamp deadline) const {
  if (!ReactionEnabled()) return false;
  if (suspected_.count(s) == 0) return false;
  // Safety argument: a skip is licensed only by >= n-f datacenters (this
  // one included, the suspect excluded) that (a) currently suspect s and
  // (b) have clocks past the deadline. Each quorum member refuses every
  // preparing record from s while suspecting (plus retroactively refused
  // s's pooled records at onset, and fences records below its clock after
  // re-admission), so any conflicting transaction of s with q < deadline
  // faces n-f standing refusers — more than the (n-1)-f Rule 3 tolerates —
  // and is doomed. Skipping s's knowledge therefore cannot let a
  // conflicting commit of s slip past this transaction. A member's
  // suspicion arrived on an envelope that, by Replicated Dictionary
  // causality, carried every s-record the member had acknowledged before
  // suspecting, so knowledge of s below the member's clock is already
  // folded into our table.
  const int n = config_.num_datacenters;
  const int f = config_.fault_tolerance;
  int quorum = 0;
  if (clock_->Now() >= deadline) ++quorum;  // This node.
  for (DcId c = 0; c < n; ++c) {
    if (c == id_ || c == s) continue;
    if (remote_suspects_[static_cast<size_t>(c)].count(s) > 0 &&
        log_.table().Get(c, c) >= deadline) {
      ++quorum;
    }
  }
  return quorum >= n - f;
}

bool HeliosNode::AckQuorumSatisfied(const PendingTxn& t, bool* doomed) const {
  *doomed = false;
  const int n = config_.num_datacenters;
  const int f = config_.fault_tolerance;
  if (f <= 0) return true;

  const auto refusal_it = refusals_.find(t.body->id);
  const std::set<DcId>* refusers =
      refusal_it == refusals_.end() ? nullptr : &refusal_it->second.refusers;
  if (refusers != nullptr &&
      static_cast<int>(refusers->size()) > (n - 1) - f) {
    // Too many peers refused within the grace time: the f-acknowledgment
    // quorum can never form; the transaction is invalidated.
    *doomed = true;
    return false;
  }
  int acks = 0;
  for (DcId c = 0; c < n; ++c) {
    if (c == id_) continue;
    if (refusers != nullptr && refusers->count(c) > 0) continue;
    // Rule 3 condition (2): C has received our log up to q(t). Condition
    // (3) — receipt within the grace time — is enforced by C itself, which
    // gossips a refusal instead of counting as an acknowledger.
    if (log_.table().Get(c, id_) >= t.request_ts) ++acks;
  }
  return acks >= f;
}

void HeliosNode::TryCommitAll() {
  // Oldest-first; collect decisions before acting because commit/abort
  // mutate the pending maps.
  std::vector<std::pair<TxnId, bool>> to_commit;  // (txn, degraded?)
  std::vector<TxnId> to_doom;
  for (const auto& [key, id] : pending_by_ts_) {
    const PendingTxn& t = pending_.at(id);
    // A staged slice waits for the coordinator's transaction-wide base
    // before its commit wait means anything (HandleRaiseStagedWait).
    if (t.staged && !t.wait_armed) continue;
    bool doomed = false;
    const bool acks = AckQuorumSatisfied(t, &doomed);
    if (doomed) {
      to_doom.push_back(id);
      continue;
    }
    bool degraded = false;
    if (!CommitWaitSatisfied(t, &degraded)) continue;
    if (!acks) continue;
    to_commit.emplace_back(id, degraded);
  }
  for (const TxnId& id : to_doom) {
    AbortPending(id, "liveness:refused", &NodeCounters::aborts_liveness);
  }
  for (const auto& [id, degraded] : to_commit) {
    if (degraded) ++counters_.degraded_commits;
    CommitPending(id);
  }
}

void HeliosNode::RecordDecisionTrace(const TxnId& id, bool committed,
                                     const std::string& reason,
                                     sim::SimTime arrived_sim,
                                     sim::SimTime wait_start_sim) {
  const sim::SimTime now = scheduler_->Now();
  if (trace_ != nullptr) {
    if (committed) {
      trace_->Span(obs::EventKind::kCommitWait, id_, id, wait_start_sim, now);
      trace_->Instant(obs::EventKind::kTxnCommit, id_, id, now);
    } else {
      trace_->Instant(obs::EventKind::kTxnAbort, id_, id, now, kInvalidDc,
                      reason);
    }
    trace_->Span(obs::EventKind::kTxnServer, id_, id, arrived_sim, now,
                 kInvalidDc, committed ? std::string() : reason);
  }
  if (committed) {
    if (h_commit_wait_us_ != nullptr) {
      h_commit_wait_us_->Observe(static_cast<double>(now - wait_start_sim));
    }
    if (h_commit_total_us_ != nullptr) {
      h_commit_total_us_->Observe(static_cast<double>(now - arrived_sim));
    }
  } else if (h_abort_total_us_ != nullptr) {
    h_abort_total_us_->Observe(static_cast<double>(now - arrived_sim));
  }
}

HeliosNode::PendingMap::iterator HeliosNode::FindPending(const TxnId& id) {
  auto it = pending_.find(id);
  HELIOS_CHECK(it != pending_.end(), "dc" + std::to_string(id_) + ": txn " +
                                         id.ToString() + " is not pending");
  return it;
}

void HeliosNode::FinishTxn(const TxnId& id) {
  auto it = FindPending(id);
  pending_by_ts_.erase(std::make_pair(it->second.request_ts, id));
  pt_pool_.Remove(id);
  refusals_.erase(id);
  pending_.erase(it);
}

Timestamp HeliosNode::DependencyBumpedVersionTs(const TxnBody& body) {
  return std::max(clock_->Now(), store_.MaxVersionTsOf(body) + 1);
}

void HeliosNode::PrepareStaged(const TxnId& id) {
  auto it = FindPending(id);
  PendingTxn pending = std::move(it->second);
  // Out of the pending maps (Algorithm 3 is done with it) but NOT out of
  // pt_pool_: the held intent keeps blocking conflicting admissions until
  // the coordinator's decision arrives.
  pending_by_ts_.erase(std::make_pair(pending.request_ts, id));
  refusals_.erase(id);
  pending_.erase(it);

  StagedHold hold;
  hold.body = pending.body;
  hold.proposed_ts = DependencyBumpedVersionTs(*pending.body);
  hold.arrived_sim = pending.arrived_sim;
  hold.processed_sim = pending.processed_sim;
  const Timestamp proposed = hold.proposed_ts;
  staged_holds_.emplace(id, std::move(hold));
  ++counters_.staged_prepared;
  pending.staged_reply(StagedCommitOutcome{id, true, "", proposed});
}

void HeliosNode::ProcessFinalizeStaged(const TxnId& id, bool commit,
                                       Timestamp commit_ts) {
  if (down_) return;
  if (!commit) {
    // The coordinator may abort a slice that is still pending (a sibling
    // shard failed admission before this slice ever prepared).
    auto pit = pending_.find(id);
    if (pit != pending_.end() && pit->second.staged) {
      AbortPending(id, "xshard:abort", &NodeCounters::aborts_liveness);
      return;
    }
    // ... or still parked in wait-die. The retry runs off the scheduler,
    // not this FIFO service queue, so it can fire after this finalize and
    // admit into a transaction the coordinator has already given up on —
    // an intent nobody is left to finalize, wedging its keys forever.
    // Doom it instead: the retry consumes the marker and aborts.
    if (staged_waiting_.erase(id) > 0) {
      staged_doomed_.insert(id);
      return;
    }
  }
  auto it = staged_holds_.find(id);
  if (it == staged_holds_.end()) return;  // Slice already self-aborted.
  StagedHold hold = std::move(it->second);
  staged_holds_.erase(it);
  pt_pool_.Remove(id);

  if (commit) {
    DeferApplyIo(*hold.body);
    store_.ApplyTxn(*hold.body, commit_ts);
    ++counters_.staged_commits;
  } else {
    ++counters_.staged_aborts;
  }
  const Status append =
      AppendFinished(hold.body, commit, commit ? commit_ts : kMinTimestamp);
  HELIOS_CHECK(append.ok(), append.ToString());
  // No history recording here: the coordinator records the whole
  // cross-shard transaction once, with the full body, at decision time.
  RecordDecisionTrace(id, commit, commit ? std::string() : "xshard:abort",
                      hold.arrived_sim, hold.processed_sim);
}

void HeliosNode::CommitPending(const TxnId& id) {
  auto it = FindPending(id);
  if (it->second.staged) {
    // A cross-shard slice does not commit unilaterally: hold the prepared
    // intent and let the coordinator finalize once every shard acked.
    PrepareStaged(id);
    return;
  }
  TxnBodyPtr body = it->second.body;
  CommitCallback reply = std::move(it->second.reply);
  RecordDecisionTrace(id, /*committed=*/true, "", it->second.arrived_sim,
                      it->second.processed_sim);
  FinishTxn(id);

  // The whole state transition — apply, finished record, bookkeeping — is
  // atomic at decision time so no request can observe a committed-but-
  // invisible transaction. The client hears at once, as on every other
  // commit path; the storage I/O still occupies the server, but as
  // deferred work that later requests overtake.
  const Timestamp version_ts = DependencyBumpedVersionTs(*body);
  store_.ApplyTxn(*body, version_ts);
  const Status append = AppendFinished(body, /*committed=*/true, version_ts);
  HELIOS_CHECK(append.ok(), append.ToString());

  ++counters_.commits;
  if (history_ != nullptr) {
    history_->RecordCommit(CommittedTxn{body->id, id_, version_ts, body});
  }
  DeferApplyIo(*body);
  reply(CommitOutcome{body->id, true, ""});
}

void HeliosNode::AbortPending(const TxnId& id, const std::string& reason,
                              uint64_t NodeCounters::* counter) {
  auto it = FindPending(id);
  TxnBodyPtr body = it->second.body;
  const bool staged = it->second.staged;
  CommitCallback reply = std::move(it->second.reply);
  StagedCommitCallback staged_reply = std::move(it->second.staged_reply);
  RecordDecisionTrace(id, /*committed=*/false, reason,
                      it->second.arrived_sim, it->second.processed_sim);
  FinishTxn(id);
  const Status append =
      AppendFinished(body, /*committed=*/false, kMinTimestamp);
  HELIOS_CHECK(append.ok(), append.ToString());

  if (staged) {
    // A pre-prepare slice may still abort unilaterally (the coordinator
    // has not committed anything until every shard acks).
    ++counters_.staged_aborts;
    staged_reply(StagedCommitOutcome{id, false, reason, kMinTimestamp});
    return;
  }
  counters_.*counter += 1;
  reply(CommitOutcome{id, false, reason});
}

Status HeliosNode::Restore(const std::vector<rdict::LogRecord>& records,
                           const rdict::Timetable* timetable) {
  if (counters_.commit_requests != 0 || counters_.staged_requests != 0 ||
      log_.total_appended() != 0) {
    return Status::FailedPrecondition("Restore must run on a fresh node");
  }
  // Pass 1: rebuild the log and track which transactions finished.
  std::map<TxnId, rdict::LogRecord> preparing;
  Timestamp max_own_ts = kMinTimestamp;
  for (const rdict::LogRecord& rec : records) {
    log_.RestoreRecord(rec);
    if (rec.origin == id_) max_own_ts = std::max(max_own_ts, rec.ts);
    if (rec.type == rdict::RecordType::kPreparing) {
      preparing.emplace(rec.body->id, rec);
    } else {
      preparing.erase(rec.body->id);
      if (rec.committed) {
        store_.ApplyTxn(*rec.body, rec.version_ts);
      }
    }
    // Only records in this node's own residue class advance the sequence:
    // a sharded deployment's coordinator-minted ids (residue 0) pass
    // through this log too and must not derail the local stream.
    if (rec.origin == id_ &&
        rec.body->id.seq % config_.txn_seq_stride ==
            config_.txn_seq_start % config_.txn_seq_stride &&
        rec.body->id.seq >= next_txn_seq_) {
      next_txn_seq_ = rec.body->id.seq + config_.txn_seq_stride;
    }
  }
  if (timetable != nullptr) {
    log_.RestoreTimetable(*timetable);
  }
  // Never reuse a persisted timestamp, and promise the restart instant.
  // Promises sent before the crash are not journaled, but none exceeds the
  // restart clock; without this one, a record appended below (the
  // presumed aborts of pass 2 included) could land under a promise every
  // peer already holds, and no peer would ever ingest it.
  clock_->AdvanceTo(log_.KnownUpTo(id_));
  if (clock_discipline_.has_sink() && clock_->Now() < clock_->floor()) {
    // A restarted process's clock may start below the promises it made
    // before the crash (a live clock counts from its own loop's start),
    // which would freeze NowUnique at the floor and hold every peer's
    // commits on this node until the clock caught up.
    clock_discipline_.Step(clock_->floor() - clock_->Now(), scheduler_->Now());
  }
  log_.AdvanceOwnClock(clock_->NowUnique());
  records_replayed_ = records.size();
  // The contract NextRecordTs relies on, in every build: the clock floor
  // covers every timestamp this node itself persisted, and T[self][self]
  // covers the restart clock (peers' timestamps come from their clocks
  // and do not constrain ours).
  HELIOS_CHECK(clock_->floor() >= max_own_ts &&
                   log_.KnownUpTo(id_) >= clock_->Now(),
               "dc" + std::to_string(id_) + ": restored timestamps out of " +
                   "order: floor " + std::to_string(clock_->floor()) +
                   ", own max " + std::to_string(max_own_ts) +
                   ", T[self][self] " + std::to_string(log_.KnownUpTo(id_)) +
                   ", clock " + std::to_string(clock_->Now()));

  // Pass 2: transactions still preparing. Remote ones re-enter the
  // EPTPool (their decisions will arrive through the log exchange). Our
  // own are presumed aborted: with a WAL, the finished record is durable
  // before the client sees "committed", so an unfinished own transaction
  // was never acknowledged and may abort safely — EXCEPT a cross-shard
  // intent whose coordinator durably recorded COMMITTED. The coordinator
  // replies to its client only after that durable status write, so a
  // COMMITTED verdict means the client may have observed the commit and
  // the intent must be re-finalized as committed; everything else
  // (STAGED, ABORTED, or no verdict) stays presumed-abort.
  for (const auto& [id, rec] : preparing) {
    if (rec.origin == id_) {
      StagedResolution res;
      if (staged_resolver_) res = staged_resolver_(id);
      if (res.status == StagedStatus::kCommitted) {
        store_.ApplyTxn(*rec.body, res.commit_ts);
        const Status append =
            AppendFinished(rec.body, /*committed=*/true, res.commit_ts);
        if (!append.ok()) return append;
        ++counters_.staged_commits;
        ++counters_.staged_resolved;
        continue;
      }
      const Status append =
          AppendFinished(rec.body, /*committed=*/false, kMinTimestamp);
      if (!append.ok()) return append;
      if (res.status != StagedStatus::kNone) {
        ++counters_.staged_aborts;
        ++counters_.staged_resolved;
      } else {
        ++counters_.aborts_liveness;
      }
    } else {
      ept_pool_.Add(rec.body);
      if (ReactionEnabled()) ept_prepare_ts_[id] = rec.ts;
    }
  }
  return Status::Ok();
}

Timestamp HeliosNode::NextRecordTs() const {
  // Rule 2's safety argument uses q(t) only as t's position in this log,
  // so a record needs a timestamp above everything this node has already
  // appended or promised its peers (T[self][self], raised by
  // AdvanceOwnClock on every send), not the current clock: the record is
  // invisible until the next send anyway. The one-interval floor bounds
  // how far back a record can go; without it, a record appended right
  // after a stall longer than the grace time would carry a pre-stall
  // timestamp, and every peer would refuse it.
  return std::max(log_.KnownUpTo(id_) + 1,
                  clock_->Now() - config_.log_interval);
}

void HeliosNode::DeferApplyIo(const TxnBody& body) {
  for (size_t i = 0; i < body.write_set.size(); ++i) {
    service_queue_.Defer(config_.service.write_apply);
  }
}

Status HeliosNode::AppendOwn(const rdict::LogRecord& rec) {
  if (Status append = log_.AppendLocal(rec); !append.ok()) return append;
  if (const Duration p = FsyncPenalty(); p > 0) service_queue_.Charge(p);
  if (wal_ != nullptr) CheckJournaled(wal_->AppendRecord(rec));
  return Status::Ok();
}

void HeliosNode::CheckJournaled(const Status& appended) const {
  HELIOS_CHECK(appended.ok(),
               "dc" + std::to_string(id_) + ": " + appended.ToString());
}

Status HeliosNode::AppendFinished(const TxnBodyPtr& body, bool committed,
                                  Timestamp version_ts) {
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kFinished;
  rec.committed = committed;
  rec.ts = NextRecordTs();
  rec.version_ts = version_ts;
  rec.origin = id_;
  rec.body = body;
  return AppendOwn(rec);
}

void HeliosNode::SendEnvelope(DcId to, EnvelopePtr env) {
  service_queue_.Charge(config_.service.log_message);
  ++counters_.envelopes_sent;
  if (trace_ != nullptr) {
    trace_->Instant(obs::EventKind::kEnvelopeSend, id_, TxnId{},
                    scheduler_->Now(), to);
  }
  send_(to, env);
}

// --- Background tasks ---------------------------------------------------------

void HeliosNode::SendToAllPeers() {
  if (!down_ && !Stalled()) {
    // Suspicion state is (re)evaluated on the gossip tick: detection feeds
    // passively from envelope arrivals, so piggybacking the evaluation here
    // adds no scheduled events (bit-identity of healthy runs).
    EvaluateHealth();
    clock_discipline_.Tick(scheduler_->Now());
    // Every record this node creates from here on will carry a timestamp
    // greater than this clock reading, so peers may treat our history as
    // complete up to it (essential when we are idle).
    log_.AdvanceOwnClock(clock_->NowUnique());
    const std::vector<Refusal> refusals = RefusalsSnapshot();
    for (DcId peer = 0; peer < config_.num_datacenters; ++peer) {
      if (peer == id_) continue;
      auto env = AcquireEnvelope();
      log_.BuildMessageInto(peer, &env->log);
      env->refusals = refusals;
      StampSuspicions(env.get());
      env->apparent_delay_us = clock_discipline_.ReportFor(peer);
      SendEnvelope(peer, std::move(env));
    }
  }
  scheduler_->After(config_.log_interval,
                    Guarded([this]() { SendToAllPeers(); }));
}

void HeliosNode::RunGc() {
  if (!down_ && !Stalled()) {
    log_.GarbageCollect();
    store_.TruncateVersionsBefore(clock_->Now() - kVersionRetention);
    // Drop refusal state for transactions that are long decided.
    const Timestamp horizon = clock_->Now() - 10 * config_.grace_time;
    for (auto it = refusals_.begin(); it != refusals_.end();) {
      if (it->second.txn_ts != kMinTimestamp && it->second.txn_ts < horizon &&
          pending_.find(it->first) == pending_.end()) {
        it = refusals_.erase(it);
      } else {
        ++it;
      }
    }
    // Checkpoint knowledge: piggybacking on the GC tick keeps the WAL
    // write off the event schedule (bit-identity of crash-free runs).
    if (wal_ != nullptr) CheckJournaled(wal_->AppendTimetable(log_.table()));
  }
  scheduler_->After(HeliosConfig::gc_interval, Guarded([this]() { RunGc(); }));
}

void HeliosNode::MergeRefusals(const std::vector<Refusal>& refusals) {
  for (const Refusal& r : refusals) {
    // Only track refusals that can still matter: our own pending
    // transactions or remote transactions we have not seen finish.
    RefusalState& state = refusals_[r.txn];
    state.txn_ts = std::max(state.txn_ts, r.txn_ts);
    state.refusers.insert(r.refuser);
  }
}

// --- Gray-failure health (config.health_enabled) ----------------------------

void HeliosNode::EvaluateHealth() {
  if (peer_health_ == nullptr) return;
  const sim::SimTime now = scheduler_->Now();
  for (DcId peer = 0; peer < config_.num_datacenters; ++peer) {
    if (peer == id_) continue;
    const bool suspect_now = peer_health_->Suspected(peer, now);
    const bool held = suspected_.count(peer) > 0;
    if (suspect_now && !held) {
      suspected_.emplace(peer, clock_->Now());
      ++counters_.suspicions;
      if (ReactionEnabled()) OnSuspicionOnset(peer);
    } else if (!suspect_now && held) {
      suspected_.erase(peer);
      ++counters_.readmissions;
      if (ReactionEnabled()) {
        // Re-admission fence: records the peer timestamped during its gray
        // episode but only pushes out afterwards stay refused, so degraded
        // skips already taken against it remain justified.
        fence_[static_cast<size_t>(peer)] = clock_->Now();
      }
    }
  }
  if (ReactionEnabled() && !suspected_.empty()) MaybeSendHedgedPulls();
}

void HeliosNode::OnSuspicionOnset(DcId peer) {
  // Retroactively refuse the suspect's still-preparing transactions: a
  // degraded skip is safe only while every quorum member stands refusing
  // everything the suspect could still commit below the skipped deadline.
  // (New preparing records from it are refused on ingest.)
  for (const TxnBodyPtr& body : ept_pool_.All()) {
    if (body->id.origin != peer) continue;
    const auto ts_it = ept_prepare_ts_.find(body->id);
    if (ts_it == ept_prepare_ts_.end()) continue;
    RefusalState& state = refusals_[body->id];
    state.txn_ts = ts_it->second;
    if (state.refusers.insert(id_).second) {
      ++counters_.refusals_issued;
      ++counters_.suspicion_refusals;
    }
  }
  last_hedge_ = 0;  // Hedge immediately, not kHedgeInterval from now.
}

void HeliosNode::MaybeSendHedgedPulls() {
  const sim::SimTime now = scheduler_->Now();
  if (last_hedge_ > 0 && now < last_hedge_ + kHedgeInterval) {
    return;
  }
  bool sent = false;
  for (const auto& [suspect, since] : suspected_) {
    (void)since;
    // Pull from the healthy peer whose timetable column for the suspect is
    // furthest along: a plain catch-up exchange drains whatever knowledge
    // of the suspect escaped before the gray episode, without waiting out
    // gossip ticks the slow path may be delaying.
    DcId best = kInvalidDc;
    Timestamp best_know = kMinTimestamp;
    for (DcId c = 0; c < config_.num_datacenters; ++c) {
      if (c == id_ || c == suspect) continue;
      if (suspected_.count(c) > 0) continue;
      const Timestamp know = log_.table().Get(c, suspect);
      if (best == kInvalidDc || know > best_know) {
        best = c;
        best_know = know;
      }
    }
    if (best == kInvalidDc) continue;
    if (best_know <= log_.table().Get(id_, suspect)) continue;  // Nothing new.
    auto env = AcquireEnvelope();
    log_.BuildMessageInto(best, &env->log);
    env->kind = EnvelopeKind::kCatchupRequest;
    StampSuspicions(env.get());
    ++counters_.hedged_pulls;
    SendEnvelope(best, std::move(env));
    sent = true;
  }
  if (sent) last_hedge_ = now;
}

void HeliosNode::StampSuspicions(Envelope* env) const {
  if (!ReactionEnabled() || suspected_.empty()) return;
  env->suspicions.reserve(suspected_.size());
  for (const auto& [target, since] : suspected_) {
    env->suspicions.push_back(Suspicion{target, since});
  }
}

void HeliosNode::InjectStall(Duration pause) {
  if (down_ || pause <= 0) return;
  stalled_until_ = std::max(stalled_until_, scheduler_->Now() + pause);
  // The single server is wedged for the whole pause: everything already
  // queued or arriving during the stall waits it out.
  service_queue_.Charge(pause);
}

void HeliosNode::InjectFsyncStall(Duration per_record, Duration window) {
  if (down_ || per_record <= 0 || window <= 0) return;
  fsync_stall_until_ =
      std::max(fsync_stall_until_, scheduler_->Now() + window);
  fsync_penalty_ = per_record;
}

double HeliosNode::HealthPhi(DcId peer) const {
  if (peer_health_ == nullptr || peer == id_) return 0.0;
  return peer_health_->Phi(peer, scheduler_->Now());
}

// --- Recovery catch-up --------------------------------------------------------

void HeliosNode::BeginCatchup(
    std::function<void(const RecoveryOutcome&)> done) {
  HELIOS_CHECK(!down_ && !recovering_,
               "dc" + std::to_string(id_) + ": catch-up on a node that is " +
                   (down_ ? "down" : "already recovering"));
  recovering_ = true;
  recover_started_sim_ = scheduler_->Now();
  catchup_done_ = std::move(done);
  catchup_attempts_ = 0;
  catchup_records_ = 0;
  catchup_pending_.clear();
  for (DcId peer = 0; peer < config_.num_datacenters; ++peer) {
    if (peer != id_) catchup_pending_.insert(peer);
  }
  if (catchup_pending_.empty()) {
    FinishCatchup();
    return;
  }
  SendCatchupRequests();
}

void HeliosNode::SendCatchupRequests() {
  // The request carries our restored timetable (inside the log message):
  // once the peer merges it, BuildMessageFor on its side computes exactly
  // the suffix we are missing.
  log_.AdvanceOwnClock(clock_->NowUnique());
  for (DcId peer : catchup_pending_) {
    auto env = AcquireEnvelope();
    log_.BuildMessageInto(peer, &env->log);
    env->kind = EnvelopeKind::kCatchupRequest;
    SendEnvelope(peer, std::move(env));
  }
  ++catchup_attempts_;
  scheduler_->After(kCatchupRetryInterval, Guarded([this]() {
                      if (!recovering_ || down_) return;
                      if (catchup_attempts_ >= kCatchupRounds) {
                        // A peer may itself be down; finish partially and
                        // let regular gossip fill the rest.
                        FinishCatchup();
                        return;
                      }
                      SendCatchupRequests();
                    }));
}

void HeliosNode::FinishCatchup() {
  if (!recovering_) return;
  recovering_ = false;
  RecoveryOutcome out;
  out.records_replayed = records_replayed_;
  out.catchup_records = catchup_records_;
  out.started_sim = recover_started_sim_;
  out.finished_sim = scheduler_->Now();
  if (trace_ != nullptr) {
    trace_->Span(obs::EventKind::kNodeRecover, id_, TxnId{}, out.started_sim,
                 out.finished_sim);
  }
  if (catchup_done_) {
    auto done = std::move(catchup_done_);
    catchup_done_ = nullptr;
    done(out);
  }
}

std::vector<Refusal> HeliosNode::RefusalsSnapshot() const {
  std::vector<Refusal> out;
  for (const auto& [txn, state] : refusals_) {
    for (DcId refuser : state.refusers) {
      out.push_back(Refusal{refuser, txn, state.txn_ts});
    }
  }
  return out;
}

void ExportNodeMetrics(const HeliosConfig& config, const NodeCounters& counters,
                       const std::vector<DatacenterNodes>& dcs,
                       obs::MetricsRegistry* registry) {
  registry->counter("node.read_requests").Set(counters.read_requests);
  registry->counter("node.commit_requests").Set(counters.commit_requests);
  registry->counter("node.commits").Set(counters.commits);
  registry->counter("node.aborts_on_request").Set(counters.aborts_on_request);
  registry->counter("node.aborts_by_remote").Set(counters.aborts_by_remote);
  registry->counter("node.aborts_liveness").Set(counters.aborts_liveness);
  registry->counter("node.records_ingested").Set(counters.records_ingested);
  registry->counter("node.envelopes_sent").Set(counters.envelopes_sent);
  // Only f > 0 acknowledges on receipt; gating keeps f = 0 snapshots'
  // key set byte for byte.
  if (config.fault_tolerance > 0) {
    registry->counter("node.acks_sent").Set(counters.acks_sent);
  }
  registry->counter("node.refusals_issued").Set(counters.refusals_issued);
  registry->counter("node.read_only_txns").Set(counters.read_only_txns);
  // Protocol-neutral aliases so cross-protocol comparisons can key on the
  // same names the baselines export.
  registry->counter("protocol.commits").Set(counters.commits);
  registry->counter("protocol.aborts").Set(counters.total_aborts());
  for (const DatacenterNodes& d : dcs) {
    const std::string prefix = "node.dc" + std::to_string(d.dc);
    double pt = 0.0, ept = 0.0, busy = 0.0;
    for (const HeliosNode* node : d.nodes) {
      pt += static_cast<double>(node->pt_pool_size());
      ept += static_cast<double>(node->ept_pool_size());
      busy += static_cast<double>(node->service_queue().total_busy());
    }
    registry->gauge(prefix + ".pt_pool").Set(pt);
    registry->gauge(prefix + ".ept_pool").Set(ept);
    registry->gauge(prefix + ".service_busy_us").Set(busy);
  }
  // Gated on the health config so runs without the subsystem keep their
  // key set byte for byte.
  if (!config.health_enabled) return;
  registry->counter("health.suspicions").Set(counters.suspicions);
  registry->counter("health.readmissions").Set(counters.readmissions);
  registry->counter("health.suspicion_refusals")
      .Set(counters.suspicion_refusals);
  registry->counter("health.degraded_commits").Set(counters.degraded_commits);
  registry->counter("health.hedged_pulls").Set(counters.hedged_pulls);
  for (const DatacenterNodes& d : dcs) {
    const std::string prefix = "health.dc" + std::to_string(d.dc);
    double suspected = 0.0;
    for (DcId peer = 0; peer < config.num_datacenters; ++peer) {
      if (peer == d.dc) continue;
      double phi = 0.0;
      bool suspects = false;
      for (const HeliosNode* node : d.nodes) {
        phi = std::max(phi, node->HealthPhi(peer));
        suspects = suspects || node->Suspects(peer);
      }
      registry->gauge(prefix + ".phi.dc" + std::to_string(peer)).Set(phi);
      if (suspects) suspected += 1.0;
    }
    registry->gauge(prefix + ".suspected").Set(suspected);
  }
}

}  // namespace helios::core
