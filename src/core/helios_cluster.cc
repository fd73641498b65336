#include "core/helios_cluster.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.h"

namespace helios::core {

HeliosCluster::HeliosCluster(sim::Scheduler* scheduler, sim::Network* network,
                             HeliosConfig config, LogProtocolKind kind,
                             std::string name)
    : scheduler_(scheduler),
      network_(network),
      config_(std::move(config)),
      kind_(kind),
      name_(std::move(name)) {
  assert(network_->size() == config_.num_datacenters);
  const int n = config_.num_datacenters;
  clocks_.reserve(static_cast<size_t>(n));
  nodes_.reserve(static_cast<size_t>(n));
  wals_.reserve(static_cast<size_t>(n));
  for (DcId dc = 0; dc < n; ++dc) {
    const Duration offset = config_.clock_offsets.empty()
                                ? 0
                                : config_.clock_offsets[static_cast<size_t>(dc)];
    clocks_.push_back(std::make_unique<sim::Clock>(scheduler_, offset));
    wals_.push_back(std::make_unique<wal::MemoryWal>());
    nodes_.push_back(MakeNode(dc));
  }
}

std::unique_ptr<HeliosNode> HeliosCluster::MakeNode(DcId dc) {
  auto node = std::make_unique<HeliosNode>(
      dc, config_, kind_, scheduler_, clocks_[static_cast<size_t>(dc)].get(),
      [this, dc](DcId to, const EnvelopePtr& env) {
        // Sized once per logical send; retransmissions and duplicate
        // deliveries reuse the cached size and the shared envelope (no
        // re-encode, no deep copies).
        const size_t size = envelope_sizer_ ? envelope_sizer_(*env) : 0;
        network_->SendSized(dc, to, size, [this, to, env]() {
          nodes_[static_cast<size_t>(to)]->HandleEnvelope(env);
        });
      });
  node->set_history_recorder(history_override_ != nullptr ? history_override_
                                                          : &history_);
  node->SetObservability(trace_, metrics_);
  if (staged_resolver_) {
    node->set_staged_resolver(
        [this, dc](const TxnId& id) { return staged_resolver_(dc, id); });
  }
  // Durability is always on: every append/ingest and every GC-tick
  // timetable snapshot lands in the per-datacenter MemoryWal. The sink is
  // a pure memory side effect — no scheduler events, no RNG — so
  // crash-free runs stay bit-identical.
  wal::MemoryWal* wal = wals_[static_cast<size_t>(dc)].get();
  node->set_record_sink(
      [wal](const rdict::LogRecord& rec) { (void)wal->AppendRecord(rec); });
  node->set_timetable_sink(
      [wal](const rdict::Timetable& t) { (void)wal->AppendTimetable(t); });
  return node;
}

void HeliosCluster::Start() {
  started_ = true;
  for (auto& node : nodes_) node->Start();
}

void HeliosCluster::ClientRead(DcId client_dc, const Key& key,
                               ReadCallback done) {
  const Duration link = config_.client_link_one_way;
  scheduler_->After(link, [this, client_dc, key, done = std::move(done),
                           link]() {
    node(client_dc).HandleRead(
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
  scheduler_->After(link, [this, client_dc, reads = std::move(reads),
                           writes = std::move(writes), done = std::move(done),
                           link]() mutable {
    node(client_dc).HandleCommitRequest(
        std::move(reads), std::move(writes),
        [this, done, link](const CommitOutcome& outcome) {
          scheduler_->After(link, [done, outcome]() { done(outcome); });
        });
  });
}

void HeliosCluster::ClientReadOnly(DcId client_dc, std::vector<Key> keys,
                                   ReadOnlyCallback done) {
  const Duration link = config_.client_link_one_way;
  scheduler_->After(link, [this, client_dc, keys = std::move(keys),
                           done = std::move(done), link]() mutable {
    node(client_dc).HandleReadOnly(
        std::move(keys),
        [this, done, link](std::vector<Result<VersionedValue>> results) {
          scheduler_->After(link, [done, results = std::move(results)]() {
            done(results);
          });
        });
  });
}

void HeliosCluster::LoadInitialAll(const Key& key, const Value& value) {
  initial_loads_.emplace_back(key, value);
  for (auto& node : nodes_) node->LoadInitial(key, value);
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
    if (node(dc).down()) return;
    // Crash with amnesia: destroy the node object — log, store, pools,
    // pending transactions, refusal state, clock floor bookkeeping and
    // offset overrides all vanish. A fresh down shell takes its place so
    // deliveries already in flight land on a live object that drops them.
    nodes_[static_cast<size_t>(dc)] = MakeNode(dc);
    node(dc).SetDown(true);
    return;
  }
  if (!node(dc).down()) return;
  // Recovery: replay data loaded outside the protocol, then the WAL
  // (records + latest timetable snapshot), then rejoin and catch up.
  for (const auto& [key, value] : initial_loads_) {
    node(dc).LoadInitial(key, value);
  }
  const wal::WalContents& contents = wals_[static_cast<size_t>(dc)]->contents();
  const Status restored = node(dc).Restore(
      contents.records, contents.has_timetable ? &contents.timetable : nullptr);
  assert(restored.ok());
  (void)restored;
  node(dc).SetDown(false);
  if (!started_) return;  // Crash/recover before Start(): nothing to rejoin.
  node(dc).Start();
  node(dc).BeginCatchup([this](const RecoveryOutcome& out) {
    ++recovery_stats_.recoveries;
    recovery_stats_.records_replayed += out.records_replayed;
    recovery_stats_.catchup_records += out.catchup_records;
    recovery_stats_.duration_us +=
        static_cast<uint64_t>(out.finished_sim - out.started_sim);
  });
}

void HeliosCluster::SetHistoryRecorder(HistoryRecorder* recorder) {
  history_override_ = recorder;
  for (auto& node : nodes_) {
    node->set_history_recorder(recorder != nullptr ? recorder : &history_);
  }
}

void HeliosCluster::SetStagedResolver(StagedResolverFn resolver) {
  staged_resolver_ = std::move(resolver);
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    if (staged_resolver_) {
      node(dc).set_staged_resolver(
          [this, dc](const TxnId& id) { return staged_resolver_(dc, id); });
    } else {
      node(dc).set_staged_resolver(nullptr);
    }
  }
}

void HeliosCluster::SetObservability(obs::TraceRecorder* trace,
                                     obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
  for (auto& node : nodes_) node->SetObservability(trace, metrics);
}

void HeliosCluster::ExportMetrics(obs::MetricsRegistry* registry) const {
  ExportPlaneMetrics({this}, registry);
}

NodeCounters HeliosCluster::AggregateCounters() const {
  NodeCounters total;
  for (const auto& node : nodes_) total += node->counters();
  return total;
}

NodeCounters ExportPlaneMetrics(const std::vector<const HeliosCluster*>& planes,
                                obs::MetricsRegistry* registry) {
  NodeCounters total;
  for (const HeliosCluster* plane : planes) total += plane->AggregateCounters();
  registry->counter("node.read_requests").Set(total.read_requests);
  registry->counter("node.commit_requests").Set(total.commit_requests);
  registry->counter("node.commits").Set(total.commits);
  registry->counter("node.aborts_on_request").Set(total.aborts_on_request);
  registry->counter("node.aborts_by_remote").Set(total.aborts_by_remote);
  registry->counter("node.aborts_liveness").Set(total.aborts_liveness);
  registry->counter("node.records_ingested").Set(total.records_ingested);
  registry->counter("node.envelopes_sent").Set(total.envelopes_sent);
  registry->counter("node.refusals_issued").Set(total.refusals_issued);
  registry->counter("node.read_only_txns").Set(total.read_only_txns);
  // Protocol-neutral aliases so cross-protocol comparisons can key on the
  // same names the baselines export.
  registry->counter("protocol.commits").Set(total.commits);
  registry->counter("protocol.aborts").Set(total.total_aborts());
  const HeliosConfig& config = planes.front()->config();
  for (DcId dc = 0; dc < config.num_datacenters; ++dc) {
    const std::string prefix = "node.dc" + std::to_string(dc);
    double pt = 0.0, ept = 0.0, busy = 0.0;
    for (const HeliosCluster* plane : planes) {
      pt += static_cast<double>(plane->node(dc).pt_pool_size());
      ept += static_cast<double>(plane->node(dc).ept_pool_size());
      busy += static_cast<double>(plane->node(dc).service_queue().total_busy());
    }
    registry->gauge(prefix + ".pt_pool").Set(pt);
    registry->gauge(prefix + ".ept_pool").Set(ept);
    registry->gauge(prefix + ".service_busy_us").Set(busy);
  }
  // Gated on the health config so runs without the subsystem keep their
  // pre-existing metrics key set byte for byte.
  if (config.health.enabled) {
    registry->counter("health.suspicions").Set(total.suspicions);
    registry->counter("health.readmissions").Set(total.readmissions);
    registry->counter("health.suspicion_refusals")
        .Set(total.suspicion_refusals);
    registry->counter("health.degraded_commits").Set(total.degraded_commits);
    registry->counter("health.hedged_pulls").Set(total.hedged_pulls);
    for (DcId dc = 0; dc < config.num_datacenters; ++dc) {
      const std::string prefix = "health.dc" + std::to_string(dc);
      double suspected = 0.0;
      for (DcId peer = 0; peer < config.num_datacenters; ++peer) {
        if (peer == dc) continue;
        double phi = 0.0;
        bool suspects = false;
        for (const HeliosCluster* plane : planes) {
          phi = std::max(phi, plane->node(dc).HealthPhi(peer));
          suspects = suspects || plane->node(dc).Suspects(peer);
        }
        registry->gauge(prefix + ".phi.dc" + std::to_string(peer)).Set(phi);
        if (suspects) suspected += 1.0;
      }
      registry->gauge(prefix + ".suspected").Set(suspected);
    }
  }
  return total;
}

Result<double> HeliosCluster::ReplanOffsetsFromEstimates(DcId reference) {
  const RttEstimator* estimator = node(reference).rtt_estimator();
  if (estimator == nullptr) {
    return Status::FailedPrecondition("estimate_rtts is not enabled");
  }
  if (!estimator->MatrixComplete()) {
    return Status::Unavailable("RTT matrix not yet complete");
  }
  const lp::RttMatrix matrix = estimator->MatrixMs();
  auto mao = lp::SolveMao(matrix);
  if (!mao.ok()) return mao.status();
  auto offsets = lp::EvenSplitOffsetsUs(mao.value());
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    node(dc).SetCommitOffsetRow(std::move(offsets[static_cast<size_t>(dc)]));
  }
  return lp::AverageLatency(mao.value());
}

std::unique_ptr<HeliosCluster> MakeMessageFuturesCluster(
    sim::Scheduler* scheduler, sim::Network* network, HeliosConfig config) {
  config.commit_offsets.clear();
  config.fault_tolerance = 0;
  return std::make_unique<HeliosCluster>(scheduler, network, std::move(config),
                                         LogProtocolKind::kMessageFutures,
                                         "MessageFutures");
}

}  // namespace helios::core
