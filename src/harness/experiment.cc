#include "harness/experiment.h"

#include <cmath>
#include <memory>
#include <string>

#include "baselines/replicated_commit.h"
#include "common/check.h"
#include "baselines/two_pc_paxos.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/experiment_spec.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "workload/client.h"

namespace helios::harness {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kHelios0:
      return "Helios-0";
    case Protocol::kHelios1:
      return "Helios-1";
    case Protocol::kHelios2:
      return "Helios-2";
    case Protocol::kHeliosB:
      return "Helios-B";
    case Protocol::kMessageFutures:
      return "MessageFutures";
    case Protocol::kReplicatedCommit:
      return "ReplicatedCommit";
    case Protocol::kTwoPcPaxos:
      return "2PC/Paxos";
  }
  return "?";
}

std::vector<std::vector<Duration>> PlanCommitOffsets(
    const Topology& topology, const std::optional<lp::RttMatrix>& estimate) {
  const lp::RttMatrix& rtt = estimate.has_value() ? *estimate : topology.rtt_ms;
  auto mao = lp::SolveMao(rtt);
  HELIOS_CHECK(mao.ok(), "no MAO plan: " + mao.status().ToString());
  return lp::EvenSplitOffsetsUs(mao.value());
}

namespace {

int FaultTolerance(Protocol p) {
  switch (p) {
    case Protocol::kHelios1:
      return 1;
    case Protocol::kHelios2:
      return 2;
    default:
      return 0;
  }
}

bool IsHeliosFamily(Protocol p) {
  return p == Protocol::kHelios0 || p == Protocol::kHelios1 ||
         p == Protocol::kHelios2 || p == Protocol::kHeliosB ||
         p == Protocol::kMessageFutures;
}

/// Seed-stream tag for the fault RNG: keeps fault decisions decorrelated
/// from every client and latency stream derived from the same base seed.
constexpr uint64_t kFaultSeedTag = 0xFA171;

/// First delay of a client's timeout-retry backoff (doubling per retry).
constexpr Duration kClientRetryBackoff = Millis(50);

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  const int n = config.topology.size();
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, n, config.seed);
  ConfigureNetwork(config.topology, &network);

  // Chaos layer: a network that can lose, duplicate or reorder messages
  // also gets reliable-delivery sessions, so every protocol runs its
  // unmodified logic over it; without message faults no session exists.
  const bool has_message_faults = config.fault_plan.HasMessageFaults();
  if (!config.fault_plan.empty()) {
    const Status st = config.fault_plan.Validate(n);
    HELIOS_CHECK(st.ok(), "invalid fault plan (run FaultPlan::Validate "
                          "first): " + st.ToString());
  }
  if (has_message_faults) {
    const Status st = network.InstallMessageFaults(
        config.fault_plan, DeriveSeed(config.seed, kFaultSeedTag));
    HELIOS_CHECK(st.ok(), "message faults not installed: " + st.ToString());
    network.EnableReliableSessions();
  }
  // Gray link faults (slow-link, asymmetric partition) live in the
  // network; they are deterministic, so they neither consume randomness
  // nor open reliable sessions.
  const bool has_gray_link_faults = config.fault_plan.HasGrayLinkFaults();
  if (has_gray_link_faults) {
    const Status st = network.InstallGrayFaults(config.fault_plan);
    HELIOS_CHECK(st.ok(), "gray faults not installed: " + st.ToString());
  }
  ExperimentResult result;
  // Declared before the cluster and the clients, which hold pointers into
  // it, so it outlives them.
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (config.trace.enabled) {
    result.trace =
        std::make_shared<obs::TraceRecorder>(config.trace.ring_capacity);
    registry = std::make_unique<obs::MetricsRegistry>();
    network.set_trace_recorder(result.trace.get());
  }

  std::unique_ptr<ProtocolCluster> cluster;
  core::HistoryRecorder* history = nullptr;
  const core::HeliosCluster* helios = nullptr;
  HELIOS_CHECK(config.shards == 1 ||
                   (IsHeliosFamily(config.protocol) &&
                    config.protocol != Protocol::kMessageFutures),
               std::string(ProtocolName(config.protocol)) +
                   " does not run over " + std::to_string(config.shards) +
                   " shards");

  if (IsHeliosFamily(config.protocol)) {
    const bool mf = config.protocol == Protocol::kMessageFutures;
    core::HeliosConfig hc;
    hc.num_datacenters = n;
    hc.fault_tolerance = FaultTolerance(config.protocol);
    hc.grace_time = config.grace_time;
    hc.log_interval = config.log_interval;
    hc.client_link_one_way = config.client_link_one_way;
    hc.service = config.service;
    hc.clock_offsets = config.clock_offsets;
    hc.health_enabled = config.health_enabled;
    if (config.protocol != Protocol::kHeliosB && !mf) {
      hc.commit_offsets = PlanCommitOffsets(config.topology,
                                            config.rtt_estimate_ms);
    }
    shard::ShardMap map;
    if (config.shards > 1) {
      map = config.shard_by == "range"
                ? shard::ShardMap::RangeOverWorkloadKeys(
                      config.shards, config.workload.num_keys)
                : shard::ShardMap::Hash(config.shards);
    }
    auto hcluster = std::make_unique<core::HeliosCluster>(
        &scheduler, &network, std::move(hc),
        mf ? core::LogProtocolKind::kMessageFutures
           : core::LogProtocolKind::kHelios,
        ProtocolName(config.protocol), std::move(map));
    helios = hcluster.get();
    history = &hcluster->history();
    cluster = std::move(hcluster);
  } else {
    baselines::ReplicaConfig rc;
    rc.num_datacenters = n;
    rc.client_link_one_way = config.client_link_one_way;
    rc.service = config.service;
    rc.clock_offsets = config.clock_offsets;
    std::unique_ptr<baselines::ReplicaCluster> baseline;
    if (config.protocol == Protocol::kReplicatedCommit) {
      baseline = std::make_unique<baselines::ReplicatedCommitCluster>(
          &scheduler, &network, std::move(rc));
    } else {
      baseline = std::make_unique<baselines::TwoPcPaxosCluster>(
          &scheduler, &network, std::move(rc), config.two_pc_coordinator);
    }
    history = &baseline->history();
    cluster = std::move(baseline);
  }

  if (config.preload) {
    cluster->LoadInitialAll(
        workload::TYcsbGenerator::Preload(config.workload.num_keys));
  }
  cluster->SetObservability(result.trace.get(), registry.get());
  cluster->Start();

  // Timed chaos events: each crash/recover flips both the network (drop
  // traffic) and the protocol process (stop serving); partitions are
  // network-only, exactly like the paper's Section 4.4 scenarios.
  for (const sim::NodeEvent& e : config.fault_plan.node_events) {
    scheduler.At(e.at, [&network, cluster = cluster.get(), e]() {
      if (e.up) {
        (void)network.RecoverNode(e.node);
      } else {
        (void)network.CrashNode(e.node);
      }
      cluster->SetDatacenterDown(e.node, !e.up);
    });
  }
  for (const sim::PartitionEvent& e : config.fault_plan.partition_events) {
    scheduler.At(e.at, [&network, e]() {
      (void)network.SetPartitioned(e.a, e.b, e.partitioned);
    });
  }
  // Gray node faults: a stall is delivered to the process when it begins;
  // the node models the rest of the window itself (link kinds were
  // installed into the network above).
  for (const sim::GrayFault& g : config.fault_plan.gray_faults) {
    if (g.kind == sim::GrayFaultKind::kProcessStall) {
      scheduler.At(g.active_from, [cluster = cluster.get(), g]() {
        cluster->InjectStall(g.a, g.active_until - g.active_from);
      });
    } else if (g.kind == sim::GrayFaultKind::kFsyncStall) {
      scheduler.At(g.active_from, [cluster = cluster.get(), g]() {
        cluster->InjectFsyncStall(g.a, g.extra_delay,
                                  g.active_until - g.active_from);
      });
    }
  }

  const sim::SimTime measure_from = config.warmup;
  const sim::SimTime measure_until = config.warmup + config.measure;
  std::vector<std::unique_ptr<workload::ClosedLoopClient>> clients;
  clients.reserve(static_cast<size_t>(config.total_clients));
  for (int c = 0; c < config.total_clients; ++c) {
    const DcId home = c % n;
    clients.push_back(std::make_unique<workload::ClosedLoopClient>(
        static_cast<uint64_t>(c), home, cluster.get(), &scheduler,
        config.workload, config.seed + 1000003, measure_from, measure_until,
        /*stop_at=*/measure_until));
    clients.back()->SetObservability(result.trace.get(), registry.get());
    if (config.client_commit_timeout > 0) {
      clients.back()->SetCommitTimeout(config.client_commit_timeout,
                                       config.client_max_retries,
                                       kClientRetryBackoff);
    }
    if (config.shards > 1) {
      // Cross-shard parallel commit livelocks under synchronized
      // contention without client pacing (see SetAbortBackoff); the seed
      // derivation keeps sharded runs deterministic.
      workload::BackoffPolicy abort_backoff;
      abort_backoff.base = Millis(2);
      abort_backoff.cap = Millis(100);
      abort_backoff.max_retries = 6;
      clients.back()->SetAbortBackoff(abort_backoff, config.seed + 2000003);
    }
    if (config.capture_artifacts) clients.back()->EnableSessionLog();
    // Stagger client start a little to avoid a synchronized burst.
    scheduler.At(Micros(37) * c,
                 [client = clients.back().get()]() { client->Start(); });
  }

  scheduler.RunUntil(measure_until + config.drain);

  // Aggregate per datacenter.
  result.protocol = ProtocolName(config.protocol);
  result.per_dc.resize(static_cast<size_t>(n));
  std::vector<workload::ClientMetrics> per_dc(static_cast<size_t>(n));
  for (const auto& client : clients) {
    per_dc[static_cast<size_t>(client->home())].Merge(client->metrics());
    result.client_timeouts += client->metrics().timeouts;
    result.client_retries += client->metrics().retries;
  }
  const double measure_s =
      static_cast<double>(config.measure) / 1'000'000.0;
  double latency_sum = 0.0;
  double abort_sum = 0.0;
  for (int dc = 0; dc < n; ++dc) {
    const workload::ClientMetrics& m = per_dc[static_cast<size_t>(dc)];
    DcResult& r = result.per_dc[static_cast<size_t>(dc)];
    r.name = config.topology.names[static_cast<size_t>(dc)];
    r.latency_mean_ms = m.commit_latency_ms.mean();
    r.latency_stddev_ms = m.commit_latency_ms.stddev();
    if (m.commit_latency_ms.count() > 1) {
      r.latency_ci95_ms = 1.96 * r.latency_stddev_ms /
                          std::sqrt(static_cast<double>(
                              m.commit_latency_ms.count()));
    }
    r.latency_p50_ms = m.commit_latency_ms.Median();
    r.latency_p99_ms = m.commit_latency_ms.Percentile(99);
    r.throughput_ops_s = static_cast<double>(m.ops_committed) / measure_s;
    r.abort_rate = m.abort_rate();
    r.committed = m.committed;
    r.aborted = m.aborted;
    latency_sum += r.latency_mean_ms;
    abort_sum += r.abort_rate;
    result.total_throughput_ops_s += r.throughput_ops_s;
  }
  result.avg_latency_ms = latency_sum / n;
  result.avg_abort_rate = abort_sum / n;

  auto mao = lp::SolveMao(config.topology.rtt_ms);
  if (mao.ok()) {
    result.optimal_latency_ms = mao.value();
    result.optimal_avg_latency_ms = lp::AverageLatency(mao.value());
  }

  if (config.check_serializability && history != nullptr) {
    result.serializability = core::CheckSerializable(history->commits());
  }
  result.events_processed = scheduler.events_processed();

  // Oracle inputs (src/check): snapshot everything the invariant checks
  // need while the cluster is still alive.
  if (config.capture_artifacts) {
    auto cap = std::make_shared<RunCapture>();
    if (history != nullptr) cap->history = history->commits();
    cap->sessions.reserve(clients.size());
    for (const auto& client : clients) {
      if (client->session_log() != nullptr) {
        cap->sessions.push_back(*client->session_log());
      }
    }
    // perfbench reads the flat per-datacenter journals of an unsharded
    // run and the (datacenter, shard) ones otherwise.
    const int shards = cluster->num_shards();
    cap->shards = shards;
    std::vector<wal::WalContents>& journals =
        shards > 1 ? cap->shard_wals : cap->wals;
    std::vector<bool>& present =
        shards > 1 ? cap->shard_wal_present : cap->wal_present;
    journals.resize(static_cast<size_t>(n * shards));
    present.assign(static_cast<size_t>(n * shards), false);
    cap->stores.resize(static_cast<size_t>(n));
    cap->dc_down.assign(static_cast<size_t>(n), false);
    for (DcId dc = 0; dc < n; ++dc) {
      const size_t i = static_cast<size_t>(dc);
      for (int s = 0; s < shards; ++s) {
        const size_t j = static_cast<size_t>(dc * shards + s);
        if (const wal::MemoryWal* w = cluster->wal_journal(dc, s)) {
          journals[j] = w->contents();
          present[j] = true;
        }
      }
      cluster->SnapshotStore(dc, [&](const Key& key, const VersionedValue& v) {
        cap->stores[i][key] = v;
      });
      cap->dc_down[i] = cluster->datacenter_down(dc);
    }
    cap->recovery = cluster->recovery_snapshot();
    if (shards > 1) {
      cap->txn_status.resize(static_cast<size_t>(n));
      for (DcId dc = 0; dc < n; ++dc) {
        cap->txn_status[static_cast<size_t>(dc)] =
            helios->txn_status(dc).entries();
      }
    }
    result.capture = std::move(cap);
  }

  if (registry != nullptr) {
    obs::MetricsRegistry* reg = registry.get();
    cluster->ExportMetrics(reg);
    // Gated on an actual recovery so crash-free snapshots keep their
    // pre-existing key set byte for byte.
    const RecoveryStats recovery = cluster->recovery_snapshot();
    if (recovery.recoveries > 0) {
      reg->counter("recovery.recoveries").Set(recovery.recoveries);
      reg->counter("recovery.records_replayed")
          .Set(recovery.records_replayed);
      reg->counter("recovery.catchup_records").Set(recovery.catchup_records);
      reg->counter("recovery.duration_us").Set(recovery.duration_us);
    }
    reg->counter("net.messages_sent").Set(network.messages_sent());
    reg->counter("net.messages_dropped").Set(network.messages_dropped());
    reg->counter("net.bytes_sent").Set(network.bytes_sent());
    reg->counter("sim.events_processed").Set(scheduler.events_processed());
    if (has_message_faults) {
      reg->counter("net.fault_drops").Set(network.fault_drops());
      reg->counter("net.fault_duplicates").Set(network.fault_duplicates());
      reg->counter("net.fault_reorders").Set(network.fault_reorders());
      reg->counter("reliable.retransmits").Set(network.retransmits());
      reg->counter("reliable.duplicates_suppressed")
          .Set(network.duplicates_suppressed());
      reg->counter("reliable.acks_sent").Set(network.acks_sent());
    }
    if (has_gray_link_faults) {
      reg->counter("net.gray_slowed").Set(network.gray_slowed());
      reg->counter("net.gray_asym_drops").Set(network.gray_asym_drops());
    }
    uint64_t committed = 0;
    uint64_t aborted = 0;
    for (const DcResult& r : result.per_dc) {
      committed += r.committed;
      aborted += r.aborted;
    }
    reg->counter("client.committed").Set(committed);
    reg->counter("client.aborted").Set(aborted);
    // Gated on the feature being enabled so crash-free snapshots keep
    // their pre-existing key set byte for byte.
    if (config.client_commit_timeout > 0) {
      reg->counter("client.timeouts").Set(result.client_timeouts);
      reg->counter("client.retries").Set(result.client_retries);
    }
    result.metrics = reg->Snapshot();
  }
  return result;
}

}  // namespace helios::harness
