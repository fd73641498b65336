// A live (non-simulated) Helios datacenter: the HeliosNode engine on a
// real-time event loop, exchanging wire-serialized envelopes with peers
// over TCP. This is the deployment shape a real multi-datacenter install
// would use — one process per datacenter (tools/heliosd.cc) — demonstrated
// over localhost by examples/live_demo.cpp and tests/transport_test.cc.
//
// An optional inbound delay emulates WAN latency when every "datacenter"
// actually lives on one machine.
//
// Live-mode hardening on top of the bare engine:
//  * Real service time: the node runs with every ServiceModel cost at
//    zero, so its service time is the CPU it really spends. The model in
//    HeliosConfig::service is the simulator's stand-in for storage I/O
//    and would otherwise add modeled sleeps to a path that already pays
//    the real costs.
//  * Durability: EnableWal(path, FileWalOptions) journals through a
//    wal::FileWal (configurable fsync policy; group commit fsyncs on the
//    WAL's own thread, off the event loop) and recovers crash-
//    consistently on restart — torn tails are truncated, and after
//    Start() the node pulls the log suffix it missed from peers
//    (anti-entropy catch-up) before serving commits. A failed append
//    stops the process: a record peers or clients already heard of
//    must never go unjournaled.
//  * Clock discipline: the node's clock steps forward until the apparent
//    one-way delays to and from its peers are symmetric (core::
//    ClockDiscipline), so processes started at different instants, a
//    restart from the WAL, or asymmetric paths do not stretch the Rule-2
//    wait beyond the RTT/2 the commit offsets were planned on.
//  * Overload protection: SetAdmissionControl bounds the in-flight
//    transaction budget and the event-loop backlog; commits beyond the
//    budget are rejected immediately with the BUSY outcome instead of
//    queueing without bound, so admitted transactions keep a bounded
//    latency and clients back off (workload::kBusyAbortReason).

#ifndef HELIOS_TRANSPORT_LIVE_DATACENTER_H_
#define HELIOS_TRANSPORT_LIVE_DATACENTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "core/helios_config.h"
#include "core/helios_node.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "transport/realtime_loop.h"
#include "transport/tcp_transport.h"
#include "wal/file_wal.h"
#include "wire/serialization.h"

namespace helios::transport {

/// Admission-control thresholds; zero disables that check. See
/// LiveDatacenter::SetAdmissionControl.
struct AdmissionConfig {
  /// Maximum commit requests admitted but not yet decided.
  uint64_t max_inflight = 0;
  /// Maximum event-loop backlog (RealtimeLoop::queue_depth) at admission.
  uint64_t queue_watermark = 0;

  bool enabled() const { return max_inflight > 0 || queue_watermark > 0; }
};

/// Overload counters (exported as overload.* metrics).
struct OverloadStats {
  uint64_t admitted = 0;  ///< Commit requests accepted into the node.
  uint64_t shed = 0;      ///< Commit requests rejected with BUSY.
  uint64_t inflight = 0;  ///< Currently admitted, undecided.
  uint64_t queue_depth = 0;  ///< Loop backlog at snapshot time.
};

class LiveDatacenter {
 public:
  /// `config.num_datacenters` covers the whole deployment; `id` is this
  /// process's index. `inbound_delay` is added to every received envelope
  /// (half of the emulated RTT when running all peers on localhost).
  LiveDatacenter(DcId id, core::HeliosConfig config,
                 Duration inbound_delay = 0,
                 core::LogProtocolKind kind = core::LogProtocolKind::kHelios);
  ~LiveDatacenter();
  LiveDatacenter(const LiveDatacenter&) = delete;
  LiveDatacenter& operator=(const LiveDatacenter&) = delete;

  /// Enables write-ahead logging at `path` with the given durability
  /// policy and, if the file already has contents, recovers the node's
  /// state from it (truncating a torn tail). Call before Start; after
  /// Start() a recovered node additionally catches up from its peers.
  /// From then on a failed append, or a failed fsync surfaced by the next
  /// append, aborts the process (HELIOS_CHECK).
  Status EnableWal(const std::string& path, const wal::FileWalOptions& opts);

  /// Arms overload protection for Commit(). With a full in-flight budget
  /// or a loop backlog past the watermark, Commit rejects synchronously
  /// with outcome.abort_reason == "busy" instead of queueing. Call before
  /// Start.
  void SetAdmissionControl(const AdmissionConfig& admission) {
    admission_ = admission;
  }

  /// Binds the listening socket (0 = ephemeral). Call before Start.
  Status Listen(uint16_t port = 0);
  uint16_t port() const { return transport_->port(); }

  /// Dials every peer; `ports[dc]` is peer dc's port (own entry ignored).
  Status ConnectPeers(const std::vector<uint16_t>& ports);

  /// Starts the event loop and the node's periodic work. If EnableWal
  /// recovered state, also begins anti-entropy catch-up from peers.
  void Start();
  void Stop();

  // --- Client API (callbacks run on the loop thread, except a BUSY
  // rejection, which runs synchronously on the caller's thread) -----------

  void Read(const Key& key, ReadCallback done);
  void Commit(std::vector<ReadEntry> reads, std::vector<WriteEntry> writes,
              CommitCallback done);

  /// Blocking conveniences for demos and tests (never call from the loop
  /// thread or a transport callback).
  Result<VersionedValue> ReadSync(const Key& key);
  CommitOutcome CommitSync(std::vector<ReadEntry> reads,
                           std::vector<WriteEntry> writes);

  /// Installs initial data; call before Start (same order on every peer).
  void LoadInitial(const Key& key, const Value& value);

  /// Snapshot of the node's counters (synchronized through the loop).
  core::NodeCounters CountersSnapshot();

  /// Deterministic dump of the latest version of every key, one
  /// "key\tvalue\tts\twriter" line per key sorted by key — the store
  /// fingerprint the supervisor diffs across datacenters for convergence.
  /// Synchronized through the loop.
  std::string DumpStore();

  /// Overload counters (thread-safe; queue_depth sampled at call time).
  OverloadStats overload_snapshot() const;

  /// Crash-recovery totals: what EnableWal replayed plus what catch-up
  /// pulled from peers (thread-safe).
  RecoveryStats recovery_snapshot() const;

  /// Writes this datacenter's metrics into `registry`: core::
  /// ExportNodeMetrics for its own node (the names a simulated
  /// HeliosCluster exports for this datacenter), plus what only a live
  /// node has: clock.*, overload.* (overload_snapshot()), recovery.*
  /// (recovery_snapshot()), transport.* and, with a WAL, wal.*. What the
  /// loop owns (the counters CountersSnapshot() returns, the node's gauges,
  /// the WAL's byte counts) is read in one hop through the loop, so the
  /// counters and gauges are of one instant; the thread-safe rest on the
  /// caller's thread. Call from any thread but the loop's.
  void ExportMetrics(obs::MetricsRegistry* registry);

  /// Partition control (chaos-in-production): administratively refuse the
  /// connection to `peer` / lift the refusal. Thread-safe.
  void BlockPeer(DcId peer, bool blocked) {
    transport_->SetPeerBlocked(peer, blocked);
  }

  /// Forces the WAL to disk (clean shutdown barrier). No-op without WAL.
  void SyncWal();

  DcId id() const { return id_; }
  RealtimeLoop& loop() { return loop_; }
  TcpTransport& transport() { return *transport_; }

 private:
  void OnWirePayload(std::vector<uint8_t> payload);
  /// Runs `fn` on the loop thread and waits for it once Start() ran; on
  /// the caller's thread before that and after Stop().
  void OnLoop(const std::function<void()>& fn);

  const DcId id_;
  core::HeliosConfig config_;
  Duration inbound_delay_;
  RealtimeLoop loop_;
  std::unique_ptr<sim::Clock> clock_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<core::HeliosNode> node_;
  std::unique_ptr<wal::FileWal> wal_;
  /// Reusable outbound framing buffers; only touched on the loop thread.
  wire::Framer framer_;
  bool started_ = false;
  bool recovered_ = false;  ///< EnableWal replayed a non-empty journal.

  AdmissionConfig admission_;
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};

  mutable std::mutex recovery_mu_;
  RecoveryStats recovery_;
};

}  // namespace helios::transport

#endif  // HELIOS_TRANSPORT_LIVE_DATACENTER_H_
