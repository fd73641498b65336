#include "transport/live_datacenter.h"

#include <algorithm>
#include <future>
#include <map>
#include <sstream>

#include "common/check.h"
#include "wire/serialization.h"

namespace helios::transport {
namespace {

/// `config` with every modeled service cost at zero: a live node's
/// service time is the CPU it really spends, and each ServiceQueue unit
/// completes in the loop pass that submits it.
core::HeliosConfig WithRealServiceTime(core::HeliosConfig config) {
  config.service = core::ServiceModel{.read = 0,
                                      .commit_request = 0,
                                      .log_record = 0,
                                      .log_message = 0,
                                      .write_apply = 0,
                                      .lock_op = 0};
  return config;
}

}  // namespace

LiveDatacenter::LiveDatacenter(DcId id, core::HeliosConfig config,
                               Duration inbound_delay,
                               core::LogProtocolKind kind)
    : id_(id),
      config_(WithRealServiceTime(std::move(config))),
      inbound_delay_(inbound_delay) {
  const Duration offset =
      config_.clock_offsets.empty()
          ? 0
          : config_.clock_offsets[static_cast<size_t>(id)];
  clock_ = std::make_unique<sim::Clock>(&loop_.scheduler(), offset);
  transport_ = std::make_unique<TcpTransport>(
      [this](std::vector<uint8_t> payload) {
        OnWirePayload(std::move(payload));
      });
  node_ = std::make_unique<core::HeliosNode>(
      id_, config_, kind, &loop_.scheduler(), clock_.get(),
      [this](DcId to, const core::EnvelopePtr& env) {
        // Serialize on the loop thread; the socket write is brief
        // (localhost / kernel buffers) so it runs inline. The framer's
        // buffers are reused across sends — zero steady-state allocation.
        const wire::Buffer& frame = framer_.Frame(*env);
        (void)transport_->Send(to, frame.data(), frame.size());
      });
  // The loop clock counts from this process's own Start, so datacenters
  // started (or restarted) at different instants disagree by that much;
  // the discipline steps this clock forward until the apparent one-way
  // delays to and from the peers are symmetric. Runs on the loop thread.
  node_->set_clock_step_sink([this](Duration step) {
    clock_->set_offset(clock_->offset() + step);
  });
}

LiveDatacenter::~LiveDatacenter() { Stop(); }

Status LiveDatacenter::EnableWal(const std::string& path,
                                 const wal::FileWalOptions& opts) {
  HELIOS_CHECK(!started_, "dc" + std::to_string(id_) +
                              ": EnableWal after Start");
  auto recovered = wal::RecoverFileWal(path);
  if (!recovered.ok()) return recovered.status();
  const wal::WalContents& contents = recovered.value().contents;
  if (!contents.records.empty()) {
    const Status restored = node_->Restore(
        contents.records,
        contents.has_timetable ? &contents.timetable : nullptr);
    if (!restored.ok()) return restored;
    recovered_ = true;
    {
      std::lock_guard<std::mutex> lock(recovery_mu_);
      recovery_.records_replayed += contents.records.size();
    }
  }
  wal_ = std::make_unique<wal::FileWal>();
  Status opened = wal_->Open(path, opts);
  if (!opened.ok()) return opened;
  // Fail-stop: a record the node could not journal may already be known
  // to peers and clients, and a restart must never forget it.
  node_->set_record_sink([this](const rdict::LogRecord& rec) {
    const Status s = wal_->AppendRecord(rec);
    HELIOS_CHECK(s.ok(), "dc" + std::to_string(id_) + ": " + s.ToString());
  });
  // Periodic knowledge checkpoint (the node emits one per GC tick): lets
  // Restore resume catch-up from the snapshot instead of replaying the
  // timetable from zero.
  node_->set_timetable_sink([this](const rdict::Timetable& t) {
    const Status s = wal_->AppendTimetable(t);
    HELIOS_CHECK(s.ok(), "dc" + std::to_string(id_) + ": " + s.ToString());
  });
  return Status::Ok();
}

Status LiveDatacenter::Listen(uint16_t port) {
  return transport_->Listen(port);
}

Status LiveDatacenter::ConnectPeers(const std::vector<uint16_t>& ports) {
  HELIOS_CHECK(static_cast<int>(ports.size()) == config_.num_datacenters,
               "dc" + std::to_string(id_) + ": " +
                   std::to_string(ports.size()) + " peer ports for " +
                   std::to_string(config_.num_datacenters) + " datacenters");
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    if (dc == id_) continue;
    Status s = transport_->Connect(dc, ports[static_cast<size_t>(dc)]);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void LiveDatacenter::Start() {
  HELIOS_CHECK(!started_, "dc" + std::to_string(id_) + ": Start twice");
  started_ = true;
  loop_.Start();
  loop_.Post([this]() {
    node_->Start();
    if (recovered_) {
      // The WAL restored everything this node logged before the crash;
      // anti-entropy pulls the suffix the peers committed while it was
      // down. Until the catch-up completes the node answers clients with
      // "recovering" instead of serving stale state.
      node_->BeginCatchup([this](const core::RecoveryOutcome& out) {
        std::lock_guard<std::mutex> lock(recovery_mu_);
        ++recovery_.recoveries;
        recovery_.catchup_records += out.catchup_records;
        recovery_.duration_us +=
            static_cast<uint64_t>(out.finished_sim - out.started_sim);
      });
    }
  });
}

void LiveDatacenter::Stop() {
  if (!started_) {
    transport_->Shutdown();
    return;
  }
  started_ = false;
  // Stop the transport first so no reader thread posts into a dead loop.
  transport_->Shutdown();
  loop_.Stop();
  SyncWal();
}

void LiveDatacenter::SyncWal() {
  if (wal_ != nullptr && wal_->is_open()) (void)wal_->SyncToDisk();
}

void LiveDatacenter::OnWirePayload(std::vector<uint8_t> payload) {
  auto env = wire::UnframeEnvelope(payload);
  if (!env.ok()) return;  // Corrupted frame: drop (CRC did its job).
  loop_.Post([this, env = std::move(env).value()]() mutable {
    if (inbound_delay_ > 0) {
      loop_.scheduler().After(inbound_delay_,
                              [this, env = std::move(env)]() mutable {
                                node_->HandleEnvelope(std::move(env));
                              });
    } else {
      node_->HandleEnvelope(std::move(env));
    }
  });
}

void LiveDatacenter::Read(const Key& key, ReadCallback done) {
  loop_.Post([this, key, done = std::move(done)]() {
    node_->HandleRead(key, done);
  });
}

void LiveDatacenter::Commit(std::vector<ReadEntry> reads,
                            std::vector<WriteEntry> writes,
                            CommitCallback done) {
  if (admission_.enabled()) {
    const bool budget_full =
        admission_.max_inflight > 0 &&
        inflight_.load(std::memory_order_relaxed) >= admission_.max_inflight;
    const bool backlogged =
        admission_.queue_watermark > 0 &&
        loop_.queue_depth() >= admission_.queue_watermark;
    if (budget_full || backlogged) {
      // Shed at the door, on the caller's thread: the whole point is to
      // keep overload work off the loop. Clients recognize "busy" and
      // back off (workload::kBusyAbortReason).
      shed_.fetch_add(1, std::memory_order_relaxed);
      done(CommitOutcome{TxnId{}, false, "busy"});
      return;
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    loop_.Post([this, reads = std::move(reads), writes = std::move(writes),
                done = std::move(done)]() mutable {
      node_->HandleCommitRequest(
          std::move(reads), std::move(writes),
          [this, done = std::move(done)](const CommitOutcome& o) {
            inflight_.fetch_sub(1, std::memory_order_relaxed);
            done(o);
          });
    });
    return;
  }
  loop_.Post([this, reads = std::move(reads), writes = std::move(writes),
              done = std::move(done)]() mutable {
    node_->HandleCommitRequest(std::move(reads), std::move(writes),
                               std::move(done));
  });
}

Result<VersionedValue> LiveDatacenter::ReadSync(const Key& key) {
  std::promise<Result<VersionedValue>> promise;
  auto future = promise.get_future();
  Read(key, [&promise](Result<VersionedValue> r) {
    promise.set_value(std::move(r));
  });
  return future.get();
}

CommitOutcome LiveDatacenter::CommitSync(std::vector<ReadEntry> reads,
                                         std::vector<WriteEntry> writes) {
  std::promise<CommitOutcome> promise;
  auto future = promise.get_future();
  Commit(std::move(reads), std::move(writes),
         [&promise](const CommitOutcome& o) { promise.set_value(o); });
  return future.get();
}

void LiveDatacenter::LoadInitial(const Key& key, const Value& value) {
  if (started_) {
    loop_.PostAndWait([this, &key, &value]() {
      node_->LoadInitial(key, value);
    });
  } else {
    node_->LoadInitial(key, value);
  }
}

core::NodeCounters LiveDatacenter::CountersSnapshot() {
  core::NodeCounters out;
  if (!started_) return node_->counters();
  loop_.PostAndWait([this, &out]() { out = node_->counters(); });
  return out;
}

std::string LiveDatacenter::DumpStore() {
  std::map<Key, VersionedValue> latest;
  const auto collect = [this, &latest]() {
    node_->store().ForEachLatest(
        [&latest](const Key& key, const VersionedValue& vv) {
          latest[key] = vv;
        });
  };
  if (started_) {
    loop_.PostAndWait(collect);
  } else {
    collect();
  }
  std::ostringstream out;
  for (const auto& [key, vv] : latest) {
    out << key << '\t' << vv.value << '\t' << vv.ts << '\t'
        << static_cast<int>(vv.writer.origin) << ':' << vv.writer.seq << '\n';
  }
  return out.str();
}

OverloadStats LiveDatacenter::overload_snapshot() const {
  OverloadStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.inflight = inflight_.load(std::memory_order_relaxed);
  out.queue_depth = loop_.queue_depth();
  return out;
}

HealthSnapshot LiveDatacenter::health_snapshot() {
  HealthSnapshot out;
  if (!config_.health.enabled) return out;
  out.enabled = true;
  const size_t n = static_cast<size_t>(config_.num_datacenters);
  out.phi.assign(n, 0.0);
  out.suspected.assign(n, false);
  const auto collect = [this, &out]() {
    for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
      if (dc == id_) continue;
      out.phi[static_cast<size_t>(dc)] = node_->HealthPhi(dc);
      out.suspected[static_cast<size_t>(dc)] = node_->Suspects(dc);
    }
  };
  if (started_) {
    loop_.PostAndWait(collect);
  } else {
    collect();
  }
  return out;
}

core::ClockStepStats LiveDatacenter::clock_snapshot() {
  core::ClockStepStats out;
  if (!started_) return node_->clock_step_stats();
  loop_.PostAndWait([this, &out]() { out = node_->clock_step_stats(); });
  return out;
}

RecoveryStats LiveDatacenter::recovery_snapshot() const {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  return recovery_;
}

WalStats LiveDatacenter::wal_snapshot() {
  WalStats out;
  if (wal_ == nullptr) return out;
  out.enabled = true;
  out.fsyncs = wal_->fsyncs();
  out.fsync_us_total = wal_->fsync_us_total();
  out.fsync_us_max = wal_->fsync_us_max();
  const auto collect = [this, &out]() {
    out.bytes_written = wal_->bytes_written();
    out.entries_appended = wal_->entries_appended();
  };
  if (started_) {
    loop_.PostAndWait(collect);
  } else {
    collect();
  }
  return out;
}

}  // namespace helios::transport
