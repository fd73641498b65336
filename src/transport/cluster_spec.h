// ClusterSpec: the JSON deployment description a live Helios cluster is
// launched from — the operator-facing counterpart of the in-process
// core::HeliosConfig.
//
// One document describes the whole deployment; every heliosd process
// (tools/heliosd.cc) loads the same file and picks out its own row by the
// --dc index, so the peers agree on ports, protocol timing, and
// durability policy by construction. The supervisor
// (tools/helios_supervisor.cc) loads it too, to know what to launch and
// where to reconnect after a kill.
//
// Schema (deterministic JSON, alphabetical keys; see docs/OPERATIONS.md):
//
//   {
//     "datacenters": [{"port": 7101, "wal": "/var/lib/helios/dc0.wal"}, ...],
//     "fault_tolerance": 0,
//     "fsync": "group",            // os | every | group (wal::SyncPolicy)
//     "grace_time_ms": 1000,
//     "group_commit_us": 5000,     // fsync batching window under "group"
//     "health_enabled": true,      // phi-accrual gray-failure detection
//     "inbound_delay_ms": 0,       // emulated one-way WAN latency
//     "log_interval_ms": 10,
//     "shards": 2                  // horizontal shards per datacenter
//   }
//
// `health_enabled` (omitted when false, the default) arms the phi-accrual
// failure detector and suspicion-driven degraded commit in every daemon;
// the resulting health.* gauges land in the heliosd metrics JSON.
//
// `shards` (omitted when 1, the default) declares S independent
// replication planes: shard k of every datacenter forms its own live
// Helios cluster (own log, own timetable, own WAL), mirroring the
// simulator's sharded core::HeliosCluster. One heliosd process serves
// one (dc, shard) cell, selected by --dc and --shard; its listen port is
// PortOf(dc, shard) = datacenters[dc].port + shard * num_datacenters()
// and its WAL is WalPathFor(dc, shard) (the per-DC path with ".s<k>"
// appended when sharded, so dc0.wal becomes dc0.wal.s0 / dc0.wal.s1).
// Validate() rejects derived-port collisions and overflow past 65535.
// Routing keys to shards and cross-shard commit are client concerns; the
// live layer provides the per-shard durability and replication planes
// (see docs/SHARDING.md).
//
// Unknown keys are an error (operator typos must not silently become
// defaults), and every tool validates before launching.

#ifndef HELIOS_TRANSPORT_CLUSTER_SPEC_H_
#define HELIOS_TRANSPORT_CLUSTER_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/helios_config.h"
#include "wal/file_wal.h"

namespace helios::transport {

/// One datacenter's row: where it listens and where it journals.
struct DatacenterSpec {
  uint16_t port = 0;
  std::string wal_path;  ///< Empty: run without a WAL (no durability).
};

struct ClusterSpec {
  std::vector<DatacenterSpec> datacenters;
  int fault_tolerance = 0;
  Duration grace_time = Millis(1000);
  Duration log_interval = Millis(10);
  Duration inbound_delay = 0;
  wal::FileWalOptions wal_options;
  /// Arms the health subsystem (failure detection + degraded commit).
  bool health_enabled = false;
  /// Independent replication planes per datacenter (see file comment).
  int shards = 1;

  int num_datacenters() const {
    return static_cast<int>(datacenters.size());
  }

  /// Ports indexed by DC id (the shape LiveDatacenter::ConnectPeers wants).
  /// `shard` selects the plane: every plane gets its own disjoint port set.
  std::vector<uint16_t> ports(int shard = 0) const;

  /// Listen port of shard `shard` at datacenter `dc`:
  /// datacenters[dc].port + shard * num_datacenters().
  uint16_t PortOf(int dc, int shard) const;

  /// WAL path of shard `shard` at datacenter `dc`. Identity when the spec
  /// is unsharded (old files keep their exact paths); with shards > 1 the
  /// per-DC path gains a ".s<k>" suffix. Empty stays empty (no WAL).
  std::string WalPathFor(int dc, int shard) const;

  /// The protocol config every heliosd derives from this spec. Commit
  /// offsets stay empty (Helios-B: every commit waits one apparent one-way
  /// delay from each peer), since the file carries no RTTs and heliosd
  /// does not replan from the ones its node measures. Each daemon
  /// disciplines its clock against its peers (core::ClockDiscipline), so
  /// that delay is the path's real RTT/2 and not the gap between the
  /// instants the daemons started.
  core::HeliosConfig MakeConfig() const;

  /// At least one datacenter, every derived (dc, shard) port nonzero,
  /// unique, and <= 65535; shards >= 1; timing strictly positive, delay
  /// non-negative.
  Status Validate() const;

  /// Deterministic JSON (stable alphabetical keys).
  std::string ToJson() const;

  /// Parses ToJson() output or hand-written specs; unknown keys are an
  /// error. Run Validate() before using.
  static Result<ClusterSpec> FromJson(const std::string& text);
};

}  // namespace helios::transport

#endif  // HELIOS_TRANSPORT_CLUSTER_SPEC_H_
