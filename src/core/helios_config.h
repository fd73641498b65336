// Configuration of a Helios deployment.

#ifndef HELIOS_CORE_HELIOS_CONFIG_H_
#define HELIOS_CORE_HELIOS_CONFIG_H_

#include <vector>

#include "common/types.h"

namespace helios::core {

/// Service-time model shared by Helios and the baselines: how long the
/// single-threaded server at a datacenter is occupied by each kind of work.
/// This is the paper's "compute overhead" (Appendix A.1) and is what caps
/// peak throughput in Figure 4. It is the simulator's cost model, standing
/// in for the paper's HBase I/O; a live node (transport::LiveDatacenter)
/// runs with every cost at zero and pays its real CPU and disk instead.
struct ServiceModel {
  Duration read = Micros(60);              ///< Serve one client read.
  Duration commit_request = Micros(100);   ///< Run Algorithm 1.
  Duration log_record = Micros(15);        ///< Process one ingested record.
  Duration log_message = Micros(30);       ///< Fixed cost per log message.
  Duration write_apply = Micros(250);      ///< Install one write (I/O).
  Duration lock_op = Micros(150);          ///< One lock-table operation
                                           ///< (acquire/validate) in the
                                           ///< 2PL baselines.
};

/// Recovery catch-up cadence, shared by HeliosNode and the baselines'
/// ReplicaCluster: a recovering replica re-requests what it missed from
/// peers that have not answered after kCatchupRetryInterval, for up to
/// kCatchupRounds rounds; after that, catch-up finishes with what it has
/// (a peer may itself be down) and regular traffic fills any gap.
constexpr Duration kCatchupRetryInterval = Millis(250);
constexpr int kCatchupRounds = 5;

struct HeliosConfig {
  int num_datacenters = 0;

  /// co[a][b], microseconds; co[a][a] must be 0. Empty means all-zero
  /// offsets (the paper's Helios-B baseline).
  std::vector<std::vector<Duration>> commit_offsets;

  /// f: datacenter outages to tolerate (Helios-0 / 1 / 2). With f > 0 a
  /// transaction additionally waits until f peers acknowledged its record
  /// within the grace time (Rule 3).
  int fault_tolerance = 0;

  /// GT of Section 4.4: a peer refuses to acknowledge a transaction whose
  /// preparing record arrives later than its request timestamp plus GT.
  Duration grace_time = Millis(1000);

  /// Period of partial-log transmission to every peer ("the log is
  /// continuously being propagated": the paper's implementation sends at
  /// clock ticks; this is that tick).
  Duration log_interval = Millis(10);

  /// One-way latency between a client and its home datacenter.
  Duration client_link_one_way = Micros(500);

  /// Period of log / store garbage collection.
  static constexpr Duration gc_interval = Millis(500);

  /// The simulator's cost model (Fig. 4's plateau); the live path ignores
  /// it.
  ServiceModel service;

  /// Per-datacenter clock offsets (for Figure 5 skew experiments); empty
  /// means perfectly synchronized clocks.
  std::vector<Duration> clock_offsets;

  /// Gray-failure health machinery (src/health + the suspicion-driven
  /// degraded commit in HeliosNode). Off by default: detection feeds from
  /// envelope arrivals and evaluation piggybacks on the gossip tick, so
  /// enabling it schedules no new events, but suspicion reactions do change
  /// protocol behavior under crashes — experiments opt in explicitly.
  /// Enabled, a phi-accrual detector (health/phi_detector.h) watches every
  /// peer, a suspicion quorum licenses commits that skip the suspect
  /// (degraded commit; requires f >= 1 and the Helios rule) and hedged
  /// catch-up pulls go out every 100 ms.
  bool health_enabled = false;

  /// Transaction-sequence interleaving for sharded deployments (src/shard):
  /// a node mints TxnId sequence numbers start, start+stride, ... so the S
  /// per-shard logs of one datacenter (shard s uses start = s+1, stride =
  /// S+1) and the cross-shard coordinator (residue 0) never collide. The
  /// defaults reproduce the unsharded stream 1, 2, 3, ... exactly.
  uint64_t txn_seq_start = 1;
  uint64_t txn_seq_stride = 1;

  Duration commit_offset(DcId a, DcId b) const {
    if (commit_offsets.empty()) return 0;
    return commit_offsets[static_cast<size_t>(a)][static_cast<size_t>(b)];
  }
};

}  // namespace helios::core

#endif  // HELIOS_CORE_HELIOS_CONFIG_H_
