// The benchmark's workloads. Each is a fixed description plus the seed the
// caller passes in; nothing else varies between runs. README.md records why
// each one exists.

#ifndef HELIOS_PERFBENCH_WORKLOADS_H_
#define HELIOS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "harness/experiment_spec.h"
#include "lp/mao.h"
#include "workload/tycsb.h"

namespace helios::perfbench {

/// kTiny shrinks every workload to a few seconds of work for the self-test;
/// the workload's shape (protocol, topology, contention) stays the same.
enum class Scale { kFull, kTiny };

inline constexpr const char* kTable2Helios0 = "table2-helios0";
inline constexpr const char* kContendedSharded = "contended-sharded";
inline constexpr const char* kLiveVoc = "live-voc";

bool IsSimWorkload(const std::string& name);
bool IsKnownWorkload(const std::string& name);

/// The simulator workloads as validated specs.
Result<harness::ExperimentSpec> SimSpec(const std::string& name, uint64_t seed,
                                        Scale scale);

/// Trace ring capacity that holds every event of `spec`'s run with room to
/// spare (the run fails if anything is still dropped).
size_t TraceRingCapacityFor(const harness::ExperimentSpec& spec);

/// live-voc: three in-process datacenters emulating Table 2's Virginia,
/// Oregon and California over loopback.
struct LiveWorkload {
  std::vector<std::string> names{"V", "O", "C"};
  /// Per-node inbound delay (ms); d_a + d_b is the emulated RTT(a, b).
  std::vector<double> inbound_delay_ms{62.5, 3.5, 15.5};
  double rate_per_s = 600.0;      ///< Open-loop Poisson arrival rate.
  double warmup_s = 0.5;          ///< Arrivals before this are not measured.
  double measure_s = 15.0;        ///< Arrival window that is measured.
  double drain_timeout_s = 5.0;   ///< Wait for outstanding decisions.
  int setup_reps = 5;             ///< Cluster set-ups timed for setup_s.
  uint64_t max_inflight = 1000;   ///< Admission control, per datacenter.
  uint64_t queue_watermark = 10000;
  workload::WorkloadConfig txn;   ///< T-YCSB shape of every transaction.
  uint64_t seed = 1;

  /// RTT(a, b) = inbound_delay[a] + inbound_delay[b].
  lp::RttMatrix Rtt() const;
};

LiveWorkload LiveSpec(uint64_t seed, double seconds, Scale scale);

}  // namespace helios::perfbench

#endif  // HELIOS_PERFBENCH_WORKLOADS_H_
