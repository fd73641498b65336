// live-voc: three in-process transport::LiveDatacenter nodes over loopback
// TCP, each journaling to a group-commit FileWal, with admission control on.
// One generator thread offers open-loop Poisson T-YCSB transactions (reads
// through Read, then Commit) and times every transaction from the moment it
// was due, so a stalled generator shows up as latency and as
// gen_lag_p99_ms rather than being hidden.
//
// Correctness gate: every arrival ends committed, aborted, shed, failed on
// a read or undrained, exactly once; and after the drain the three
// datacenters' DumpStore() outputs are byte-identical.
//
// With trace on, the run has two halves on one cluster: an untraced half
// and a traced half that also times the transport calls and samples loop
// queue depth. trace_overhead_ratio is their CPU per commit, traced over
// untraced. The WAL files are then recovered and replayed (replay.h).

#ifndef HELIOS_PERFBENCH_LIVE_BENCH_H_
#define HELIOS_PERFBENCH_LIVE_BENCH_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "report.h"
#include "workloads.h"

namespace helios::perfbench {

struct LiveOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  Scale scale = Scale::kFull;
  std::string tmp_dir;
  bool trace = false;
  /// Overrides the admission budget (0: the workload's own).
  uint64_t max_inflight = 0;
};

Status RunLive(const LiveOptions& opt, Report* report);

}  // namespace helios::perfbench

#endif  // HELIOS_PERFBENCH_LIVE_BENCH_H_
