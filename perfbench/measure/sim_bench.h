// The simulator workloads (table2-helios0, contended-sharded).
//
// Three modes, each run in its own process by run.py:
//  * check — the traced, artifact-capturing run, judged by every
//            check::RunOracles oracle; prints the run's fingerprint.
//  * timed — untraced: set-up timed on its own, then the whole experiment
//            repeated for the requested seconds; prints the end-to-end
//            metrics and the fingerprint, which must equal check's.
//  * trace — the traced run again, plus the stage ledger, protocol counts,
//            layer replays and an untraced run for the tracing overhead;
//            prints the per-layer metrics.
// The fingerprint holds every datacenter's committed and aborted counts and
// exact p50/p99, so two processes with the same seed must print the same one.

#ifndef HELIOS_PERFBENCH_SIM_BENCH_H_
#define HELIOS_PERFBENCH_SIM_BENCH_H_

#include <string>

#include "common/status.h"
#include "report.h"
#include "workloads.h"

namespace helios::perfbench {

struct SimOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  Scale scale = Scale::kFull;
  std::string tmp_dir;
};

Status RunSimCheck(const SimOptions& opt, Report* report);
Status RunSimTimed(const SimOptions& opt, Report* report);
Status RunSimTrace(const SimOptions& opt, Report* report);

}  // namespace helios::perfbench

#endif  // HELIOS_PERFBENCH_SIM_BENCH_H_
