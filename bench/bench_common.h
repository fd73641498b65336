// Shared plumbing for the figure/table benches: experiment durations
// (overridable through HELIOS_BENCH_SCALE for quick runs), the standard
// protocol lineup, table formatting helpers, and the common CLI
// (--jobs=N for the parallel sweep engine, --json_out= for the
// deterministic results document).
//
// Every bench prints the rows/series of one table or figure of the paper;
// EXPERIMENTS.md records the paper-reported values next to ours. The
// experiment grids themselves are declared as harness::ExperimentSpec
// vectors and executed through harness::SweepRunner, so a bench's
// wall-clock is O(longest run x grid/cores) instead of O(sum of runs).

#ifndef HELIOS_BENCH_BENCH_COMMON_H_
#define HELIOS_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "harness/job_pool.h"
#include "harness/sweep.h"

namespace helios::bench {

/// Parses a HELIOS_BENCH_SCALE value. Returns the parsed scale clamped to
/// [0.01, 100], or `fallback` when `text` is null, empty, not a full
/// number (e.g. the comma-decimal typo "0,2"), or not strictly positive.
/// strtod with end-pointer checking — atof would silently turn garbage
/// into 0 and mask the typo.
inline double ParseBenchScale(const char* text, double fallback = 1.0) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0.0)) {
    std::fprintf(stderr,
                 "warning: ignoring invalid HELIOS_BENCH_SCALE=\"%s\" "
                 "(expected a positive number), using %.2f\n",
                 text, fallback);
    return fallback;
  }
  if (v < 0.01) return 0.01;
  if (v > 100.0) return 100.0;
  return v;
}

/// Scale factor for measurement windows. HELIOS_BENCH_SCALE=0.2 runs ~5x
/// faster (noisier); default 1.0.
inline double BenchScale() {
  return ParseBenchScale(std::getenv("HELIOS_BENCH_SCALE"));
}

inline Duration Scaled(Duration d) {
  return static_cast<Duration>(static_cast<double>(d) * BenchScale());
}

/// The paper's Figure 3/4 lineup.
inline std::vector<harness::Protocol> AllProtocols() {
  return {harness::Protocol::kHelios0,      harness::Protocol::kHelios1,
          harness::Protocol::kHelios2,      harness::Protocol::kHeliosB,
          harness::Protocol::kMessageFutures,
          harness::Protocol::kReplicatedCommit,
          harness::Protocol::kTwoPcPaxos};
}

/// Standard Figure 3 configuration: Table 2 topology, 60 clients.
inline harness::ExperimentSpec Fig3Spec(harness::Protocol p) {
  return harness::ExperimentSpec()
      .WithProtocol(p)
      .WithClients(60)
      .WithWarmup(Scaled(Seconds(4)))
      .WithMeasure(Scaled(Seconds(20)))
      .WithLabel(harness::ProtocolName(p));
}

/// Figure 5's "RTT estimation 1": a deterministic rotation of
/// {+25, +75, -25, -75, 0} ms over the topology's pairs (clamped at 0).
inline lp::RttMatrix RttEstimate1(const harness::Topology& topo) {
  const double deltas[5] = {25.0, 75.0, -25.0, -75.0, 0.0};
  int idx = 0;
  return topo.rtt_ms.Map([&](int, int, double rtt) {
    return std::max(0.0, rtt + deltas[idx++ % 5]);
  });
}

inline void PrintHeading(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Common bench CLI: --jobs=N and --json_out=PATH.
struct BenchArgs {
  int jobs = 1;
  std::string json_out;
};

/// Parses the common flags (harness::cli spellings: --jobs, --json_out);
/// prints usage and exits on error or --help.
inline BenchArgs ParseBenchArgsOrDie(int argc, char** argv) {
  FlagSet flags;
  harness::cli::AddCommonFlags(&flags, /*default_jobs=*/1);
  harness::cli::ParseOrExit(&flags, argc, argv);
  BenchArgs args;
  args.jobs = static_cast<int>(flags.GetInt("jobs"));
  args.json_out = flags.GetString("json_out");
  return args;
}

/// Runs `specs` through the sweep engine with progress on stderr, writes
/// --json_out if requested, and returns the results in spec order. Exits
/// with a diagnostic if any job fails — benches have no recovery path.
inline std::vector<harness::ExperimentResult> RunSweepOrDie(
    const std::vector<harness::ExperimentSpec>& specs, const BenchArgs& args) {
  harness::SweepOptions options;
  options.jobs = args.jobs;
  options.progress = [](const harness::SweepProgress& p) {
    std::fprintf(stderr, "[%d/%d] %s (%.1fs elapsed, eta %.0fs)\n", p.done,
                 p.total, p.last_label.c_str(), p.elapsed_seconds,
                 p.eta_seconds);
  };
  harness::SweepRunner runner(options);
  const harness::SweepResult sweep = runner.Run(specs);
  std::fprintf(stderr, "sweep (%d thread%s): %s\n",
               harness::ResolveJobCount(args.jobs),
               harness::ResolveJobCount(args.jobs) == 1 ? "" : "s",
               sweep.TimingSummary().c_str());
  if (!args.json_out.empty()) {
    const Status st = sweep.WriteJsonFile(args.json_out);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", args.json_out.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "sweep JSON: %s\n", args.json_out.c_str());
  }
  if (!sweep.status().ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<harness::ExperimentResult> results;
  results.reserve(sweep.jobs.size());
  for (const harness::SweepJobResult& job : sweep.jobs) {
    results.push_back(job.result);
  }
  return results;
}

}  // namespace helios::bench

#endif  // HELIOS_BENCH_BENCH_COMMON_H_
