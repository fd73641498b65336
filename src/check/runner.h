// RunScenario: executes one fuzz scenario end to end — materialize the
// spec, run the deterministic simulation with artifact capture + tracing
// enabled, then judge the run with the oracle suite. This is the single
// evaluation function shared by the fuzz driver (tools/helios_fuzz), the
// shrinker, the corpus replay test, and the mutation smoke test, so a
// repro JSON replays through exactly the code path that found it.

#ifndef HELIOS_CHECK_RUNNER_H_
#define HELIOS_CHECK_RUNNER_H_

#include "check/oracles.h"
#include "common/status.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"

namespace helios::check {

/// Turns the oracles' required instrumentation on: tracing (for the
/// metrics snapshot) and artifact capture (history, session logs, WALs,
/// store snapshots). The fuzz driver's SweepRunner configure hook applies
/// this to every job.
void ConfigureForChecking(harness::ExperimentConfig* config);

struct ScenarioVerdict {
  harness::ExperimentSpec spec;
  /// Spec validation / config materialization outcome. The oracle report
  /// is only meaningful when this is OK.
  Status run_status;
  OracleReport report;

  bool ok() const { return run_status.ok() && report.ok(); }
  /// run_status if it failed, else the first failing oracle's status.
  Status status() const {
    return run_status.ok() ? report.status() : run_status;
  }
};

/// Runs `spec` and checks every oracle. Deterministic: the same spec
/// always produces the same verdict.
ScenarioVerdict RunScenario(const harness::ExperimentSpec& spec);

}  // namespace helios::check

#endif  // HELIOS_CHECK_RUNNER_H_
