// Shrinker: greedy minimization of a failing fuzz scenario.
//
// Given a spec on which some oracle fails, the shrinker repeatedly tries
// simplifying edits — drop the whole fault plan, drop individual fault
// events, halve the client count and window durations, reset workload
// skew and clock offsets to defaults — and keeps an edit only when the
// simplified scenario still fails the SAME oracle (determinism makes
// "still fails" a pure function of the spec). It loops to a fixpoint or
// until the run budget is spent. The result is the small, self-contained
// repro the fuzz driver writes as JSON on failure.

#ifndef HELIOS_CHECK_SHRINK_H_
#define HELIOS_CHECK_SHRINK_H_

#include <functional>
#include <string>

#include "check/oracles.h"
#include "harness/experiment_spec.h"

namespace helios::check {

/// Judges one candidate spec: returns the name of the failing oracle
/// ("serializability", ...), or "" if the scenario passes. The default
/// evaluator wraps check::RunScenario; tests inject cheap predicates.
using ScenarioEvaluator =
    std::function<std::string(const harness::ExperimentSpec&)>;

struct ShrinkOptions {
  /// Budget: total candidate evaluations (each one a full simulation with
  /// the default evaluator).
  int max_runs = 250;
};

struct ShrinkResult {
  /// The minimized spec — still failing `oracle`, Validate()-clean.
  harness::ExperimentSpec spec;
  /// The oracle the original spec failed (shrinking preserves it).
  std::string oracle;
  /// Candidate evaluations spent (including the initial confirmation run).
  int runs = 0;
  /// Fault-plan events remaining in the minimized spec.
  int fault_events = 0;
};

/// Counts link faults + node events + partition events of a plan.
int CountFaultEvents(const harness::ExperimentSpec& spec);

/// Minimizes `spec`. Requires that `spec` currently fails (the first
/// evaluation confirms it; if it passes, the original spec is returned
/// with an empty `oracle`). The returned spec is always valid and always
/// reproduces the failure via the same evaluator.
ShrinkResult Shrink(const harness::ExperimentSpec& spec,
                    const ShrinkOptions& options = {},
                    ScenarioEvaluator evaluate = nullptr);

}  // namespace helios::check

#endif  // HELIOS_CHECK_SHRINK_H_
