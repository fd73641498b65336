// SweepRunner: executes a grid of ExperimentSpecs concurrently on a
// fixed-size JobPool and reduces the results deterministically.
//
// Determinism contract: every experiment is a self-contained deterministic
// simulation (its own scheduler, network, RNGs — seeded from the spec, no
// globals), so the per-job results and the aggregated JSON are BIT-
// IDENTICAL whatever `jobs` is; only wall-clock changes. Tests pin this
// (sweep_engine_test.cc, SerialAndParallelRunsAreBitIdentical).
//
// Failure policy: a job fails if its spec does not validate or if its
// requested serializability check finds a violation. The first failure
// cancels every job still queued (running jobs finish); the sweep then
// reports which jobs ran, failed, or were cancelled.
//
// Progress: an optional callback fires after every job (serialized).

#ifndef HELIOS_HARNESS_SWEEP_H_
#define HELIOS_HARNESS_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"

namespace helios::harness {

struct SweepProgress {
  int done = 0;    ///< Jobs finished (ok or failed).
  int total = 0;
  int failed = 0;
  double elapsed_seconds = 0.0;
  double eta_seconds = 0.0;         ///< elapsed * remaining / done.
  std::string last_label;           ///< DisplayName of the job that just finished.
  Status last_status;
};

struct SweepOptions {
  /// Worker threads; <= 0 means hardware concurrency.
  int jobs = 1;
  /// Called after each job completes. Invocations are serialized; keep it
  /// cheap (it runs on a worker thread while siblings may be blocked).
  std::function<void(const SweepProgress&)> progress;

  /// Adjusts the materialized config after spec validation and before the
  /// run (runs on a worker thread; must be thread-safe). The fuzz driver
  /// uses it to flip on tracing and artifact capture — knobs deliberately
  /// outside the spec JSON.
  std::function<void(const ExperimentSpec&, ExperimentConfig*)> configure;

  /// Post-run check, called for jobs whose experiment ran and passed the
  /// built-in checks (runs on a worker thread; must be thread-safe). A
  /// non-OK status fails the job, which cancels the rest of the sweep.
  /// The callee may free heavy result fields (capture, trace) it has
  /// finished with.
  std::function<Status(const ExperimentSpec&, ExperimentResult*)> check;
};

struct SweepJobResult {
  ExperimentSpec spec;       ///< Config echo.
  Status status;             ///< OK iff the experiment ran (and passed checks).
  bool ran = false;          ///< False for jobs cancelled before starting.
  ExperimentResult result;   ///< Valid iff status.ok().
  double wall_seconds = 0.0; ///< This job's wall-clock (not in the JSON).
};

struct SweepResult {
  std::vector<SweepJobResult> jobs;  ///< In input-spec order.
  bool cancelled = false;
  double wall_seconds = 0.0;         ///< Whole-sweep wall-clock.
  double total_job_seconds = 0.0;    ///< Sum of per-job wall-clocks.

  /// OK iff every job ran and succeeded; otherwise the first failure (or
  /// a cancellation status for jobs that never started).
  Status status() const;

  /// Aggregate-compute over wall-clock: the parallel speedup actually
  /// realized (1.0 when jobs=1, up to min(jobs, grid) on idle cores).
  double Speedup() const;

  /// Deterministic JSON: stable (alphabetical) key order, per-job spec
  /// echo, per-DC metrics. Timing fields are deliberately excluded so the
  /// document is bit-identical across serial and parallel runs.
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

  /// One-line human timing summary ("8 jobs on 4 threads: wall 12.3s,
  /// aggregate 45.1s, speedup 3.67x").
  std::string TimingSummary() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs all specs to completion (or cancellation). Blocking; thread-safe
  /// for distinct runners.
  SweepResult Run(const std::vector<ExperimentSpec>& specs);

  const SweepOptions& options() const { return options_; }

 private:
  SweepOptions options_;
};

}  // namespace helios::harness

#endif  // HELIOS_HARNESS_SWEEP_H_
