// helios_fuzz: randomized scenario exploration with invariant oracles and
// automatic shrinking (docs/TESTING.md).
//
// Samples deterministic scenarios with check::ScenarioGenerator, fans them
// out over harness::SweepRunner, and judges every run with the
// check::RunOracles invariant suite (serializability, session guarantees,
// exactly-once commit, WAL-replay equivalence, metrics sanity). On the
// first failing scenario it greedily shrinks the spec to a minimal repro,
// writes it as self-contained JSON, and exits nonzero.
//
// Examples:
//   helios_fuzz --scenarios=200                     # the acceptance sweep
//   helios_fuzz --scenarios=50 --time_budget=120s   # CI smoke budget
//   helios_fuzz --protocols=helios1 --master_seed=7
//   helios_fuzz --replay=repro.json                 # re-judge one repro
//
// Every scenario is a pure function of (--master_seed, index): a failure
// report names the index, and --start_index re-explores from there.

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "check/runner.h"
#include "check/scenario_gen.h"
#include "check/shrink.h"
#include "common/flags.h"
#include "harness/cli.h"
#include "harness/job_pool.h"
#include "harness/sweep.h"

using namespace helios;
namespace hns = helios::harness;
namespace cli = helios::harness::cli;

namespace {

/// "120s", "2m" or plain seconds; 0 / empty = unlimited.
Result<double> ParseTimeBudget(const std::string& text) {
  if (text.empty()) return 0.0;
  size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (...) {
    return Status::InvalidArgument("bad --time_budget '" + text + "'");
  }
  const std::string suffix = text.substr(pos);
  if (suffix == "m") return value * 60.0;
  if (suffix.empty() || suffix == "s") return value;
  return Status::InvalidArgument("bad --time_budget suffix '" + suffix + "'");
}

int ReplayOne(const std::string& path) {
  auto text = cli::ReadWholeFile(path);
  if (!text.ok()) {
    return cli::FailWith(text.status(), cli::kExitUsage);
  }
  auto spec = hns::ExperimentSpec::FromJson(text.value());
  if (!spec.ok()) {
    std::fprintf(stderr, "bad repro %s: %s\n", path.c_str(),
                 spec.status().ToString().c_str());
    return cli::kExitUsage;
  }
  if (const Status v = spec.value().Validate(); !v.ok()) {
    std::fprintf(stderr, "invalid repro %s: %s\n", path.c_str(),
                 v.ToString().c_str());
    return cli::kExitUsage;
  }
  std::fprintf(stderr, "replaying %s...\n",
               spec.value().DisplayName().c_str());
  const check::ScenarioVerdict verdict = check::RunScenario(spec.value());
  std::fputs(verdict.report.Summary().c_str(), stderr);
  if (verdict.ok()) {
    std::fprintf(stderr, "PASS: every oracle holds\n");
    return 0;
  }
  std::fprintf(stderr, "FAIL: %s\n", verdict.status().ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("scenarios", 100, "number of scenarios to explore");
  flags.DefineInt("master_seed", 1,
                  "master seed; scenario i is a pure function of "
                  "(master_seed, i)");
  flags.DefineInt("start_index", 0, "first scenario index");
  flags.DefineString("protocols", "helios1,helios2,rc,2pc",
                     "comma-separated protocols to draw scenarios from");
  flags.DefineInt("jobs", 0,
                  "concurrent jobs (0 = one per hardware thread)");
  flags.DefineString("time_budget", "",
                     "stop exploring after this much wall-clock "
                     "(e.g. 120s, 2m; empty = run all scenarios)");
  flags.DefineString("repro_out", "repro.json",
                     "write the (shrunk) failing spec here");
  flags.DefineString("replay", "",
                     "replay one spec JSON through the oracles and exit "
                     "(no generation, no shrinking)");
  flags.DefineBool("shrink", true, "minimize the first failing scenario");
  flags.DefineInt("max_shrink_runs", 250,
                  "shrinking budget in candidate simulations");
  flags.DefineBool("crashes", true, "explore crash/recover faults");
  flags.DefineBool("partitions", true, "explore network partitions");
  flags.DefineBool("message_faults", true,
                   "explore message loss/duplication/reordering/delay");
  flags.DefineBool("clock_skew", true, "explore clock-skew vectors");
  flags.DefineBool("gray", true,
                   "explore gray faults (slow links, asymmetric partitions, "
                   "process/fsync stalls) with the health subsystem armed");
  flags.DefineString("shards", "1",
                     "comma-separated shard counts to draw from (src/shard); "
                     "counts > 1 apply to Helios-family scenarios only");
  flags.DefineBool("help", false, "show this help");
  cli::ParseOrExit(&flags, argc, argv);

  if (!flags.GetString("replay").empty()) {
    return ReplayOne(flags.GetString("replay"));
  }

  auto budget = ParseTimeBudget(flags.GetString("time_budget"));
  if (!budget.ok()) {
    return cli::FailWith(budget.status(), cli::kExitUsage);
  }

  check::GeneratorOptions gen_options;
  gen_options.master_seed = static_cast<uint64_t>(flags.GetInt("master_seed"));
  gen_options.crashes = flags.GetBool("crashes");
  gen_options.partitions = flags.GetBool("partitions");
  gen_options.message_faults = flags.GetBool("message_faults");
  gen_options.clock_skew = flags.GetBool("clock_skew");
  gen_options.gray_faults = flags.GetBool("gray");
  auto protocols = cli::ParseProtocolList(flags.GetString("protocols"));
  if (!protocols.ok()) {
    return cli::FailWith(protocols.status(), cli::kExitUsage);
  }
  gen_options.protocols = std::move(protocols).value();
  {
    std::vector<int> shard_counts;
    const std::string text = flags.GetString("shards");
    size_t pos = 0;
    while (pos <= text.size()) {
      const size_t comma = std::min(text.find(',', pos), text.size());
      const std::string token = text.substr(pos, comma - pos);
      pos = comma + 1;
      if (token.empty()) continue;
      int value = 0;
      try {
        value = std::stoi(token);
      } catch (...) {
        value = 0;
      }
      if (value < 1) {
        return cli::FailWith(
            Status::InvalidArgument("bad --shards entry '" + token + "'"),
            cli::kExitUsage);
      }
      shard_counts.push_back(value);
    }
    if (!shard_counts.empty()) gen_options.shard_counts = shard_counts;
  }
  const check::ScenarioGenerator generator(gen_options);

  const int total = static_cast<int>(flags.GetInt("scenarios"));
  const int jobs = hns::ResolveJobCount(static_cast<int>(flags.GetInt("jobs")));
  uint64_t next_index = static_cast<uint64_t>(flags.GetInt("start_index"));
  const auto started = std::chrono::steady_clock::now();
  const auto elapsed_s = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  // Oracle failures keyed by scenario label; the sweep's Status only
  // carries a message, the shrinker needs the oracle name.
  std::mutex mu;
  std::map<std::string, std::string> failed_oracle;

  hns::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.configure = [](const hns::ExperimentSpec&,
                               hns::ExperimentConfig* config) {
    check::ConfigureForChecking(config);
  };
  sweep_options.check = [&](const hns::ExperimentSpec& spec,
                            hns::ExperimentResult* result) {
    const check::OracleReport report = check::RunOracles(spec, *result);
    // The heavy artifacts (WAL copies, store snapshots, traces) have
    // served their purpose; drop them before the next scenario queues.
    result->capture.reset();
    result->trace.reset();
    if (report.ok()) return Status::Ok();
    {
      std::lock_guard<std::mutex> lock(mu);
      failed_oracle[spec.label] = report.FirstFailureName();
    }
    return report.status();
  };
  sweep_options.progress = [total, &next_index,
                            &elapsed_s](const hns::SweepProgress& p) {
    // next_index counts completed batches; p counts within the batch.
    std::fprintf(stderr, "[%llu scenarios, %.0fs] %s: %s\n",
                 static_cast<unsigned long long>(next_index) + p.done,
                 elapsed_s(), p.last_label.c_str(),
                 p.last_status.ok() ? "ok"
                                    : p.last_status.ToString().c_str());
    (void)total;
  };

  int explored = 0;
  hns::ExperimentSpec failing;
  bool found_failure = false;
  while (explored < total) {
    if (budget.value() > 0.0 && elapsed_s() >= budget.value()) {
      std::fprintf(stderr,
                   "time budget exhausted after %d/%d scenarios (%.0fs); "
                   "no invariant violations found\n",
                   explored, total, elapsed_s());
      return 0;
    }
    const int batch =
        std::min(total - explored, std::max(2 * jobs, 8));
    std::vector<hns::ExperimentSpec> specs;
    specs.reserve(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      specs.push_back(generator.Scenario(next_index + static_cast<uint64_t>(i)));
    }
    hns::SweepRunner runner(sweep_options);
    const hns::SweepResult sweep = runner.Run(specs);
    for (const hns::SweepJobResult& job : sweep.jobs) {
      if (job.ran && !job.status.ok()) {
        failing = job.spec;
        found_failure = true;
        break;
      }
    }
    if (found_failure) break;
    explored += batch;
    next_index += static_cast<uint64_t>(batch);
  }

  if (!found_failure) {
    std::fprintf(stderr,
                 "explored %d scenarios in %.0fs: every oracle holds\n",
                 explored, elapsed_s());
    return 0;
  }

  std::string oracle;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = failed_oracle.find(failing.label);
    if (it != failed_oracle.end()) oracle = it->second;
  }
  std::fprintf(stderr, "\nFAILURE: scenario %s violates %s\n",
               failing.DisplayName().c_str(),
               oracle.empty() ? "an invariant" : oracle.c_str());

  hns::ExperimentSpec repro = failing;
  if (flags.GetBool("shrink")) {
    check::ShrinkOptions shrink_options;
    shrink_options.max_runs = static_cast<int>(flags.GetInt("max_shrink_runs"));
    std::fprintf(stderr, "shrinking (budget %d runs)...\n",
                 shrink_options.max_runs);
    const check::ShrinkResult shrunk = check::Shrink(failing, shrink_options);
    if (shrunk.oracle.empty()) {
      // Should not happen for a deterministic failure; keep the original.
      std::fprintf(stderr,
                   "warning: failure did not reproduce under the shrinker; "
                   "writing the unshrunk spec\n");
    } else {
      repro = shrunk.spec;
      std::fprintf(stderr,
                   "shrunk to %d fault-plan events, %d clients, %lldms "
                   "window in %d runs (oracle: %s)\n",
                   shrunk.fault_events, repro.clients,
                   static_cast<long long>(ToMillis(repro.measure)),
                   shrunk.runs, shrunk.oracle.c_str());
    }
  }

  const std::string repro_out = flags.GetString("repro_out");
  if (const Status s = cli::WriteWholeFile(repro_out, repro.ToJson() + "\n");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  } else {
    std::fprintf(stderr, "repro written to %s (replay with --replay=%s)\n",
                 repro_out.c_str(), repro_out.c_str());
  }
  return 1;
}
