#include "check/runner.h"

namespace helios::check {

void ConfigureForChecking(harness::ExperimentConfig* config) {
  config->trace.enabled = true;
  config->capture_artifacts = true;
}

ScenarioVerdict RunScenario(const harness::ExperimentSpec& spec) {
  ScenarioVerdict verdict;
  verdict.spec = spec;
  auto config = spec.ToConfig();
  if (!config.ok()) {
    verdict.run_status = config.status();
    return verdict;
  }
  ConfigureForChecking(&config.value());
  const harness::ExperimentResult result = RunExperiment(config.value());
  verdict.report = RunOracles(spec, result);
  return verdict;
}

}  // namespace helios::check
