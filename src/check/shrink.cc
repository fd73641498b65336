#include "check/shrink.h"

#include <utility>
#include <vector>

#include "check/runner.h"
#include "check/scenario_gen.h"

namespace helios::check {

namespace {

using harness::ExperimentSpec;

/// One simplification attempt: an edit applied to the current best spec.
using Edit = std::function<bool(ExperimentSpec*)>;  // false = no-op here

/// True if every node, partition and gray event of `s` is over by the
/// quiet point the generator keeps (warmup + measure - kQuietTail). A
/// window edit that breaks this would judge the repro by oracles
/// calibrated for a quiet tail it no longer has.
bool FaultsEndBeforeQuietTail(const ExperimentSpec& s) {
  const sim::SimTime quiet_from = s.warmup + s.measure - kQuietTail;
  for (const sim::NodeEvent& e : s.fault_plan.node_events) {
    if (e.at > quiet_from) return false;
  }
  for (const sim::PartitionEvent& e : s.fault_plan.partition_events) {
    if (e.at > quiet_from) return false;
  }
  for (const sim::GrayFault& g : s.fault_plan.gray_faults) {
    if (g.active_until > quiet_from) return false;
  }
  return true;
}

/// The candidate edits for one round, most aggressive first (clearing the
/// whole fault plan in one step beats dropping events one by one when the
/// plan is irrelevant to the failure). Event-drop edits are regenerated
/// every round because accepting one renumbers the lists.
std::vector<Edit> EditsFor(const ExperimentSpec& spec) {
  std::vector<Edit> edits;
  if (!spec.fault_plan.empty()) {
    edits.push_back([](ExperimentSpec* s) {
      s->fault_plan = sim::FaultPlan{};
      // The timeout only existed to survive the faults.
      s->client_timeout = 0;
      s->client_retries = 3;
      return true;
    });
    for (size_t i = 0; i < spec.fault_plan.node_events.size(); ++i) {
      edits.push_back([i](ExperimentSpec* s) {
        auto& v = s->fault_plan.node_events;
        if (i >= v.size()) return false;
        v.erase(v.begin() + static_cast<ptrdiff_t>(i));
        return true;
      });
    }
    for (size_t i = 0; i < spec.fault_plan.partition_events.size(); ++i) {
      edits.push_back([i](ExperimentSpec* s) {
        auto& v = s->fault_plan.partition_events;
        if (i >= v.size()) return false;
        v.erase(v.begin() + static_cast<ptrdiff_t>(i));
        return true;
      });
    }
    for (size_t i = 0; i < spec.fault_plan.link_faults.size(); ++i) {
      edits.push_back([i](ExperimentSpec* s) {
        auto& v = s->fault_plan.link_faults;
        if (i >= v.size()) return false;
        v.erase(v.begin() + static_cast<ptrdiff_t>(i));
        return true;
      });
    }
    for (size_t i = 0; i < spec.fault_plan.gray_faults.size(); ++i) {
      edits.push_back([i](ExperimentSpec* s) {
        auto& v = s->fault_plan.gray_faults;
        if (i >= v.size()) return false;
        v.erase(v.begin() + static_cast<ptrdiff_t>(i));
        return true;
      });
    }
  }
  // Unshard: if the failure reproduces on the plain single-deployment
  // cluster, the cross-shard machinery is not part of the story.
  edits.push_back([](ExperimentSpec* s) {
    if (s->shards <= 1) return false;
    s->shards = 1;
    s->shard_by = "hash";
    return true;
  });
  // Health reaction off (detection alone rarely reproduces a failure that
  // degraded commit caused).
  edits.push_back([](ExperimentSpec* s) {
    if (!s->health_enabled) return false;
    s->health_enabled = false;
    return true;
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->clients <= 2) return false;
    s->clients = std::max(2, s->clients / 2);
    return true;
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->measure <= Millis(1500)) return false;
    s->measure = std::max<Duration>(Millis(1500), s->measure / 2);
    return FaultsEndBeforeQuietTail(*s);
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->drain <= Millis(1000)) return false;
    s->drain = std::max<Duration>(Millis(1000), s->drain / 2);
    return true;
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->warmup <= Millis(200)) return false;
    s->warmup = Millis(200);
    return FaultsEndBeforeQuietTail(*s);
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->zipf_theta == 0.0) return false;
    s->zipf_theta = 0.0;
    return true;
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->read_only_fraction == 0.0) return false;
    s->read_only_fraction = 0.0;
    return true;
  });
  edits.push_back([](ExperimentSpec* s) {
    if (s->clock_offsets.empty()) return false;
    s->clock_offsets.clear();
    return true;
  });
  edits.push_back([](ExperimentSpec* s) {
    if (!s->rtt_estimate_ms.has_value()) return false;
    s->rtt_estimate_ms.reset();
    return true;
  });
  return edits;
}

}  // namespace

int CountFaultEvents(const ExperimentSpec& spec) {
  return static_cast<int>(spec.fault_plan.link_faults.size() +
                          spec.fault_plan.gray_faults.size() +
                          spec.fault_plan.node_events.size() +
                          spec.fault_plan.partition_events.size());
}

ShrinkResult Shrink(const ExperimentSpec& spec, const ShrinkOptions& options,
                    ScenarioEvaluator evaluate) {
  if (!evaluate) {
    const OracleOptions oracles = options.oracles;
    evaluate = [oracles](const ExperimentSpec& s) -> std::string {
      const ScenarioVerdict v = RunScenario(s, oracles);
      // A spec that no longer runs is not "the same failure".
      if (!v.run_status.ok()) return "";
      return v.report.FirstFailureName();
    };
  }

  ShrinkResult out;
  out.spec = spec;
  out.oracle = evaluate(spec);
  out.runs = 1;
  out.fault_events = CountFaultEvents(spec);
  if (out.oracle.empty()) return out;  // Nothing to shrink: it passes.

  // Greedy fixpoint: accept any edit that keeps the same oracle failing,
  // restart the round after an accept (event indices shift), stop when a
  // full round yields nothing or the budget runs out.
  bool progressed = true;
  while (progressed && out.runs < options.max_runs) {
    progressed = false;
    for (const Edit& edit : EditsFor(out.spec)) {
      if (out.runs >= options.max_runs) break;
      ExperimentSpec candidate = out.spec;
      if (!edit(&candidate)) continue;
      if (!candidate.Validate().ok()) continue;
      ++out.runs;
      if (evaluate(candidate) == out.oracle) {
        out.spec = std::move(candidate);
        progressed = true;
        break;
      }
    }
  }
  out.fault_events = CountFaultEvents(out.spec);
  return out;
}

}  // namespace helios::check
