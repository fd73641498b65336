// Unit tests for the simulation fuzzer (src/check): scenario generation,
// the invariant oracles over hand-built run artifacts, and the shrinker
// with an injected (cheap) evaluator. End-to-end suites that run whole
// simulations live in corpus_replay_test.cc and check_mutation_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "check/scenario_gen.h"
#include "check/shrink.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"

namespace helios::check {
namespace {

namespace hns = helios::harness;

// --- generator --------------------------------------------------------------

TEST(ScenarioGenerator, DeterministicPerIndex) {
  const ScenarioGenerator a;
  const ScenarioGenerator b;
  for (uint64_t i = 0; i < 10; ++i) {
    const hns::ExperimentSpec sa = a.Scenario(i);
    const hns::ExperimentSpec sb = b.Scenario(i);
    EXPECT_TRUE(sa == sb) << "scenario " << i;
    EXPECT_EQ(sa.ToJson(), sb.ToJson()) << "scenario " << i;
  }
  // Different indices explore different points.
  EXPECT_FALSE(a.Scenario(0) == a.Scenario(1));
}

TEST(ScenarioGenerator, DifferentMasterSeedsDiffer) {
  GeneratorOptions other;
  other.master_seed = 99;
  const ScenarioGenerator a;
  const ScenarioGenerator b(other);
  EXPECT_FALSE(a.Scenario(0) == b.Scenario(0));
}

TEST(ScenarioGenerator, SpecsAreValidAndLabeled) {
  const ScenarioGenerator gen;
  const auto& protocols = gen.options().protocols;
  for (uint64_t i = 0; i < 30; ++i) {
    const hns::ExperimentSpec spec = gen.Scenario(i);
    EXPECT_TRUE(spec.Validate().ok())
        << "scenario " << i << ": " << spec.Validate().ToString();
    EXPECT_EQ(spec.label, "fuzz-" + std::to_string(i));
    EXPECT_TRUE(spec.check_serializability);
    EXPECT_NE(std::find(protocols.begin(), protocols.end(), spec.protocol),
              protocols.end());
    // Any fault arms the client timeout so closed-loop clients cannot
    // wedge on a swallowed request.
    if (!spec.fault_plan.empty()) {
      EXPECT_GT(spec.client_timeout, 0) << "scenario " << i;
    }
  }
}

TEST(ScenarioGenerator, RespectsOptions) {
  GeneratorOptions options;
  options.protocols = {hns::Protocol::kHelios0};
  options.crashes = false;
  options.partitions = false;
  options.message_faults = false;
  options.clock_skew = false;
  options.gray_faults = false;
  options.min_clients = 3;
  options.max_clients = 5;
  const ScenarioGenerator gen(options);
  for (uint64_t i = 0; i < 30; ++i) {
    const hns::ExperimentSpec spec = gen.Scenario(i);
    EXPECT_EQ(spec.protocol, hns::Protocol::kHelios0);
    EXPECT_TRUE(spec.fault_plan.empty()) << "scenario " << i;
    EXPECT_TRUE(spec.clock_offsets.empty()) << "scenario " << i;
    EXPECT_GE(spec.clients, 3);
    EXPECT_LE(spec.clients, 5);
  }
}

TEST(ScenarioGenerator, SamplesGrayFaultsWithHealthEnabled) {
  GeneratorOptions options;
  options.crashes = false;
  options.partitions = false;
  options.message_faults = false;
  const ScenarioGenerator gen(options);
  int with_gray = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    const hns::ExperimentSpec spec = gen.Scenario(i);
    if (spec.fault_plan.gray_faults.empty()) continue;
    ++with_gray;
    // A gray scenario always brings the detector (so the reaction path is
    // exercised, not just the injection) and the client timeout (so a
    // stalled datacenter cannot wedge its closed-loop clients).
    EXPECT_TRUE(spec.health_enabled) << "scenario " << i;
    EXPECT_GT(spec.client_timeout, 0) << "scenario " << i;
    EXPECT_TRUE(spec.Validate().ok()) << "scenario " << i;
  }
  EXPECT_GT(with_gray, 0);
}

// --- oracle fixtures --------------------------------------------------------

constexpr int kDcs = 3;

hns::ExperimentSpec BaseSpec() {
  hns::ExperimentSpec spec;
  spec.WithProtocol(hns::Protocol::kHelios1)
      .WithTopology("example3")
      .WithClients(2)
      .WithWarmup(Millis(200))
      .WithMeasure(Millis(500))  // Below the liveness oracle's 1s floor.
      .WithDrain(Millis(500));
  return spec;
}

/// A result whose capture and metrics pass every oracle for BaseSpec();
/// tests then break one artifact at a time.
hns::ExperimentResult BaseResult() {
  hns::ExperimentResult r;
  r.serializability = Status::Ok();
  r.capture = std::make_shared<hns::RunCapture>();
  hns::RunCapture& cap = *r.capture;
  cap.wals.resize(kDcs);
  cap.wal_present.assign(kDcs, true);
  cap.stores.resize(kDcs);
  cap.dc_down.assign(kDcs, false);
  r.per_dc.resize(kDcs);
  r.metrics.counters.push_back({"client.committed", 0});
  r.metrics.counters.push_back({"sim.events_processed", 1});
  return r;
}

TxnBodyPtr Body(TxnId id, std::vector<ReadEntry> reads,
                std::vector<WriteEntry> writes) {
  return MakeTxnBody(id, std::move(reads), std::move(writes));
}

rdict::LogRecord Finished(TxnBodyPtr body, Timestamp version_ts) {
  rdict::LogRecord r;
  r.type = rdict::RecordType::kFinished;
  r.committed = true;
  r.ts = version_ts;
  r.version_ts = version_ts;
  r.origin = body->id.origin;
  r.body = std::move(body);
  return r;
}

/// Commits `body` everywhere: history, every WAL, every live store.
void CommitEverywhere(hns::RunCapture* cap, TxnBodyPtr body,
                      Timestamp version_ts) {
  cap->history.push_back({body->id, body->id.origin, version_ts, body});
  for (int dc = 0; dc < kDcs; ++dc) {
    cap->wals[static_cast<size_t>(dc)].records.push_back(
        Finished(body, version_ts));
    for (const WriteEntry& w : body->write_set) {
      cap->stores[static_cast<size_t>(dc)][w.key] =
          VersionedValue{w.value, version_ts, body->id};
    }
  }
}

std::string FailureOf(const OracleReport& report) {
  return report.FirstFailureName();
}

// --- oracles: crisp failures on missing inputs ------------------------------

TEST(Oracles, MissingArtifactsFailEveryOracle) {
  const hns::ExperimentResult empty;  // No capture, no metrics, no check.
  const OracleReport report = RunOracles(BaseSpec(), empty);
  ASSERT_EQ(report.verdicts.size(), 7u);
  for (const OracleVerdict& v : report.verdicts) {
    EXPECT_FALSE(v.status.ok()) << v.name << " passed vacuously";
  }
}

TEST(Oracles, CleanHandBuiltRunPasses) {
  auto spec = BaseSpec();
  auto result = BaseResult();
  CommitEverywhere(result.capture.get(),
                   Body({0, 1}, {}, {{"k", "v"}}), 100);
  const OracleReport report = RunOracles(spec, result);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.Summary().find("FAILED"), std::string::npos);
}

// --- serializability --------------------------------------------------------

TEST(Oracles, SerializabilityUsesTheRunsOwnCheck) {
  auto result = BaseResult();
  result.serializability = Status::FailedPrecondition("cycle: 0:1 <- 0:2");
  const OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "serializability");
  EXPECT_NE(report.status().ToString().find("cycle: 0:1 <- 0:2"),
            std::string::npos);
}

// --- sessions ---------------------------------------------------------------

TEST(Oracles, SessionsCatchReadYourWritesViolation) {
  auto result = BaseResult();
  const TxnId writer{0, 1};
  CommitEverywhere(result.capture.get(), Body(writer, {}, {{"k", "new"}}),
                   100);
  workload::SessionLog session;
  session.client_id = 7;
  workload::SessionEvent commit;
  commit.kind = workload::SessionEvent::Kind::kCommit;
  commit.txn = writer;
  commit.committed = true;
  session.events.push_back(commit);
  workload::SessionEvent read;  // Sees a version older than the own write.
  read.kind = workload::SessionEvent::Kind::kRead;
  read.key = "k";
  read.version_ts = 50;
  read.version_writer = TxnId{1, 9};
  session.events.push_back(read);
  result.capture->sessions.push_back(session);

  const OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "sessions");
  EXPECT_NE(report.status().ToString().find("read-your-writes"),
            std::string::npos);

  // The identical log is fine for Replicated Commit (majority reads do
  // not promise session order) ...
  auto rc_spec = BaseSpec().WithProtocol(hns::Protocol::kReplicatedCommit);
  EXPECT_TRUE(RunOracles(rc_spec, result).ok());

  // ... and for read-only snapshot reads, which may serve old versions.
  result.capture->sessions[0].events[1].read_only = true;
  EXPECT_TRUE(RunOracles(BaseSpec(), result).ok());
}

TEST(Oracles, SessionsCatchMonotonicReadsViolation) {
  auto result = BaseResult();
  CommitEverywhere(result.capture.get(), Body({0, 1}, {}, {{"k", "v"}}), 100);
  workload::SessionLog session;
  workload::SessionEvent newer;
  newer.kind = workload::SessionEvent::Kind::kRead;
  newer.key = "k";
  newer.version_ts = 100;
  newer.version_writer = TxnId{0, 1};
  workload::SessionEvent older = newer;
  older.version_ts = 40;
  older.version_writer = TxnId{2, 3};
  session.events = {newer, older};
  result.capture->sessions.push_back(session);

  const OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "sessions");
  EXPECT_NE(report.status().ToString().find("monotonic-reads"),
            std::string::npos);

  // NotFound after an observed version is also a regression.
  workload::SessionEvent gone = older;
  gone.not_found = true;
  result.capture->sessions[0].events = {newer, gone};
  EXPECT_EQ(FailureOf(RunOracles(BaseSpec(), result)), "sessions");
}

// --- exactly_once -----------------------------------------------------------

TEST(Oracles, ExactlyOnceCatchesDuplicateJournalRecord) {
  auto result = BaseResult();
  auto body = Body({0, 1}, {}, {{"k", "v"}});
  CommitEverywhere(result.capture.get(), body, 100);
  // The same decision journaled twice at datacenter 2.
  result.capture->wals[2].records.push_back(Finished(body, 100));
  const OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "exactly_once");
  EXPECT_NE(report.status().ToString().find("two committed records"),
            std::string::npos);
}

TEST(Oracles, ExactlyOnceCatchesVersionDisagreement) {
  auto result = BaseResult();
  auto body = Body({0, 1}, {}, {{"k", "v"}});
  CommitEverywhere(result.capture.get(), body, 100);
  // Datacenter 2 installed the writes under a different version.
  result.capture->wals[2].records.back().version_ts = 101;
  const OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "exactly_once");
  EXPECT_NE(report.status().ToString().find("divergence"), std::string::npos);
}

TEST(Oracles, ExactlyOnceCatchesLostAndUnjournaledCommits) {
  auto result = BaseResult();
  workload::SessionLog session;
  workload::SessionEvent commit;
  commit.kind = workload::SessionEvent::Kind::kCommit;
  commit.txn = TxnId{0, 5};
  commit.committed = true;
  session.events.push_back(commit);
  result.capture->sessions.push_back(session);

  // Client saw a commit the history never recorded.
  OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "exactly_once");
  EXPECT_NE(report.status().ToString().find("lost commit"),
            std::string::npos);

  // In the history but missing from the origin's durable journal.
  auto body = Body({0, 5}, {}, {{"k", "v"}});
  result.capture->history.push_back({body->id, 0, 100, body});
  report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "exactly_once");
  EXPECT_NE(report.status().ToString().find("durability"), std::string::npos);
}

// --- wal_replay -------------------------------------------------------------

TEST(Oracles, WalReplayCatchesUnjournaledStoreVersion) {
  auto result = BaseResult();
  // A committed-looking version (non-negative origin) with no record.
  result.capture->stores[1]["k"] = VersionedValue{"v", 100, TxnId{0, 1}};
  const OracleReport report = RunOracles(BaseSpec(), result);
  EXPECT_EQ(FailureOf(report), "wal_replay");

  // Preloaded keys (loader origin -2, ts 0) are expected to bypass the log.
  result.capture->stores[1]["k"] = VersionedValue{"v", 0, TxnId{-2, 1}};
  EXPECT_TRUE(RunOracles(BaseSpec(), result).ok());
}

TEST(Oracles, WalReplayCatchesDivergentStore) {
  auto result = BaseResult();
  auto body = Body({0, 1}, {}, {{"k", "v"}});
  CommitEverywhere(result.capture.get(), body, 100);
  // Datacenter 1's store lost the write.
  result.capture->stores[1].erase("k");
  EXPECT_EQ(FailureOf(RunOracles(BaseSpec(), result)), "wal_replay");

  // ... unless that datacenter is still down (amnesia before recovery).
  result.capture->dc_down[1] = true;
  EXPECT_TRUE(RunOracles(BaseSpec(), result).ok());
}

// --- metrics ----------------------------------------------------------------

TEST(Oracles, MetricsRequireRecoveryCounterExactlyWhenScheduled) {
  auto spec = BaseSpec();
  spec.fault_plan.AddCrash(Millis(300), 1).AddRecover(Millis(400), 1);
  spec.WithClientTimeout(Millis(100), 5);
  auto result = BaseResult();
  result.metrics.counters.push_back({"client.timeouts", 0});

  // Crash scheduled but no recovery recorded.
  OracleReport report = RunOracles(spec, result);
  EXPECT_EQ(FailureOf(report), "metrics");

  result.metrics.counters.push_back({"recovery.recoveries", 1});
  EXPECT_TRUE(RunOracles(spec, result).ok())
      << RunOracles(spec, result).Summary();

  // Conversely: a recovery reported with nothing scheduled.
  EXPECT_EQ(FailureOf(RunOracles(BaseSpec(), result)), "metrics");
}

TEST(Oracles, MetricsCatchLivenessViolation) {
  auto spec = BaseSpec().WithMeasure(Seconds(2));  // Above the 1s floor.
  auto result = BaseResult();  // client.committed == 0, no faults.
  const OracleReport report = RunOracles(spec, result);
  EXPECT_EQ(FailureOf(report), "metrics");
  EXPECT_NE(report.status().ToString().find("liveness"), std::string::npos);
}

TEST(Oracles, MetricsCatchFaultCounterGatingMismatch) {
  auto spec = BaseSpec();
  auto result = BaseResult();
  result.metrics.counters.push_back({"net.fault_drops", 3});
  EXPECT_EQ(FailureOf(RunOracles(spec, result)), "metrics");
}

// --- shrinker ---------------------------------------------------------------

TEST(Shrinker, PassingSpecIsReturnedUntouched) {
  const auto spec = BaseSpec();
  int evals = 0;
  const ShrinkResult out =
      Shrink(spec, {}, [&](const hns::ExperimentSpec&) {
        ++evals;
        return std::string();
      });
  EXPECT_EQ(out.oracle, "");
  EXPECT_EQ(out.runs, 1);
  EXPECT_EQ(evals, 1);
  EXPECT_TRUE(out.spec == spec);
}

TEST(Shrinker, MinimizesToTheLoadBearingFaultEvent) {
  auto spec = BaseSpec();
  spec.WithClients(16)
      .WithMeasure(Seconds(8))
      .WithZipfTheta(0.5)
      .WithReadOnlyFraction(0.2)
      .WithClockOffsets({Millis(5), Millis(-5), 0});
  sim::LinkFault lossy;
  lossy.loss = 0.05;
  spec.fault_plan.AddLinkFault(lossy)
      .AddCrash(Millis(1000), 1)
      .AddRecover(Millis(2000), 1)
      .AddPartition(Millis(1500), 0, 2)
      .AddHeal(Millis(2500), 0, 2);
  spec.WithClientTimeout(Millis(2000), 10);
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  // The "bug" fires exactly when datacenter 1 crashes.
  int evals = 0;
  const auto evaluate = [&](const hns::ExperimentSpec& s) {
    ++evals;
    for (const sim::NodeEvent& e : s.fault_plan.node_events) {
      if (!e.up && e.node == 1) return std::string("serializability");
    }
    return std::string();
  };

  ShrinkOptions options;
  options.max_runs = 120;
  const ShrinkResult out = Shrink(spec, options, evaluate);
  EXPECT_EQ(out.oracle, "serializability");
  EXPECT_LE(out.runs, options.max_runs);
  EXPECT_EQ(evals, out.runs);
  EXPECT_EQ(out.fault_events, 1);
  ASSERT_EQ(out.spec.fault_plan.node_events.size(), 1u);
  EXPECT_FALSE(out.spec.fault_plan.node_events[0].up);
  EXPECT_EQ(out.spec.fault_plan.node_events[0].node, 1);
  EXPECT_TRUE(out.spec.fault_plan.link_faults.empty());
  EXPECT_TRUE(out.spec.fault_plan.partition_events.empty());
  EXPECT_EQ(out.spec.clients, 2);
  // The window shrinks only as far as the generator's quiet tail allows:
  // the crash at 1 s must stay at or before warmup + measure - 2 s.
  EXPECT_EQ(out.spec.measure, Seconds(4));
  for (const sim::NodeEvent& e : out.spec.fault_plan.node_events) {
    EXPECT_LE(e.at, out.spec.warmup + out.spec.measure - kQuietTail);
  }
  EXPECT_EQ(out.spec.zipf_theta, 0.0);
  EXPECT_EQ(out.spec.read_only_fraction, 0.0);
  EXPECT_TRUE(out.spec.clock_offsets.empty());
  EXPECT_TRUE(out.spec.Validate().ok());
  // The minimized spec still reproduces via the same evaluator.
  EXPECT_EQ(evaluate(out.spec), "serializability");
}

TEST(Shrinker, CountsFaultEvents) {
  auto spec = BaseSpec();
  EXPECT_EQ(CountFaultEvents(spec), 0);
  spec.fault_plan.AddCrash(Millis(1), 0).AddPartition(Millis(2), 0, 1);
  sim::LinkFault f;
  f.loss = 0.1;
  spec.fault_plan.AddLinkFault(f);
  EXPECT_EQ(CountFaultEvents(spec), 3);
}

}  // namespace
}  // namespace helios::check
