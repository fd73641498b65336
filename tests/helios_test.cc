// Integration tests for the Helios commit protocol: commit waits, conflict
// detection (the Figure 2 scenarios), Rule 1's integer edge,
// serializability under contention and clock skew, liveness under
// datacenter outages (Rule 3) and its receipt acknowledgments, replica
// convergence, read-only transactions, the reply point of a commit and
// what its apply I/O and an fsync stall cost the server, the timestamps
// records take in a node's log, and the refusal of a write set that names
// a key twice.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/helios_cluster.h"
#include "core/history.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/shard_map.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/service_queue.h"
#include "txn/transaction.h"
#include "workload/client.h"
#include "workload/tycsb.h"

namespace helios::core {
namespace {

struct TestRig {
  sim::Scheduler scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<HeliosCluster> cluster;
};

HeliosConfig BaseConfig(int n) {
  HeliosConfig cfg;
  cfg.num_datacenters = n;
  cfg.log_interval = Millis(5);
  cfg.client_link_one_way = Micros(500);
  cfg.grace_time = Millis(500);
  return cfg;
}

/// Builds an n-datacenter rig with uniform RTT between every pair.
std::unique_ptr<TestRig> MakeUniformRig(int n, Duration rtt,
                                        HeliosConfig cfg,
                                        LogProtocolKind kind =
                                            LogProtocolKind::kHelios,
                                        uint64_t seed = 1) {
  auto rig = std::make_unique<TestRig>();
  rig->network = std::make_unique<sim::Network>(&rig->scheduler, n, seed);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      rig->network->SetRtt(a, b, rtt, 0);
    }
  }
  rig->cluster = std::make_unique<HeliosCluster>(
      &rig->scheduler, rig->network.get(), std::move(cfg), kind);
  return rig;
}

/// Commits one write transaction synchronously-in-sim; returns the outcome
/// and the client-observed latency.
struct CommitResult {
  CommitOutcome outcome;
  Duration latency = -1;
  bool done = false;
};

void AsyncCommit(TestRig& rig, DcId dc, std::vector<ReadEntry> reads,
                 std::vector<WriteEntry> writes, CommitResult* out) {
  const sim::SimTime start = rig.scheduler.Now();
  rig.cluster->ClientCommit(dc, std::move(reads), std::move(writes),
                            [out, start, &rig](const CommitOutcome& o) {
                              out->outcome = o;
                              out->latency = rig.scheduler.Now() - start;
                              out->done = true;
                            });
}

TEST(HeliosBasicTest, SingleTransactionCommits) {
  auto rig = MakeUniformRig(3, Millis(80), BaseConfig(3));
  rig->cluster->Start();
  CommitResult result;
  rig->scheduler.At(Millis(100), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(result.done);
  EXPECT_TRUE(result.outcome.committed);
  // Helios-B on a symmetric topology: roughly one-way (40ms) plus the log
  // interval, service time and client links.
  EXPECT_GE(result.latency, Millis(40));
  EXPECT_LE(result.latency, Millis(60));
}

TEST(HeliosBasicTest, CommitAppliesWritesEverywhere) {
  auto rig = MakeUniformRig(3, Millis(40), BaseConfig(3));
  rig->cluster->Start();
  CommitResult result;
  rig->scheduler.At(Millis(10), [&] {
    AsyncCommit(*rig, 1, {}, {{"x", "42"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(result.done && result.outcome.committed);
  for (DcId dc = 0; dc < 3; ++dc) {
    auto v = rig->cluster->node(dc).store().Read("x");
    ASSERT_TRUE(v.ok()) << "dc " << dc;
    EXPECT_EQ(v.value().value, "42");
    EXPECT_EQ(v.value().writer, result.outcome.id);
  }
}

TEST(HeliosBasicTest, ReadReturnsVersionInfo) {
  auto rig = MakeUniformRig(2, Millis(20), BaseConfig(2));
  rig->cluster->LoadInitialAll({{"k", "v0"}});
  rig->cluster->Start();
  Result<VersionedValue> got = Status::Internal("unset");
  rig->scheduler.At(Millis(5), [&] {
    rig->cluster->ClientRead(0, "k", [&](Result<VersionedValue> r) {
      got = std::move(r);
    });
  });
  rig->scheduler.RunUntil(Millis(100));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().value, "v0");
}

TEST(HeliosBasicTest, ReadOfMissingKeyIsNotFound) {
  auto rig = MakeUniformRig(2, Millis(20), BaseConfig(2));
  rig->cluster->Start();
  bool got_not_found = false;
  rig->scheduler.At(Millis(5), [&] {
    rig->cluster->ClientRead(0, "nope", [&](Result<VersionedValue> r) {
      got_not_found = !r.ok() && r.status().code() == StatusCode::kNotFound;
    });
  });
  rig->scheduler.RunUntil(Millis(100));
  EXPECT_TRUE(got_not_found);
}

TEST(HeliosBasicTest, OverwrittenReadAborts) {
  auto rig = MakeUniformRig(2, Millis(20), BaseConfig(2));
  rig->cluster->LoadInitialAll({{"k", "v0"}});
  rig->cluster->Start();

  // First transaction overwrites k; the second then tries to commit with
  // the stale read.
  CommitResult first;
  CommitResult second;
  ReadEntry stale;
  rig->scheduler.At(Millis(5), [&] {
    rig->cluster->ClientRead(0, "k", [&](Result<VersionedValue> r) {
      ASSERT_TRUE(r.ok());
      stale = ReadEntry{"k", r.value().ts, r.value().writer};
    });
  });
  rig->scheduler.At(Millis(20), [&] {
    AsyncCommit(*rig, 0, {}, {{"k", "v1"}}, &first);
  });
  rig->scheduler.At(Millis(400), [&] {
    ASSERT_TRUE(first.done && first.outcome.committed);
    AsyncCommit(*rig, 0, {stale}, {{"other", "x"}}, &second);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(second.done);
  EXPECT_FALSE(second.outcome.committed);
  EXPECT_EQ(second.outcome.abort_reason.rfind("overwritten", 0), 0u);
}

TEST(HeliosConflictTest, ConcurrentWriteWriteConflictAtMostOneCommits) {
  auto rig = MakeUniformRig(2, Millis(100), BaseConfig(2));
  rig->cluster->Start();
  CommitResult at_a;
  CommitResult at_b;
  // Both issued at the same instant at different datacenters; with 100ms
  // RTT neither can know about the other at request time.
  rig->scheduler.At(Millis(50), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "a"}}, &at_a);
    AsyncCommit(*rig, 1, {}, {{"x", "b"}}, &at_b);
  });
  rig->scheduler.RunUntil(Seconds(3));
  ASSERT_TRUE(at_a.done && at_b.done);
  EXPECT_LE((at_a.outcome.committed ? 1 : 0) + (at_b.outcome.committed ? 1 : 0),
            1)
      << "two conflicting concurrent transactions both committed";
  // With symmetric offsets (Helios-B) at least one must survive: the one
  // whose knowledge wait completes after it has seen the other's abort...
  // actually both may abort (mutual kill) only if each sees the other
  // before committing; Helios aborts the local preparing txn when a
  // conflicting remote record arrives, so both aborting is possible and
  // correct. We only require: never two commits, and both get decisions.
}

TEST(HeliosConflictTest, SecondRequestAbortsImmediatelyOnLocalConflict) {
  auto rig = MakeUniformRig(2, Millis(100), BaseConfig(2));
  rig->cluster->Start();
  CommitResult first;
  CommitResult second;
  rig->scheduler.At(Millis(10), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &first);
  });
  rig->scheduler.At(Millis(15), [&] {
    // Conflicts with the still-preparing first transaction: Algorithm 1
    // aborts it immediately, well before any network round trip.
    AsyncCommit(*rig, 0, {}, {{"x", "2"}}, &second);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(second.done);
  EXPECT_FALSE(second.outcome.committed);
  EXPECT_EQ(second.outcome.abort_reason, "conflict:preparing");
  EXPECT_LT(second.latency, Millis(10));
  ASSERT_TRUE(first.done);
  EXPECT_TRUE(first.outcome.committed);
}

// The Figure 2 example: commit offsets -1ms / +1ms between two
// datacenters, conflicting transactions detect each other.
TEST(HeliosConflictTest, RemoteConflictAbortsPreparingTransaction) {
  HeliosConfig cfg = BaseConfig(2);
  cfg.commit_offsets = {{0, -Millis(1)}, {Millis(1), 0}};
  auto rig = MakeUniformRig(2, Millis(80), std::move(cfg));
  rig->cluster->Start();

  CommitResult at_a;
  CommitResult at_b;
  rig->scheduler.At(Millis(10), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "a"}}, &at_a);
  });
  // B starts a conflicting transaction while A's record is in flight; B
  // has a larger commit offset so it waits longer and must see A's record
  // and abort.
  rig->scheduler.At(Millis(30), [&] {
    AsyncCommit(*rig, 1, {ReadEntry{"x", kMinTimestamp, TxnId{}}},
                {{"x", "b"}}, &at_b);
  });
  rig->scheduler.RunUntil(Seconds(3));
  ASSERT_TRUE(at_a.done && at_b.done);
  EXPECT_TRUE(at_a.outcome.committed);
  EXPECT_FALSE(at_b.outcome.committed);
  EXPECT_EQ(at_b.outcome.abort_reason, "conflict:remote");
}

TEST(HeliosOffsetsTest, NegativeOffsetsShortenTheWait) {
  // Asymmetric offsets within Rule 1: A gets -30ms, B gets +30ms.
  // A's commit wait needs B's history only up to q(t)-30ms, which is
  // usually already known, so A commits almost immediately; B waits
  // correspondingly longer.
  HeliosConfig cfg = BaseConfig(2);
  cfg.commit_offsets = {{0, -Millis(30)}, {Millis(30), 0}};
  auto rig = MakeUniformRig(2, Millis(60), std::move(cfg));
  rig->cluster->Start();

  CommitResult at_a;
  CommitResult at_b;
  rig->scheduler.At(Millis(200), [&] {
    AsyncCommit(*rig, 0, {}, {{"a_key", "1"}}, &at_a);
    AsyncCommit(*rig, 1, {}, {{"b_key", "1"}}, &at_b);
  });
  rig->scheduler.RunUntil(Seconds(3));
  ASSERT_TRUE(at_a.done && at_b.done);
  ASSERT_TRUE(at_a.outcome.committed);
  ASSERT_TRUE(at_b.outcome.committed);
  // Estimated latencies (Eq. 4): L_A = -30 + 30 = ~0ms (plus log interval
  // and overheads), L_B = 30 + 30 = 60ms.
  EXPECT_LT(at_a.latency, Millis(15));
  EXPECT_GT(at_b.latency, Millis(55));
  EXPECT_LT(at_b.latency, Millis(80));
  // Lemma 1: the sum of the two commit latencies >= RTT.
  EXPECT_GE(at_a.latency + at_b.latency, Millis(60));
}

// Rule 1's integer edge. Knowledge T of a peer covers the records it
// stamped T, so a pair whose offsets sum to -1 us is still safe and -2 us
// is the first unsafe sum. Two DCs 40ms apart (no jitter, 10ms interval)
// send at 10, 20, ... ms (DC 0) and 15, 25, ... ms (DC 1). A transaction
// that reads and writes k arrives at DC 0 at 11.5 ms and another at DC 1
// at 16.5 ms, so q = 10001 and 15001 us. With co[0][1] = 4999 us, DC 0's
// transaction needs DC 1's knowledge of 15000 us (its 15ms envelope,
// which predates DC 1's record); DC 1's needs DC 0's knowledge of
// 15001 + co[1][0] us. At co[1][0] = -5000 that is 10001, DC 0's 20ms
// envelope, which carries the conflicting record; at -5001 it is 10000,
// DC 0's 10ms envelope, which does not.
struct Rule1Boundary {
  CommitResult at_0;
  CommitResult at_1;
  Status serializable;
};

Rule1Boundary RunRule1Boundary(Duration co_1_0) {
  HeliosConfig cfg = BaseConfig(2);
  cfg.log_interval = Millis(10);
  cfg.commit_offsets = {{0, Micros(4999)}, {co_1_0, 0}};
  auto rig = MakeUniformRig(2, Millis(40), std::move(cfg));
  rig->cluster->Start();
  Rule1Boundary out;
  const ReadEntry initial{"k", kMinTimestamp, TxnId{}};
  rig->scheduler.At(Millis(11), [&] {
    AsyncCommit(*rig, 0, {initial}, {{"k", "0"}}, &out.at_0);
  });
  rig->scheduler.At(Millis(16), [&] {
    AsyncCommit(*rig, 1, {initial}, {{"k", "1"}}, &out.at_1);
  });
  rig->scheduler.RunUntil(Seconds(1));
  out.serializable = CheckSerializable(rig->cluster->history().commits());
  return out;
}

TEST(Rule1BoundaryTest, SumsOfZeroAndMinusOneMicrosecondAbortTheConflict) {
  for (Duration co_1_0 : {Micros(-4999), Micros(-5000)}) {
    const Rule1Boundary r = RunRule1Boundary(co_1_0);
    ASSERT_TRUE(r.at_0.done && r.at_1.done) << co_1_0;
    EXPECT_TRUE(r.at_0.outcome.committed) << co_1_0;
    EXPECT_FALSE(r.at_1.outcome.committed) << co_1_0;
    EXPECT_EQ(r.at_1.outcome.abort_reason, "conflict:remote") << co_1_0;
    EXPECT_TRUE(r.serializable.ok()) << r.serializable.ToString();
  }
}

TEST(Rule1BoundaryTest, SumOfMinusTwoMicrosecondsBreaksSerializability) {
  const Rule1Boundary r = RunRule1Boundary(Micros(-5001));
  ASSERT_TRUE(r.at_0.done && r.at_1.done);
  EXPECT_TRUE(r.at_0.outcome.committed);
  EXPECT_TRUE(r.at_1.outcome.committed);
  EXPECT_FALSE(r.serializable.ok());
}

// Randomized closed-loop clients on a small key space; the committed
// history must be conflict-serializable and replicas must converge.
struct ContentionOptions {
  int num_dcs = 3;
  int clients_per_dc = 4;
  int keys = 40;
  Duration rtt = Millis(60);
  Duration run_for = Seconds(20);
  LogProtocolKind kind = LogProtocolKind::kHelios;
  std::vector<Duration> clock_offsets;
  std::vector<std::vector<Duration>> commit_offsets;
  int fault_tolerance = 0;
  uint64_t seed = 99;
};

struct ContentionOutcome {
  uint64_t commits = 0;
  uint64_t aborts = 0;
};

ContentionOutcome RunContentionWorkload(TestRig& rig,
                                        const ContentionOptions& opt) {
  auto& cluster = *rig.cluster;
  InitialRows rows;
  for (int k = 0; k < opt.keys; ++k) {
    rows.emplace_back("key" + std::to_string(k), "init");
  }
  cluster.LoadInitialAll(rows);
  cluster.Start();

  auto outcome = std::make_shared<ContentionOutcome>();
  auto rng = std::make_shared<Rng>(opt.seed);

  // A tiny closed-loop client: read two keys, write one of them plus
  // another, commit, repeat.
  struct Client {
    DcId dc;
  };
  auto step = std::make_shared<std::function<void(DcId)>>();
  *step = [&rig, &cluster, outcome, rng, opt, step](DcId dc) {
    const std::string k1 = "key" + std::to_string(rng->Uniform(opt.keys));
    const std::string k2 = "key" + std::to_string(rng->Uniform(opt.keys));
    cluster.ClientRead(dc, k1, [&rig, &cluster, outcome, rng, opt, step, dc,
                                k1, k2](Result<VersionedValue> r1) {
      if (!r1.ok()) return;
      ReadEntry read1{k1, r1.value().ts, r1.value().writer};
      std::vector<WriteEntry> writes;
      writes.push_back({k1, "v" + std::to_string(rng->Next() % 1000)});
      if (k2 != k1) writes.push_back({k2, "w"});
      cluster.ClientCommit(
          dc, {read1}, std::move(writes),
          [&rig, outcome, opt, step, dc](const CommitOutcome& o) {
            if (o.committed) {
              ++outcome->commits;
            } else {
              ++outcome->aborts;
            }
            if (rig.scheduler.Now() < opt.run_for) {
              (*step)(dc);
            }
          });
    });
  };

  for (DcId dc = 0; dc < opt.num_dcs; ++dc) {
    for (int c = 0; c < opt.clients_per_dc; ++c) {
      rig.scheduler.At(Millis(1) * (c + 1), [step, dc] { (*step)(dc); });
    }
  }
  // Run the workload then let everything quiesce (in-flight transactions
  // decide, logs fully propagate).
  rig.scheduler.RunUntil(opt.run_for + Seconds(30));
  *step = nullptr;  // Breaks the closure's reference to itself.
  return *outcome;
}

void ExpectSerializableAndConvergent(TestRig& rig, int num_dcs, int keys) {
  const Status ser = CheckSerializable(rig.cluster->history().commits());
  EXPECT_TRUE(ser.ok()) << ser.ToString();
  // All replicas converge to identical visible state.
  for (int k = 0; k < keys; ++k) {
    const std::string key = "key" + std::to_string(k);
    auto v0 = rig.cluster->node(0).store().Read(key);
    ASSERT_TRUE(v0.ok());
    for (DcId dc = 1; dc < num_dcs; ++dc) {
      auto v = rig.cluster->node(dc).store().Read(key);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(v.value().value, v0.value().value) << key << " dc " << dc;
      EXPECT_EQ(v.value().writer, v0.value().writer) << key << " dc " << dc;
    }
  }
}

TEST(HeliosSerializabilityTest, ContendedWorkloadIsSerializable) {
  ContentionOptions opt;
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg), opt.kind);
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  EXPECT_GT(out.commits, 100u);
  EXPECT_GT(out.aborts, 0u);  // Contention must actually occur.
  ExpectSerializableAndConvergent(*rig, opt.num_dcs, opt.keys);
}

TEST(HeliosSerializabilityTest, SerializableUnderSevereClockSkew) {
  ContentionOptions opt;
  opt.seed = 101;
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  // 150ms of skew: larger than the RTT; correctness must not depend on it.
  cfg.clock_offsets = {Millis(150), -Millis(80), 0};
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg), opt.kind);
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  EXPECT_GT(out.commits, 100u);
  ExpectSerializableAndConvergent(*rig, opt.num_dcs, opt.keys);
}

TEST(HeliosSerializabilityTest, SerializableWithMaoStyleOffsets) {
  ContentionOptions opt;
  opt.seed = 103;
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  // Asymmetric offsets satisfying Rule 1 (sum >= 0 per pair).
  cfg.commit_offsets = {{0, -Millis(25), Millis(5)},
                        {Millis(25), 0, -Millis(10)},
                        {-Millis(5), Millis(10), 0}};
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg), opt.kind);
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  EXPECT_GT(out.commits, 100u);
  ExpectSerializableAndConvergent(*rig, opt.num_dcs, opt.keys);
}

TEST(HeliosSerializabilityTest, MessageFuturesIsSerializable) {
  ContentionOptions opt;
  opt.seed = 107;
  opt.kind = LogProtocolKind::kMessageFutures;
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg), opt.kind);
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  EXPECT_GT(out.commits, 100u);
  ExpectSerializableAndConvergent(*rig, opt.num_dcs, opt.keys);
}

TEST(HeliosSerializabilityTest, SerializableWithFaultToleranceOn) {
  ContentionOptions opt;
  opt.seed = 109;
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  cfg.fault_tolerance = 1;
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg), opt.kind);
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  EXPECT_GT(out.commits, 100u);
  ExpectSerializableAndConvergent(*rig, opt.num_dcs, opt.keys);
}

TEST(HeliosLatencyTest, MessageFuturesWaitsAFullRoundTrip) {
  auto rig = MakeUniformRig(2, Millis(100), BaseConfig(2),
                            LogProtocolKind::kMessageFutures);
  rig->cluster->Start();
  CommitResult result;
  rig->scheduler.At(Millis(50), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(result.done && result.outcome.committed);
  EXPECT_GE(result.latency, Millis(100));  // Full RTT at minimum.
  EXPECT_LE(result.latency, Millis(125));
}

TEST(HeliosLivenessTest, FaultToleranceOneWaitsForAnAck) {
  HeliosConfig cfg = BaseConfig(3);
  cfg.fault_tolerance = 1;
  // Zero offsets: the knowledge wait is ~RTT/2; the ack wait is a full
  // RTT, which dominates.
  auto rig = MakeUniformRig(3, Millis(80), std::move(cfg));
  rig->cluster->Start();
  CommitResult result;
  rig->scheduler.At(Millis(50), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(result.done && result.outcome.committed);
  EXPECT_GE(result.latency, Millis(80));
  EXPECT_LE(result.latency, Millis(105));
}

// --- Rule 3's receipt acknowledgments ----------------------------------------

/// An envelope from `from` whose one record is a preparing record of
/// `origin`'s at `ts`, with `from`'s knowledge of `origin` covering it.
Envelope OnePreparing(DcId from, DcId origin, Timestamp ts, EnvelopeKind kind,
                      uint64_t seq) {
  Envelope env(3);
  env.log.from = from;
  env.kind = kind;
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kPreparing;
  rec.ts = ts;
  rec.origin = origin;
  rec.body = MakeTxnBody(TxnId{origin, seq}, {},
                         {{"k" + std::to_string(seq), "v"}});
  env.log.records.push_back(rec);
  env.log.table.Set(from, origin, ts);
  env.log.table.Set(from, from, std::max(ts, env.log.table.Get(from, from)));
  return env;
}

// One node driven by hand: gossip carrying the sender's own fresh
// preparing records is answered at once, to the sender only, with an
// ordinary partial log that promises nothing new; a relayed record or an
// ack is not answered; a late record's refusal rides the ack.
TEST(HeliosAckTest, AcksTheSendersOwnPreparingRecordsOnReceipt) {
  sim::Scheduler scheduler;
  sim::Clock clock(&scheduler);
  HeliosConfig cfg = BaseConfig(3);
  cfg.fault_tolerance = 1;
  std::vector<std::pair<DcId, EnvelopePtr>> sent;
  HeliosNode node(0, cfg, LogProtocolKind::kHelios, &scheduler, &clock,
                  [&sent](DcId to, const EnvelopePtr& env) {
                    sent.emplace_back(to, env);
                  });
  const auto deliver = [&](Envelope env) {
    node.HandleEnvelope(std::move(env));
    scheduler.RunUntil(scheduler.Now() + Millis(1));
  };
  const Timestamp promised = node.log().KnownUpTo(0);

  deliver(OnePreparing(1, 1, Millis(1), EnvelopeKind::kGossip, 1));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].first, 1);
  const Envelope& ack = *sent[0].second;
  EXPECT_EQ(ack.kind, EnvelopeKind::kAck);
  EXPECT_GE(ack.log.table.Get(0, 1), Millis(1));  // Rule 3 condition (2).
  EXPECT_EQ(ack.log.table.Get(0, 0), promised);   // No new promise.
  EXPECT_EQ(node.log().KnownUpTo(0), promised);
  EXPECT_TRUE(ack.refusals.empty());
  EXPECT_FALSE(ack.apparent_delay_us.has_value());
  EXPECT_EQ(node.counters().acks_sent, 1u);
  EXPECT_EQ(node.counters().envelopes_sent, 1u);

  // An ack is never acknowledged, and neither is a relayed record.
  deliver(OnePreparing(2, 2, Millis(2), EnvelopeKind::kAck, 2));
  deliver(OnePreparing(2, 1, Millis(3), EnvelopeKind::kGossip, 3));
  EXPECT_EQ(sent.size(), 1u);

  // Past the grace time the record is refused, and the ack carries the
  // refusal back to its origin.
  scheduler.RunUntil(Millis(100) + cfg.grace_time + Millis(1));
  deliver(OnePreparing(1, 1, Millis(100), EnvelopeKind::kGossip, 4));
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].first, 1);
  EXPECT_EQ(sent[1].second->kind, EnvelopeKind::kAck);
  EXPECT_NE(std::find(sent[1].second->refusals.begin(),
                      sent[1].second->refusals.end(),
                      Refusal{0, TxnId{1, 4}, Millis(100)}),
            sent[1].second->refusals.end());

  // f = 0 has no Rule 3 and never acks.
  cfg.fault_tolerance = 0;
  HeliosNode helios0(0, cfg, LogProtocolKind::kHelios, &scheduler, &clock,
                     [&sent](DcId to, const EnvelopePtr& env) {
                       sent.emplace_back(to, env);
                     });
  helios0.HandleEnvelope(
      OnePreparing(1, 1, scheduler.Now(), EnvelopeKind::kGossip, 5));
  scheduler.RunUntil(scheduler.Now() + Millis(1));
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(helios0.counters().acks_sent, 0u);
}

/// example3 (A–B 30 ms, A–C 20 ms, B–C 40 ms, no jitter) with its MAO
/// offsets (A 5, B 25, C 15 ms) and a 10 ms log interval: A ticks at every
/// multiple of 10 ms, B 3.3 ms and C 6.7 ms later.
std::unique_ptr<TestRig> MakeExample3Rig(int fault_tolerance) {
  const harness::Topology topo = harness::PaperExampleTopology();
  HeliosConfig cfg = BaseConfig(3);
  cfg.log_interval = Millis(10);
  cfg.fault_tolerance = fault_tolerance;
  cfg.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  auto rig = std::make_unique<TestRig>();
  rig->network = std::make_unique<sim::Network>(&rig->scheduler, 3, 1);
  harness::ConfigureNetwork(topo, rig->network.get());
  rig->cluster = std::make_unique<HeliosCluster>(
      &rig->scheduler, rig->network.get(), std::move(cfg));
  return rig;
}

// A lone Helios-1 transaction at A. Its Rule-2 wait ends by about 1008 ms;
// Rule 3 needs one acknowledgment, and C, A's nearest peer, gives it.
// Submitted just after A's tick at 1000 ms, the record waits out A's next
// tick and reaches C at 1020 ms. C acknowledges at once, so the commit
// fits in RTT(A,C) + one interval + the client links + the service on the
// path. Acknowledging on C's next tick, at 1026.7 ms, would miss the bound
// by about 6 ms.
TEST(HeliosAckTest, LoneCommitWaitsOneRoundTripToTheNearestPeer) {
  auto rig = MakeExample3Rig(/*fault_tolerance=*/1);
  const HeliosConfig& cfg = rig->cluster->config();
  rig->cluster->Start();
  CommitResult result;
  rig->scheduler.At(Micros(1000100), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(result.done && result.outcome.committed);
  // Algorithm 1 at A, C's ingest of the record, A's ingest of the ack.
  const Duration service =
      cfg.service.commit_request + 2 * cfg.service.log_message;
  EXPECT_LE(result.latency, Millis(20) + cfg.log_interval +
                                2 * cfg.client_link_one_way + service);
  EXPECT_GE(result.latency, Millis(20));
  // B and C each acknowledge the one gossip carrying the record.
  EXPECT_EQ(rig->cluster->node(0).counters().acks_sent, 0u);
  EXPECT_EQ(rig->cluster->node(1).counters().acks_sent, 1u);
  EXPECT_EQ(rig->cluster->node(2).counters().acks_sent, 1u);
}

/// q of C's first preparing record when C's client submits at 1021.5 ms,
/// after C acknowledged (or, without A's transaction, had nothing to
/// acknowledge) and before C's next tick at 1026.7 ms.
struct AckerTimestamp {
  Timestamp q = kMinTimestamp;
  uint64_t acks_before = 0;
};

AckerTimestamp CRecordTs(bool a_commits) {
  auto rig = MakeExample3Rig(/*fault_tolerance=*/1);
  rig->cluster->Start();
  CommitResult at_a;
  CommitResult at_c;
  AckerTimestamp out;
  if (a_commits) {
    rig->scheduler.At(Micros(1000100), [&] {
      AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &at_a);
    });
  }
  rig->scheduler.At(Micros(1021500), [&] {
    out.acks_before = rig->cluster->node(2).counters().acks_sent;
    AsyncCommit(*rig, 2, {}, {{"y", "1"}}, &at_c);
  });
  rig->scheduler.RunUntil(Seconds(2));
  EXPECT_TRUE(at_c.done && at_c.outcome.committed);
  for (const rdict::LogRecord& rec :
       rig->cluster->wal_journal(2, 0)->contents().records) {
    if (rec.origin == 2 && rec.type == rdict::RecordType::kPreparing) {
      out.q = rec.ts;
      break;
    }
  }
  return out;
}

TEST(HeliosAckTest, AnAckDoesNotMoveTheAckersNextTimestamp) {
  const AckerTimestamp acked = CRecordTs(/*a_commits=*/true);
  const AckerTimestamp quiet = CRecordTs(/*a_commits=*/false);
  EXPECT_EQ(acked.acks_before, 1u);
  EXPECT_EQ(quiet.acks_before, 0u);
  ASSERT_NE(quiet.q, kMinTimestamp);
  // Both take the first instant after C's tick promise at 1016.7 ms.
  EXPECT_LT(quiet.q, Millis(1020));
  EXPECT_EQ(acked.q, quiet.q);
}

// Acks answer gossip only, so under contention no node sends a peer more
// acks than that peer sent it gossip: no ack answers an ack, and there is
// no ping-pong. An f = 0 deployment never acks at all.
TEST(HeliosAckTest, AcksNeverOutnumberTheGossipThatTriggersThem) {
  for (int f : {0, 1}) {
    ContentionOptions opt;
    opt.run_for = Seconds(5);
    HeliosConfig cfg = BaseConfig(opt.num_dcs);
    cfg.fault_tolerance = f;
    auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg));
    // The k-th env.send trace event and the k-th sizer call are the same
    // send: HeliosNode traces it just before handing it to the cluster.
    obs::TraceRecorder trace;
    rig->cluster->SetObservability(&trace, nullptr);
    std::vector<EnvelopeKind> kinds;
    rig->cluster->set_envelope_sizer([&kinds](const Envelope& env) {
      kinds.push_back(env.kind);
      return size_t{0};
    });
    const ContentionOutcome out = RunContentionWorkload(*rig, opt);
    EXPECT_GT(out.commits, 100u);
    ASSERT_EQ(trace.dropped(), 0u);

    std::map<std::pair<DcId, DcId>, uint64_t> gossip;  // (from, to).
    std::map<std::pair<DcId, DcId>, uint64_t> acks;
    size_t k = 0;
    for (const obs::TraceEvent& e : trace.Events()) {
      if (e.kind != obs::EventKind::kEnvelopeSend) continue;
      ASSERT_LT(k, kinds.size());
      const EnvelopeKind kind = kinds[k++];
      if (kind == EnvelopeKind::kGossip) ++gossip[{e.dc, e.peer}];
      if (kind == EnvelopeKind::kAck) ++acks[{e.dc, e.peer}];
    }
    EXPECT_EQ(k, kinds.size());
    for (DcId x = 0; x < opt.num_dcs; ++x) {
      uint64_t acked = 0;
      for (DcId y = 0; y < opt.num_dcs; ++y) {
        if (y == x) continue;
        const uint64_t sent_acks = acks[{x, y}];
        const uint64_t heard = gossip[{y, x}];
        EXPECT_LE(sent_acks, heard) << "dc" << x << " to dc" << y;
        acked += sent_acks;
      }
      const uint64_t counted = rig->cluster->node(x).counters().acks_sent;
      EXPECT_EQ(counted, acked) << "dc" << x;
      if (f == 0) {
        EXPECT_EQ(counted, 0u) << "dc" << x;
      } else {
        EXPECT_GT(counted, 0u) << "dc" << x;
      }
    }
  }
}

TEST(HeliosLivenessTest, Helios0BlocksWhenADatacenterFails) {
  HeliosConfig cfg = BaseConfig(3);
  auto rig = MakeUniformRig(3, Millis(40), std::move(cfg));
  rig->cluster->Start();
  rig->scheduler.At(Millis(100), [&] { rig->cluster->CrashDatacenter(2); });
  CommitResult result;
  rig->scheduler.At(Millis(300), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(10));
  // Helios-0 cannot commit without DC2's log: the transaction stays
  // pending forever.
  EXPECT_FALSE(result.done);
  EXPECT_EQ(rig->cluster->node(0).pt_pool_size(), 1u);
}

TEST(HeliosLivenessTest, Helios1CommitsThroughAnOutage) {
  HeliosConfig cfg = BaseConfig(3);
  cfg.fault_tolerance = 1;
  cfg.grace_time = Millis(300);
  auto rig = MakeUniformRig(3, Millis(40), std::move(cfg));
  rig->cluster->Start();
  rig->scheduler.At(Millis(100), [&] { rig->cluster->CrashDatacenter(2); });
  CommitResult result;
  rig->scheduler.At(Millis(500), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(10));
  ASSERT_TRUE(result.done) << "Helios-1 must keep committing with one DC down";
  EXPECT_TRUE(result.outcome.committed);
  // The commit had to wait out the grace time for the eta bound (the
  // paper: "a datacenter has to wait for an additional duration of GT").
  EXPECT_GE(result.latency, Millis(250));
}

TEST(HeliosLivenessTest, RecoveredDatacenterCatchesUp) {
  HeliosConfig cfg = BaseConfig(3);
  cfg.fault_tolerance = 1;
  cfg.grace_time = Millis(300);
  auto rig = MakeUniformRig(3, Millis(40), std::move(cfg));
  rig->cluster->Start();
  rig->scheduler.At(Millis(100), [&] { rig->cluster->CrashDatacenter(2); });
  CommitResult during;
  rig->scheduler.At(Millis(500), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "during-outage"}}, &during);
  });
  rig->scheduler.At(Seconds(3), [&] { rig->cluster->RecoverDatacenter(2); });
  rig->scheduler.RunUntil(Seconds(8));
  ASSERT_TRUE(during.done && during.outcome.committed);
  // After recovery the log exchange must deliver the missed write.
  auto v = rig->cluster->node(2).store().Read("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, "during-outage");
  // And commits at the recovered cluster get fast again.
  CommitResult after;
  rig->scheduler.At(rig->scheduler.Now(), [&] {
    AsyncCommit(*rig, 0, {}, {{"y", "post"}}, &after);
  });
  rig->scheduler.RunUntil(rig->scheduler.Now() + Seconds(2));
  ASSERT_TRUE(after.done && after.outcome.committed);
  EXPECT_LT(after.latency, Millis(120));
}

TEST(HeliosReadOnlyTest, SnapshotReadsSeeCommittedData) {
  auto rig = MakeUniformRig(2, Millis(30), BaseConfig(2));
  rig->cluster->LoadInitialAll({{"a", "0"}, {"b", "0"}});
  rig->cluster->Start();
  CommitResult w;
  rig->scheduler.At(Millis(10), [&] {
    AsyncCommit(*rig, 0, {}, {{"a", "1"}, {"b", "1"}}, &w);
  });
  std::vector<Result<VersionedValue>> snapshot;
  rig->scheduler.At(Millis(500), [&] {
    rig->cluster->ClientReadOnly(1, {"a", "b"},
                                 [&](std::vector<Result<VersionedValue>> r) {
                                   snapshot = std::move(r);
                                 });
  });
  rig->scheduler.RunUntil(Seconds(2));
  ASSERT_TRUE(w.done && w.outcome.committed);
  ASSERT_EQ(snapshot.size(), 2u);
  ASSERT_TRUE(snapshot[0].ok() && snapshot[1].ok());
  // Atomic snapshot: both writes of the transaction visible together.
  EXPECT_EQ(snapshot[0].value().value, "1");
  EXPECT_EQ(snapshot[1].value().value, "1");
  EXPECT_GT(rig->cluster->node(1).counters().read_only_txns, 0u);
}

TEST(HeliosReplyTest, ClientHearsOneClientLinkAfterTheDecision) {
  // Contended closed loop: remote commits keep delivering apply I/O to
  // every origin's service queue, which must not hold the reply back.
  const HeliosConfig cfg = BaseConfig(3);
  auto rig = MakeUniformRig(3, Millis(60), cfg);
  obs::TraceRecorder trace;
  rig->cluster->SetObservability(&trace, nullptr);
  rig->cluster->Start();
  workload::WorkloadConfig wl;
  wl.num_keys = 200;
  std::vector<std::unique_ptr<workload::ClosedLoopClient>> clients;
  for (DcId dc = 0; dc < 3; ++dc) {
    for (int c = 0; c < 4; ++c) {
      const uint64_t id = clients.size();
      clients.push_back(std::make_unique<workload::ClosedLoopClient>(
          id, dc, rig->cluster.get(), &rig->scheduler, wl, /*seed=*/5 + id,
          0, Seconds(5), Seconds(5)));
      clients.back()->SetObservability(&trace, nullptr);
      clients.back()->Start();
    }
  }
  rig->scheduler.RunUntil(Seconds(7));
  ASSERT_EQ(trace.dropped(), 0u);

  std::map<TxnId, sim::SimTime> decided;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind == obs::EventKind::kTxnServer && e.detail.empty()) {
      decided[e.txn] = e.ts_us + e.dur_us;
    }
  }
  size_t committed = 0;
  uint64_t aborted = 0;
  for (const auto& client : clients) aborted += client->metrics().aborted;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind != obs::EventKind::kClientCommit || e.detail != "committed") {
      continue;
    }
    ++committed;
    const auto it = decided.find(e.txn);
    ASSERT_NE(it, decided.end()) << e.txn.ToString();
    EXPECT_EQ(e.ts_us + e.dur_us - it->second, cfg.client_link_one_way)
        << e.txn.ToString();
  }
  EXPECT_GT(committed, 100u);
  EXPECT_GT(aborted, 0u);  // Contention must actually occur.
}

// One eight-write commit at DC 0 of a two-DC rig, with a read of one of
// its keys sent straight back to the origin when the client hears. A
// positive `fsync_penalty` holds both nodes in an fsync stall throughout.
struct ApplyIoRun {
  CommitResult commit;
  sim::SimTime heard = -1;
  sim::SimTime read_done = -1;
  sim::SimTime decision = -1;  // End of the commit's txn.server span.
  Duration busy[2] = {0, 0};   // Each node's service_queue().total_busy().
};

ApplyIoRun RunEightWriteCommitThenRead(const HeliosConfig& cfg,
                                       Duration fsync_penalty = 0) {
  ApplyIoRun run;
  auto rig = MakeUniformRig(2, Millis(20), cfg);
  obs::TraceRecorder trace;
  rig->cluster->SetObservability(&trace, nullptr);
  rig->cluster->Start();
  for (DcId dc = 0; dc < 2; ++dc) {
    rig->cluster->InjectFsyncStall(dc, fsync_penalty, Seconds(1));
  }
  std::vector<WriteEntry> writes;
  for (int k = 0; k < 8; ++k) writes.push_back({"k" + std::to_string(k), "v"});
  rig->scheduler.At(Millis(10), [&] {
    rig->cluster->ClientCommit(0, {}, writes, [&](const CommitOutcome& o) {
      run.commit.outcome = o;
      run.commit.done = true;
      run.heard = rig->scheduler.Now();
      // Straight back to the origin: arrives one link later.
      rig->cluster->ClientRead(0, "k0", [&](Result<VersionedValue> r) {
        EXPECT_TRUE(r.ok());
        run.read_done = rig->scheduler.Now();
      });
    });
  });
  rig->scheduler.RunUntil(Seconds(1));
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind == obs::EventKind::kTxnServer &&
        e.txn == run.commit.outcome.id) {
      run.decision = e.ts_us + e.dur_us;
    }
  }
  for (DcId dc = 0; dc < 2; ++dc) {
    run.busy[dc] = rig->cluster->node(dc).service_queue().total_busy();
  }
  return run;
}

TEST(HeliosReplyTest, ApplyIoStillOccupiesTheServerAfterTheReply) {
  // Eight writes: the apply I/O (8 x write_apply) outlasts the client's
  // reply plus a follow-up read's trip back to the origin (two links).
  const HeliosConfig cfg = BaseConfig(2);
  const Duration apply = cfg.service.write_apply * 8;
  const Duration link = cfg.client_link_one_way;
  ASSERT_GT(apply, 2 * link);

  const ApplyIoRun run = RunEightWriteCommitThenRead(cfg);
  ASSERT_TRUE(run.commit.done && run.commit.outcome.committed);
  ASSERT_GE(run.read_done, 0);
  ASSERT_GE(run.decision, 0);
  // The read reached the origin before the apply I/O was done ...
  const sim::SimTime arrived = run.heard + link;
  EXPECT_LT(arrived, run.decision + apply);
  // ... and waited at most for the one write in service, not for the
  // rest: the I/O is deferred work that foreground requests overtake.
  EXPECT_LE(run.read_done,
            arrived + cfg.service.write_apply + cfg.service.read + link);

  // Every write is still paid for, at the origin and at the peer: the
  // same run without apply I/O is busy exactly eight writes less.
  HeliosConfig no_io = cfg;
  no_io.service.write_apply = 0;
  const ApplyIoRun free = RunEightWriteCommitThenRead(no_io);
  ASSERT_TRUE(free.commit.done && free.commit.outcome.committed);
  for (DcId dc = 0; dc < 2; ++dc) {
    EXPECT_EQ(run.busy[dc] - free.busy[dc], apply) << "dc " << dc;
  }
}

TEST(HeliosReplyTest, SaturatedServerStillPaysForEveryWrite) {
  // Far past the knee: 80 closed-loop clients per datacenter want more
  // apply I/O than a server can do. Past sim::ServiceQueue's deferred cap
  // the I/O is served as it arrives, so the unpaid I/O stays bounded and
  // throughput stays what the servers can actually sustain.
  const int n = 3;
  const HeliosConfig cfg = BaseConfig(n);
  auto rig = MakeUniformRig(n, Millis(40), cfg);
  rig->cluster->Start();
  const sim::SimTime stop = Seconds(2);
  std::vector<std::unique_ptr<workload::ClosedLoopClient>> clients;
  for (DcId dc = 0; dc < n; ++dc) {
    for (int c = 0; c < 80; ++c) {
      const uint64_t id = clients.size();
      clients.push_back(std::make_unique<workload::ClosedLoopClient>(
          id, dc, rig->cluster.get(), &rig->scheduler,
          workload::WorkloadConfig{}, /*seed=*/11 + id, 0, stop, stop));
      clients.back()->Start();
    }
  }
  // Apply I/O owed for every committed write the datacenter has applied.
  const auto owed = [&](DcId dc) {
    Duration io = 0;
    for (const rdict::LogRecord& r :
         rig->cluster->wal_journal(dc, 0)->contents().records) {
      if (r.type == rdict::RecordType::kFinished && r.committed) {
        io += cfg.service.write_apply *
              static_cast<Duration>(r.body->write_set.size());
      }
    }
    return io;
  };
  const Duration cap = sim::ServiceQueue::kDeferredCap;
  std::vector<Duration> fullest(static_cast<size_t>(n), 0);
  for (sim::SimTime t = Millis(250); t <= stop; t += Millis(250)) {
    rig->scheduler.RunUntil(t);
    for (DcId dc = 0; dc < n; ++dc) {
      EXPECT_LE(owed(dc), t + cap) << "dc " << dc << " at " << t;
      fullest[static_cast<size_t>(dc)] =
          std::max(fullest[static_cast<size_t>(dc)],
                   rig->cluster->node(dc).service_queue().deferred_backlog());
    }
  }
  for (DcId dc = 0; dc < n; ++dc) {
    // Saturated: the deferred class filled up, so the cap is what bound.
    EXPECT_GT(fullest[static_cast<size_t>(dc)], cap - cfg.service.write_apply)
        << "dc " << dc;
  }
  // Clients stopped: once the foreground drains, the server has done no
  // more work than there was time for, deferred units included.
  const sim::SimTime end = stop + Millis(500);
  rig->scheduler.RunUntil(end);
  for (DcId dc = 0; dc < n; ++dc) {
    const sim::ServiceQueue& q = rig->cluster->node(dc).service_queue();
    EXPECT_LE(owed(dc), end + cap) << "dc " << dc;
    EXPECT_LE(q.total_busy(), end) << "dc " << dc;
    EXPECT_EQ(q.deferred_backlog(), 0) << "dc " << dc;
  }
  uint64_t committed = 0;
  for (const auto& client : clients) committed += client->metrics().committed;
  EXPECT_GT(committed, 1000u);
}

TEST(HeliosFsyncStallTest, PenaltyIsChargedOncePerRecordPersisted) {
  // Each node persists the commit's preparing and finished records, by
  // appending them at the origin and ingesting them at the peer. Applying
  // the eight writes persists nothing more, so it adds no penalty.
  const HeliosConfig cfg = BaseConfig(2);
  const Duration penalty = Millis(1);
  const ApplyIoRun calm = RunEightWriteCommitThenRead(cfg);
  const ApplyIoRun stalled = RunEightWriteCommitThenRead(cfg, penalty);
  ASSERT_TRUE(stalled.commit.done && stalled.commit.outcome.committed);
  for (DcId dc = 0; dc < 2; ++dc) {
    EXPECT_EQ(stalled.busy[dc] - calm.busy[dc], 2 * penalty) << "dc " << dc;
  }
}

// Records take the first instant not yet promised to peers, so the append
// rule must keep every record above every T[self][self] its node already
// sent, across a crash and a restart within one interval of the last
// send. Sends are observed through the cluster's envelope sizer, appends
// through the WAL, which journals them in order.
TEST(HeliosTimestampTest, RecordsLandAboveEverySentPromise) {
  ContentionOptions opt;
  opt.seed = 113;
  opt.run_for = Seconds(8);
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  cfg.fault_tolerance = 1;
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg));
  HeliosCluster& cluster = *rig->cluster;

  // Per datacenter: (WAL length when the envelope left, T[self][self] it
  // carried). Records journaled at or after that length came later.
  using Send = std::pair<size_t, Timestamp>;
  std::vector<std::vector<Send>> sends(static_cast<size_t>(opt.num_dcs));
  cluster.set_envelope_sizer([&cluster, &sends](const Envelope& env) {
    const DcId from = env.log.from;
    sends[static_cast<size_t>(from)].emplace_back(
        cluster.wal_journal(from, 0)->contents().records.size(),
        env.log.table.Get(from, from));
    return size_t{0};
  });
  // DC 1 sends every 5 ms from 6.667 ms on; crash it just after the send
  // at 3001.667 ms and restart it 1.3 ms later, inside that interval.
  const DcId victim = 1;
  size_t wal_at_restart = 0;
  rig->scheduler.At(Micros(3001700),
                    [&cluster] { cluster.CrashDatacenter(victim); });
  rig->scheduler.At(Micros(3003000), [&cluster, &wal_at_restart] {
    wal_at_restart =
        cluster.wal_journal(victim, 0)->contents().records.size();
    cluster.RecoverDatacenter(victim);
  });
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  EXPECT_GT(out.commits, 100u);
  EXPECT_GT(out.aborts, 0u);
  EXPECT_EQ(cluster.recovery_snapshot().recoveries, 1u);

  size_t appended_after_restart = 0;
  for (DcId dc = 0; dc < opt.num_dcs; ++dc) {
    const auto& records = cluster.wal_journal(dc, 0)->contents().records;
    const auto& dc_sends = sends[static_cast<size_t>(dc)];
    ASSERT_FALSE(dc_sends.empty()) << "dc " << dc;
    size_t next_send = 0;
    Timestamp promised = kMinTimestamp;
    for (size_t i = 0; i < records.size(); ++i) {
      while (next_send < dc_sends.size() && dc_sends[next_send].first <= i) {
        promised = std::max(promised, dc_sends[next_send].second);
        ++next_send;
      }
      if (records[i].origin != dc) continue;  // Ingested, not appended.
      EXPECT_GT(records[i].ts, promised)
          << "dc " << dc << " record " << i << " of "
          << records[i].body->id.ToString();
      if (dc == victim && i >= wal_at_restart) ++appended_after_restart;
    }
  }
  // The restart must have appended records (its presumed aborts).
  EXPECT_GT(appended_after_restart, 0u);
}

// The one-interval floor: a commit processed right after a process stall
// longer than the grace time must not take the last pre-stall promise as
// q(t), or every peer refuses its record and Rule 3 dooms it. DC 0 sends
// every 10 ms; the stall ends at 2505 ms, so the queued commit is
// processed before the first send after it.
TEST(HeliosTimestampTest, CommitRightAfterALongStallIsNotRefused) {
  HeliosConfig cfg = BaseConfig(3);
  cfg.fault_tolerance = 1;
  cfg.log_interval = Millis(10);
  ASSERT_LT(cfg.grace_time, Millis(1505));
  auto rig = MakeUniformRig(3, Millis(40), std::move(cfg));
  rig->cluster->Start();
  rig->scheduler.At(Seconds(1),
                    [&] { rig->cluster->node(0).InjectStall(Millis(1505)); });
  CommitResult result;
  rig->scheduler.At(Millis(1001), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}}, &result);
  });
  rig->scheduler.RunUntil(Seconds(5));
  ASSERT_TRUE(result.done);
  EXPECT_TRUE(result.outcome.committed) << result.outcome.abort_reason;
}

TEST(HeliosGcTest, LogsAndRefusalsDoNotGrowUnboundedly) {
  ContentionOptions opt;
  opt.run_for = Seconds(10);
  HeliosConfig cfg = BaseConfig(opt.num_dcs);
  cfg.gc_interval = Millis(200);
  auto rig = MakeUniformRig(opt.num_dcs, opt.rtt, std::move(cfg));
  RunContentionWorkload(*rig, opt);
  for (DcId dc = 0; dc < opt.num_dcs; ++dc) {
    // After quiescing, everything is universally known and GC'd.
    EXPECT_LT(rig->cluster->node(dc).log().live_records(), 10u) << dc;
  }
}

TEST(HeliosCountersTest, CountersAreConsistent) {
  ContentionOptions opt;
  opt.run_for = Seconds(5);
  auto rig =
      MakeUniformRig(opt.num_dcs, opt.rtt, BaseConfig(opt.num_dcs), opt.kind);
  const ContentionOutcome out = RunContentionWorkload(*rig, opt);
  const NodeCounters total = rig->cluster->AggregateCounters();
  EXPECT_EQ(total.commits, out.commits);
  EXPECT_EQ(total.total_aborts(), out.aborts);
  EXPECT_EQ(total.commits, rig->cluster->history().size());
  EXPECT_EQ(total.commit_requests, total.commits + total.total_aborts());
}

// --- A write set that names a key twice ------------------------------------

/// The value of `key` at every datacenter (and shard) that holds it.
std::vector<std::string> ValuesEverywhere(const HeliosCluster& cluster,
                                          const Key& key) {
  std::vector<std::string> out;
  for (DcId dc = 0; dc < cluster.num_datacenters(); ++dc) {
    for (int s = 0; s < cluster.num_shards(); ++s) {
      auto v = cluster.node(dc, s).store().Read(key);
      if (v.ok()) out.push_back(v.value().value);
    }
  }
  return out;
}

TEST(DuplicateWriteTest, HeliosRefusesARepeatedKey) {
  auto rig = MakeUniformRig(3, Millis(20), BaseConfig(3));
  rig->cluster->LoadInitialAll({{"x", "0"}});
  rig->cluster->Start();
  CommitResult dup;
  rig->scheduler.At(Millis(10), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}, {"x", "2"}}, &dup);
  });
  rig->scheduler.RunUntil(Seconds(1));
  ASSERT_TRUE(dup.done);
  EXPECT_FALSE(dup.outcome.committed);
  EXPECT_EQ(dup.outcome.abort_reason, kDuplicateWriteAbortReason);
  EXPECT_EQ(ValuesEverywhere(*rig->cluster, "x"),
            std::vector<std::string>(3, "0"));
  const NodeCounters total = rig->cluster->AggregateCounters();
  EXPECT_EQ(total.commit_requests, 1u);
  EXPECT_EQ(total.aborts_on_request, 1u);
  EXPECT_EQ(total.commit_requests, total.commits + total.total_aborts());
}

TEST(DuplicateWriteTest, HeliosOverTwoShardsRefusesARepeatedKey) {
  // "a" lives on shard 0 and "x" on shard 1: {x, x} stays on one shard's
  // node, {a, x, x} is refused before the coordinator splits it.
  auto rig = std::make_unique<TestRig>();
  rig->network = std::make_unique<sim::Network>(&rig->scheduler, 3, 1);
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) rig->network->SetRtt(a, b, Millis(20), 0);
  }
  rig->cluster = std::make_unique<HeliosCluster>(
      &rig->scheduler, rig->network.get(), BaseConfig(3),
      LogProtocolKind::kHelios, "Helios", shard::ShardMap::Range({"m"}));
  rig->cluster->LoadInitialAll({{"a", "0"}, {"x", "0"}});
  rig->cluster->Start();
  CommitResult single, cross, clean;
  rig->scheduler.At(Millis(10), [&] {
    AsyncCommit(*rig, 0, {}, {{"x", "1"}, {"x", "2"}}, &single);
    AsyncCommit(*rig, 1, {}, {{"a", "1"}, {"x", "1"}, {"x", "2"}}, &cross);
  });
  rig->scheduler.At(Millis(200), [&] {
    AsyncCommit(*rig, 2, {}, {{"a", "3"}, {"x", "3"}}, &clean);
  });
  rig->scheduler.RunUntil(Seconds(2));
  for (const CommitResult* r : {&single, &cross}) {
    ASSERT_TRUE(r->done);
    EXPECT_FALSE(r->outcome.committed);
    EXPECT_EQ(r->outcome.abort_reason, kDuplicateWriteAbortReason);
  }
  // Nothing of either reached a store; a well-formed cross-shard
  // transaction on the same keys still commits.
  ASSERT_TRUE(clean.done);
  EXPECT_TRUE(clean.outcome.committed) << clean.outcome.abort_reason;
  EXPECT_EQ(ValuesEverywhere(*rig->cluster, "a"),
            std::vector<std::string>(3, "3"));
  EXPECT_EQ(ValuesEverywhere(*rig->cluster, "x"),
            std::vector<std::string>(3, "3"));
  const NodeCounters total = rig->cluster->AggregateCounters();
  EXPECT_EQ(total.commit_requests, 1u);
  EXPECT_EQ(total.commit_requests, total.commits + total.total_aborts());
  obs::MetricsRegistry reg;
  rig->cluster->ExportMetrics(&reg);
  EXPECT_EQ(reg.counter("xshard.aborted").value(), 1u);
  EXPECT_EQ(reg.counter("protocol.aborts").value(), 2u);
  EXPECT_EQ(reg.counter("protocol.commits").value(), 1u);
}

// HELIOS_CHECK stops the process in every build, this NDEBUG one included.
#if GTEST_HAS_DEATH_TEST
TEST(HeliosCheckDeathTest, ShortCommitOffsetRowAborts) {
  auto rig = MakeUniformRig(3, Millis(100), BaseConfig(3));
  EXPECT_DEATH(rig->cluster->node(0).SetCommitOffsetRow({0, 0}),
               "check failed: .*offset row of 2 entries for 3 datacenters");
}

TEST(HeliosCheckDeathTest, CatchupOnDownNodeAborts) {
  auto rig = MakeUniformRig(3, Millis(100), BaseConfig(3));
  rig->cluster->node(1).SetDown(true);
  EXPECT_DEATH(
      rig->cluster->node(1).BeginCatchup([](const RecoveryOutcome&) {}),
      "check failed: .*dc1: catch-up on a node that is down");
}
#endif

}  // namespace
}  // namespace helios::core
