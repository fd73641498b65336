// Unit tests for the common utilities: status/result, RNG, Zipfian,
// statistics, and table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/types.h"

namespace helios {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "not_found: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kInvalidArgument, StatusCode::kFailedPrecondition,
        StatusCode::kAborted, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Aborted("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(TxnIdTest, OrderingAndEquality) {
  TxnId a{0, 1};
  TxnId b{0, 2};
  TxnId c{1, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (TxnId{0, 1}));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(TxnId{}.valid());
  EXPECT_EQ(a.ToString(), "0:1");
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Millis(5), 5000);
  EXPECT_EQ(Seconds(2), 2000000);
  EXPECT_DOUBLE_EQ(ToMillis(1500), 1.5);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScalesMeanAndStddev) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfianTest, InRangeAndSkewed) {
  Rng rng(23);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Item 0 must be far more popular than the median item.
  EXPECT_GT(counts[0], 100);
  EXPECT_GT(counts[0], counts[500] * 5);
}

TEST(ZipfianTest, ThetaZeroIsNearlyUniform) {
  Rng rng(29);
  ZipfianGenerator zipf(10, 1e-9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 1500);
}

TEST(ZipfianTest, ConcurrentConstructionMatchesSerial) {
  // Generators share one zeta sum per (n, theta). Four threads build
  // theirs at once over a pool no other test uses, so the first sum races
  // with its readers; each must draw what a generator built alone draws.
  constexpr uint64_t kItems = 37337;
  constexpr double kTheta = 0.61;
  constexpr int kDraws = 1000;
  const auto draw = [] {
    ZipfianGenerator zipf(kItems, kTheta);
    Rng rng(41);
    std::vector<uint64_t> items;
    for (int i = 0; i < kDraws; ++i) items.push_back(zipf.Next(rng));
    return items;
  };
  std::vector<std::vector<uint64_t>> drawn(4);
  std::latch start(static_cast<std::ptrdiff_t>(drawn.size()));
  std::vector<std::thread> threads;
  for (auto& out : drawn) {
    threads.emplace_back([&start, &out, &draw] {
      start.arrive_and_wait();
      out = draw();
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<uint64_t> alone = draw();
  for (const auto& items : drawn) EXPECT_EQ(items, alone);
}

TEST(UniformKeyGeneratorTest, CoversRange) {
  Rng rng(31);
  UniformKeyGenerator gen(5);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) counts[gen.Next(rng)]++;
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(StatAccumulatorTest, BasicMoments) {
  StatAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_GT(acc.ci95_half_width(), 0.0);
}

TEST(StatAccumulatorTest, EmptyIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
  EXPECT_EQ(acc.ci95_half_width(), 0.0);
}

TEST(StatAccumulatorTest, MergeMatchesCombinedStream) {
  StatAccumulator a;
  StatAccumulator b;
  StatAccumulator all;
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Normal(3.0, 1.5);
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(DistributionTest, Percentiles) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 100.0);
  EXPECT_NEAR(d.Median(), 50.5, 1e-9);
  EXPECT_NEAR(d.Percentile(99), 99.01, 0.1);
  EXPECT_NEAR(d.mean(), 50.5, 1e-9);
}

TEST(DistributionTest, EmptySafe) {
  Distribution d;
  EXPECT_EQ(d.Percentile(50), 0.0);
  EXPECT_EQ(d.mean(), 0.0);
  EXPECT_EQ(d.Median(), 0.0);
  EXPECT_EQ(d.Percentile(0), 0.0);
  EXPECT_EQ(d.Percentile(100), 0.0);
  EXPECT_EQ(d.stddev(), 0.0);
}

TEST(DistributionTest, SingleSample) {
  Distribution d;
  d.Add(7.5);
  EXPECT_DOUBLE_EQ(d.Percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(d.Median(), 7.5);
  EXPECT_DOUBLE_EQ(d.Percentile(99), 7.5);
  EXPECT_DOUBLE_EQ(d.Percentile(100), 7.5);
  EXPECT_DOUBLE_EQ(d.mean(), 7.5);
  EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(DistributionTest, PercentileBoundsClampToExtremes) {
  Distribution d;
  for (int i = 1; i <= 10; ++i) d.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(d.Percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(d.Percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(d.Percentile(250), 10.0);
}

TEST(DistributionTest, UnsortedAddsInterpolateCorrectly) {
  Distribution d;
  for (double x : {30.0, 10.0, 40.0, 20.0}) d.Add(x);
  // Sorted: 10 20 30 40. Median rank 1.5 -> midway between 20 and 30.
  EXPECT_DOUBLE_EQ(d.Median(), 25.0);
  EXPECT_DOUBLE_EQ(d.Percentile(25), 17.5);
  // Percentile sorting must not break later mixed use.
  d.Add(0.0);
  EXPECT_DOUBLE_EQ(d.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(d.min(), 0.0);
  EXPECT_DOUBLE_EQ(d.max(), 40.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Protocol", "V", "O"});
  t.AddRow({"Helios-0", "76", "14"});
  t.AddRow({"2PC/Paxos", "230", "178"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("Protocol"), std::string::npos);
  EXPECT_NE(out.find("Helios-0"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Right-aligned numeric column: "230" appears after spaces on its row.
  EXPECT_NE(out.find("2PC/Paxos"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::MeanStd(66.0, 10.0), "66 (10.0)");
}

}  // namespace
}  // namespace helios
