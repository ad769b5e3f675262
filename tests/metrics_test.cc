// The metrics registry (src/support/metrics.h): histogram bucket geometry
// and percentiles, merge algebra (associative + commutative, the property
// the pool's deterministic aggregation rests on), shard merging, name-table
// integrity, and the engine-level contract that order-independent counters
// merge identically across worker counts on exhausted runs
// (docs/observability.md).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/driver/compiler.h"
#include "src/support/metrics.h"
#include "src/symex/executor.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t ns = 0; ns < 4; ++ns) {
    EXPECT_EQ(LatencyHistogram::BucketFor(ns), ns);
    EXPECT_EQ(LatencyHistogram::BucketLow(LatencyHistogram::BucketFor(ns)), ns);
  }
}

TEST(LatencyHistogramTest, BucketBoundsCoverEveryValue) {
  // Every value lands in a bucket whose [low, high] range contains it, and
  // consecutive buckets tile the axis without gaps.
  for (uint64_t ns : {uint64_t{4}, uint64_t{5}, uint64_t{7}, uint64_t{8}, uint64_t{100},
                      uint64_t{1000}, uint64_t{123456}, uint64_t{1} << 40,
                      ~uint64_t{0} >> 1}) {
    size_t b = LatencyHistogram::BucketFor(ns);
    EXPECT_LE(LatencyHistogram::BucketLow(b), ns) << ns;
    EXPECT_GE(LatencyHistogram::BucketHigh(b), ns) << ns;
  }
  for (size_t b = 0; b + 1 < LatencyHistogram::kNumBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::BucketHigh(b) + 1, LatencyHistogram::BucketLow(b + 1)) << b;
  }
}

TEST(LatencyHistogramTest, RelativeErrorBounded) {
  // Two mantissa bits give a worst-case quantization error of 12.5% of the
  // value; the midpoint estimate halves that. Allow a slack factor.
  for (uint64_t ns = 4; ns < (uint64_t{1} << 30); ns = ns * 3 / 2 + 1) {
    size_t b = LatencyHistogram::BucketFor(ns);
    uint64_t lo = LatencyHistogram::BucketLow(b);
    uint64_t hi = LatencyHistogram::BucketHigh(b);
    EXPECT_LE(hi - lo, lo / 4 + 1) << "bucket too wide at " << ns;
  }
}

TEST(LatencyHistogramTest, PercentilesOfKnownDistribution) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 100; ++i) {
    h.Record(i * 1000);  // 1us .. 100us
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_ns(), 100000u);
  // Log-linear buckets quantize at ~12.5%; accept that band around the
  // exact percentile values.
  EXPECT_NEAR(static_cast<double>(h.P50()), 50000.0, 50000.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(h.P95()), 95000.0, 95000.0 * 0.15);
  EXPECT_LE(h.ValueAt(1.0), h.max_ns());
}

TEST(LatencyHistogramTest, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P95(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
}

// Deterministic pseudo-random latencies for the merge-algebra properties.
uint64_t NextLcg(uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return (s >> 33) % 1000000;
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram c;
  uint64_t seed = 42;
  for (int i = 0; i < 500; ++i) a.Record(NextLcg(seed));
  for (int i = 0; i < 300; ++i) b.Record(NextLcg(seed));
  for (int i = 0; i < 700; ++i) c.Record(NextLcg(seed));

  auto equal = [](const LatencyHistogram& x, const LatencyHistogram& y) {
    if (x.count() != y.count() || x.sum_ns() != y.sum_ns() || x.max_ns() != y.max_ns()) {
      return false;
    }
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      if (x.bucket(i) != y.bucket(i)) {
        return false;
      }
    }
    return true;
  };

  // (a + b) + c == a + (b + c)
  LatencyHistogram ab = a;
  ab.Merge(b);
  LatencyHistogram ab_c = ab;
  ab_c.Merge(c);
  LatencyHistogram bc = b;
  bc.Merge(c);
  LatencyHistogram a_bc = a;
  a_bc.Merge(bc);
  EXPECT_TRUE(equal(ab_c, a_bc));

  // a + b == b + a
  LatencyHistogram ba = b;
  ba.Merge(a);
  EXPECT_TRUE(equal(ab, ba));
}

TEST(MetricsShardTest, MergeSumsCountersAndHistograms) {
  MetricsShard a;
  MetricsShard b;
  a.Inc(Counter::kSolverQueries);
  a.Add(Counter::kInstructions, 100);
  a.Record(Hist::kSolverQueryNs, 500);
  b.Add(Counter::kSolverQueries, 4);
  b.Record(Hist::kSolverQueryNs, 700);
  b.Record(Hist::kCoreSearchNs, 50);
  a.Merge(b);
  EXPECT_EQ(a.Get(Counter::kSolverQueries), 5u);
  EXPECT_EQ(a.Get(Counter::kInstructions), 100u);
  EXPECT_EQ(a.hist(Hist::kSolverQueryNs).count(), 2u);
  EXPECT_EQ(a.hist(Hist::kSolverQueryNs).sum_ns(), 1200u);
  EXPECT_EQ(a.hist(Hist::kCoreSearchNs).count(), 1u);
  EXPECT_EQ(b.Get(Counter::kSolverQueries), 4u) << "merge must not mutate the source";
}

TEST(MetricsShardTest, CounterAndHistNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumCounters; ++i) {
    std::string name = CounterName(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter name: " << name;
  }
  for (size_t i = 0; i < kNumHists; ++i) {
    std::string name = HistName(static_cast<Hist>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate histogram name: " << name;
  }
}

TEST(MetricsShardTest, DeterministicFlagsMatchContract) {
  // The determinism contract (docs/scheduler.md): path counts and
  // instruction and fork totals merge identically across worker counts on
  // exhausted runs; solver/steal/fault counters are
  // schedule-dependent.
  EXPECT_TRUE(CounterIsDeterministic(Counter::kPathsCompleted));
  EXPECT_TRUE(CounterIsDeterministic(Counter::kInstructions));
  EXPECT_TRUE(CounterIsDeterministic(Counter::kForks));
  EXPECT_FALSE(CounterIsDeterministic(Counter::kSolverQueries));
  EXPECT_FALSE(CounterIsDeterministic(Counter::kSteals));
  EXPECT_FALSE(CounterIsDeterministic(Counter::kFaultDraws));
}

TEST(MetricsShardTest, RenderTableShowsNonZeroCountersAndHists) {
  MetricsShard m;
  m.Add(Counter::kSolverQueries, 7);
  m.Record(Hist::kSolverQueryNs, 1000);
  std::string table = RenderMetricsTable(m).ToString();
  EXPECT_NE(table.find("solver.queries"), std::string::npos) << table;
  EXPECT_NE(table.find("7"), std::string::npos) << table;
  EXPECT_NE(table.find(HistName(Hist::kSolverQueryNs)), std::string::npos) << table;
  // Zero counters stay out of the default rendering.
  EXPECT_EQ(table.find(CounterName(Counter::kSteals)), std::string::npos) << table;
}

// ---- Engine-level properties ----

CompileResult CompileWc() {
  Compiler compiler;
  CompileResult compiled =
      compiler.Compile(FindWorkload("wc")->source, OptLevel::kOverify, "wc");
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

SymexResult RunWithJobs(CompileResult& compiled, unsigned jobs) {
  SymexLimits limits;
  limits.max_seconds = 60;
  return Analyze(compiled, "umain", 5, limits, jobs);
}

TEST(MetricsEngineTest, MergedDeterministicCountersIdenticalAcrossWorkerCounts) {
  CompileResult m = CompileWc();
  SymexResult one = RunWithJobs(m, 1);
  ASSERT_TRUE(one.ok);
  ASSERT_TRUE(one.exhausted);
  for (unsigned jobs : {2u, 4u, 8u}) {
    SymexResult many = RunWithJobs(m, jobs);
    ASSERT_TRUE(many.ok);
    ASSERT_TRUE(many.exhausted) << jobs << " workers";
    for (size_t i = 0; i < kNumCounters; ++i) {
      Counter c = static_cast<Counter>(i);
      if (!CounterIsDeterministic(c)) {
        continue;
      }
      EXPECT_EQ(one.metrics.Get(c), many.metrics.Get(c))
          << CounterName(c) << " diverged at " << jobs << " workers";
    }
  }
}

TEST(MetricsEngineTest, TimingOnRecordsLatencies) {
  CompileResult m = CompileWc();
  SymexResult r = RunWithJobs(m, 1);  // engine shards always time
  ASSERT_TRUE(r.ok);
  const LatencyHistogram& h = r.metrics.hist(Hist::kSolverQueryNs);
  EXPECT_EQ(h.count(), r.metrics.Get(Counter::kSolverQueries));
  EXPECT_GT(h.P95(), 0u);
  EXPECT_GE(h.max_ns(), h.P50());
  EXPECT_GT(r.metrics.hist(Hist::kPathRunNs).count(), 0u);
}

}  // namespace
}  // namespace overify
