#include "src/support/metrics.h"

#include "src/support/string_utils.h"

namespace overify {

namespace {

const char* const kCounterNames[] = {
#define OVERIFY_COUNTER_NAME(name, str, det) str,
    OVERIFY_METRIC_COUNTERS(OVERIFY_COUNTER_NAME)
#undef OVERIFY_COUNTER_NAME
};

const bool kCounterDeterministic[] = {
#define OVERIFY_COUNTER_DET(name, str, det) det,
    OVERIFY_METRIC_COUNTERS(OVERIFY_COUNTER_DET)
#undef OVERIFY_COUNTER_DET
};

const char* const kHistNames[] = {
#define OVERIFY_HIST_NAME(name, str) str,
    OVERIFY_METRIC_HISTS(OVERIFY_HIST_NAME)
#undef OVERIFY_HIST_NAME
};

static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) == kNumCounters,
              "counter name table out of sync with the enum");
static_assert(sizeof(kHistNames) / sizeof(kHistNames[0]) == kNumHists,
              "histogram name table out of sync with the enum");

}  // namespace

const char* CounterName(Counter c) { return kCounterNames[static_cast<size_t>(c)]; }

bool CounterIsDeterministic(Counter c) {
  return kCounterDeterministic[static_cast<size_t>(c)];
}

const char* HistName(Hist h) { return kHistNames[static_cast<size_t>(h)]; }

// ---- LatencyHistogram ----

// Log-linear bucketing with 2 significant mantissa bits: values below 4 map
// to their own buckets (0..3); otherwise, with e the index of the leading
// bit, the bucket is 4*e + the two mantissa bits below it. Each power of
// two therefore splits into 4 equal-width sub-buckets.
size_t LatencyHistogram::BucketFor(uint64_t ns) {
  if (ns < 4) {
    return static_cast<size_t>(ns);
  }
  const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(ns));
  const uint64_t mantissa = (ns >> (e - 2)) & 3;
  size_t bucket = static_cast<size_t>(e) * 4 + static_cast<size_t>(mantissa) - 4;
  return bucket < kNumBuckets ? bucket : kNumBuckets - 1;
}

uint64_t LatencyHistogram::BucketLow(size_t bucket) {
  if (bucket < 4) {
    return bucket;
  }
  const uint64_t e = (bucket + 4) / 4;
  const uint64_t mantissa = (bucket + 4) % 4;
  // The top four buckets (e == 64) start at or past 2^64, which no value
  // reaches; wrap their 2^e term to 0 (shifting by 64 is undefined) so the
  // bounds still tile modulo 2^64.
  const uint64_t power = e < 64 ? uint64_t{1} << e : 0;
  return power | (mantissa << (e - 2));
}

uint64_t LatencyHistogram::BucketHigh(size_t bucket) {
  if (bucket < 4) {
    return bucket;
  }
  if (bucket == kNumBuckets - 1) {
    return ~uint64_t{0};
  }
  return BucketLow(bucket + 1) - 1;
}

uint64_t LatencyHistogram::ValueAt(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  // The rank to reach, 1-based; q = 0 means the first recorded value.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      uint64_t mid = BucketLow(i) + (BucketHigh(i) - BucketLow(i)) / 2;
      return mid < max_ ? mid : max_;
    }
  }
  return max_;
}

// ---- Rendering ----

TextTable RenderMetricsTable(const MetricsShard& shard, bool all) {
  TextTable table({"metric", "value"});
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (!all && shard.counters[i] == 0) {
      continue;
    }
    table.AddRow({kCounterNames[i], StrFormat("%llu", (unsigned long long)shard.counters[i])});
  }
  bool separated = false;
  for (size_t i = 0; i < kNumHists; ++i) {
    const LatencyHistogram& h = shard.hists[i];
    if (h.count() == 0 && !all) {
      continue;
    }
    if (!separated) {
      table.AddSeparator();
      separated = true;
    }
    table.AddRow({kHistNames[i],
                  StrFormat("n=%llu p50=%llu p95=%llu max=%llu",
                            (unsigned long long)h.count(), (unsigned long long)h.P50(),
                            (unsigned long long)h.P95(), (unsigned long long)h.max_ns())});
  }
  return table;
}

}  // namespace overify
