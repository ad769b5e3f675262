// Typed metrics registry for the symbolic-execution engine.
//
// One MetricsShard per worker holds every engine counter (enum-indexed, no
// string hashing on the hot path) plus fixed-bucket latency histograms for
// the hot phases. Shards merge deterministically — counter merge is
// element-wise addition and histogram merge is bucket-wise addition, both
// associative and commutative — so the pool's aggregation is one loop
// instead of a hand-written sum per counter family, and 1-vs-N-worker
// exhausted runs produce identical merged values for every counter flagged
// deterministic below (docs/observability.md).
//
// Histogram recording is gated by MetricsShard::timing: a bare SolverChain
// (microbenchmarks, tests) keeps it off so the ~100ns cache-hit fast path
// never pays for two clock reads; engine-owned shards always switch it on,
// since engine queries are microseconds and the overhead vanishes.
//
// The registry is the only store of every count in the toolkit: the
// engine's per-run telemetry (SymexResult::metrics, SolverChain::metrics())
// and the optimization passes' compile-phase counters (Table 3's rows),
// which a PassManager collects into its own shard and the driver copies
// into CompileResult::metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>

#include "src/support/table.h"

namespace overify {

// X-macro: (enum name, dotted display name, deterministic).
//
// `deterministic` marks counters whose merged value is identical for 1..N
// workers on exhausted runs — exactly the fields the diff harness's
// RunSignature covers. Solver/preprocess/cache counters are NOT
// deterministic: caches are per-worker, so where a state runs decides
// whether its queries hit or search; steal and fault counters are
// schedule-dependent by nature. The compile-phase counters at the end (what
// each optimization pass did, Table 3's rows) are counted by a PassManager,
// never by the engine; one compile is single-threaded and deterministic.
//
// A terminated path counts under exactly one cause: paths.bug (died at a
// bug site), paths.limit (running when a limit stopped the search),
// paths.unexplored (still queued then) or paths.unknown (the solver gave up
// on a decisive query; never explored past, and always the sum of the three
// paths.unknown_* causes, docs/robustness.md). No path dies infeasible: its
// model witnesses one side of every branch decision. steal.states and
// steal.batches count migrated states and steals that yielded work.
//
// Retired counters are always 0: nothing counts them any more, and they
// stay only because e2ebench/e2e_bench.cc names them. They are deleted with
// the next benchmark change.
#define OVERIFY_METRIC_COUNTERS(X)                            \
  X(kPathsCompleted, "paths.completed", true)                 \
  X(kPathsInfeasible, "paths.infeasible", true) /* retired */ \
  X(kPathsBug, "paths.bug", true)                             \
  X(kPathsLimit, "paths.limit", true)                         \
  X(kPathsUnexplored, "paths.unexplored", true)               \
  X(kPathsUnknown, "paths.unknown", true)                     \
  X(kPathsUnknownBudget, "paths.unknown_budget", true)        \
  X(kPathsUnknownDeadline, "paths.unknown_deadline", true)    \
  X(kPathsUnknownInjected, "paths.unknown_injected", true)    \
  X(kInstructions, "engine.instructions", true)               \
  X(kForks, "engine.forks", true)                             \
  X(kAnnotationHits, "engine.annotation_hits", true) /* retired */ \
  X(kSolverQueries, "solver.queries", false)                  \
  X(kSolverCacheHits, "solver.cache_hits", false)             \
  X(kSolverReuseHits, "solver.reuse_hits", false)             \
  X(kSolverCoreQueries, "solver.core_queries", false)         \
  X(kSolverCoreCandidates, "solver.core_candidates", false)   \
  X(kSolverCoreConflicts, "solver.core_conflicts", false)     \
  X(kSolverCoreLearned, "solver.core_learned", false)         \
  X(kSolverCoreLearnedHits, "solver.core_learned_hits", false) /* retired */ \
  X(kSolverCoreBackjumps, "solver.core_backjumps", false)     \
  X(kSolverCoreRestarts, "solver.core_restarts", false) /* retired */ \
  X(kSolverIndependenceDrops, "solver.independence_drops", false) \
  X(kSolverEvalMemoHits, "solver.eval_memo_hits", false)      \
  X(kSolverIntervalMemoHits, "solver.interval_memo_hits", false) \
  X(kSolverCexEvictions, "solver.cex_evictions", false)       \
  X(kSolverUnknownBudget, "solver.unknown_budget", false)     \
  X(kSolverUnknownDeadline, "solver.unknown_deadline", false) \
  X(kSolverUnknownCancelled, "solver.unknown_cancelled", false) \
  X(kSolverUnknownInjected, "solver.unknown_injected", false) \
  X(kPreprocessBindings, "preprocess.bindings", false)        \
  X(kPreprocessSubstitutions, "preprocess.substitutions", false) \
  X(kPreprocessTautologies, "preprocess.tautologies", false)  \
  X(kPreprocessContradictions, "preprocess.contradictions", false) \
  X(kPresolveShortcuts, "preprocess.presolve_shortcuts", false) \
  X(kPrefixSubsetHits, "prefix.subset_hits", false) /* retired */ \
  X(kPrefixSupersetHits, "prefix.superset_hits", false) /* retired */ \
  X(kPrefixModelHits, "prefix.model_hits", false) /* retired */ \
  X(kPrefixCollisions, "prefix.collisions", false)            \
  X(kPersistSeeded, "persist.seeded", false)                  \
  X(kPersistHits, "persist.hits", false)                      \
  X(kPersistValidations, "persist.validations", false)        \
  X(kPersistRejects, "persist.rejects", false)                \
  X(kDaemonRequests, "daemon.requests", false)                \
  X(kDaemonRunHits, "daemon.run_hits", false)                 \
  X(kDaemonRunMisses, "daemon.run_misses", false)             \
  X(kDaemonRunEvictions, "daemon.run_evictions", false)       \
  X(kDaemonStoreRejects, "daemon.store_rejects", false)       \
  X(kSteals, "steal.states", false)                           \
  X(kStealBatches, "steal.batches", false)                    \
  X(kFaultSolverUnknown, "fault.solver_unknown", false)       \
  X(kFaultCacheLookup, "fault.cache_lookup", false)           \
  X(kFaultStealBatch, "fault.steal_batch", false)             \
  X(kFaultWorkerStalls, "fault.worker_stalls", false)         \
  X(kFaultWorkerDeaths, "fault.worker_deaths", false)         \
  X(kFaultDraws, "fault.draws", false)                        \
  X(kSliceChecksFound, "slice.checks_found", true)            \
  X(kSlicesBuilt, "slice.built", true)                        \
  X(kSliceConeInstructions, "slice.cone_instructions", true)  \
  X(kSliceEntryInstructions, "slice.entry_instructions", true) \
  X(kSliceFallbacks, "slice.fallbacks", true)                 \
  X(kSliceReplayConfirmed, "slice.replay_confirmed", true)    \
  X(kSliceReplayFailed, "slice.replay_failed", true)                  \
  X(kChecksInserted, "checks.inserted", true)                         \
  X(kCseEliminated, "cse.eliminated", true)                           \
  X(kDceRemoved, "dce.removed", true)                                 \
  X(kGlobalDceFunctionsRemoved, "globaldce.functions_removed", true)  \
  X(kIfConvertBranchesConverted, "ifconvert.branches_converted", true) \
  X(kIfConvertAddressSelectsRefused, "ifconvert.address_selects_refused", true) \
  X(kInlineFunctionsInlined, "inline.functions_inlined", true)        \
  X(kInstCombineSimplified, "instcombine.simplified", true)           \
  X(kJumpThreadThreaded, "jumpthread.threaded", true)                 \
  X(kLicmHoisted, "licm.hoisted", true)                               \
  X(kMem2RegPromotedAllocas, "mem2reg.promoted_allocas", true)        \
  X(kSimplifyCfgBranchesFolded, "simplifycfg.branches_folded", true)  \
  X(kSimplifyCfgBlocksMerged, "simplifycfg.blocks_merged", true)      \
  X(kSimplifyCfgBlocksForwarded, "simplifycfg.blocks_forwarded", true) \
  X(kUnrollLoopsUnrolled, "unroll.loops_unrolled", true)              \
  X(kUnswitchLoopsUnswitched, "unswitch.loops_unswitched", true)

// X-macro: (enum name, dotted display name). Query, core-search, path-run
// and steal-batch latencies are recorded whenever the shard's timing flag is
// on; the cache-lookup, preprocess and fork-decide sub-spans are trace-only
// (their events are often cheaper than a clock-read pair, so metrics mode
// skips them — docs/observability.md#overhead).
// kCoreConflictDepth and kSliceConeRatioPct are the non-latency histograms:
// kCoreConflictDepth records the decision depth of every core-search
// conflict (a raw level count, not nanoseconds), so observability can tell
// shallow thrashing from deep near-miss search; kSliceConeRatioPct records
// each emitted slice's size as a percentage of the original entry function
// (docs/slicing.md). Both bypass the timing gate — recording costs a few
// adds, no clock reads.
#define OVERIFY_METRIC_HISTS(X)            \
  X(kSolverQueryNs, "solver.query_ns")     \
  X(kCoreSearchNs, "solver.core_search_ns") \
  X(kCoreConflictDepth, "solver.core_conflict_depth") \
  X(kCacheLookupNs, "solver.cache_lookup_ns") \
  X(kPreprocessNs, "preprocess.extend_ns") \
  X(kForkDecideNs, "engine.fork_decide_ns") \
  X(kPathRunNs, "engine.path_run_ns")      \
  X(kStealBatchNs, "steal.batch_ns")       \
  X(kSliceConeRatioPct, "slice.cone_ratio_pct")

enum class Counter : uint32_t {
#define OVERIFY_COUNTER_ENUM(name, str, det) name,
  OVERIFY_METRIC_COUNTERS(OVERIFY_COUNTER_ENUM)
#undef OVERIFY_COUNTER_ENUM
      kNumCounters,
};

enum class Hist : uint32_t {
#define OVERIFY_HIST_ENUM(name, str) name,
  OVERIFY_METRIC_HISTS(OVERIFY_HIST_ENUM)
#undef OVERIFY_HIST_ENUM
      kNumHists,
};

constexpr size_t kNumCounters = static_cast<size_t>(Counter::kNumCounters);
constexpr size_t kNumHists = static_cast<size_t>(Hist::kNumHists);

const char* CounterName(Counter c);
bool CounterIsDeterministic(Counter c);
const char* HistName(Hist h);

// The clock every metric duration and trace timestamp comes from. One
// source keeps histogram durations and trace spans mutually consistent.
inline uint64_t MetricsNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Fixed-bucket log-linear latency histogram (HdrHistogram-style, 2
// significant mantissa bits): 4 sub-buckets per power of two, ~12.5%
// relative error, 256 buckets covering the full uint64 nanosecond range.
// No allocation, merge is bucket-wise addition.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 256;

  void Record(uint64_t ns) {
    ++buckets_[BucketFor(ns)];
    ++count_;
    sum_ += ns;
    if (ns > max_) {
      max_ = ns;
    }
  }

  // Bucket-wise addition: associative and commutative (unit-tested), so the
  // pool may merge worker shards in any order or grouping.
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }

  void Reset() { *this = LatencyHistogram(); }

  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_; }
  uint64_t max_ns() const { return max_; }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  // The value at quantile `q` in [0, 1], approximated as the midpoint of
  // the bucket where the cumulative count crosses q * count (clamped to the
  // recorded max). 0 when empty.
  uint64_t ValueAt(double q) const;
  uint64_t P50() const { return ValueAt(0.50); }
  uint64_t P95() const { return ValueAt(0.95); }

  // Bucket geometry, exposed for tests: values in
  // [BucketLow(i), BucketHigh(i)] land in bucket i.
  static size_t BucketFor(uint64_t ns);
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketHigh(size_t bucket);

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// One worker's slice of the registry. Exactly one thread writes a shard
// while a run is live; the pool merges them after the join, so no field is
// atomic and increments cost what a plain uint64_t add costs.
struct MetricsShard {
  uint64_t counters[kNumCounters] = {};
  LatencyHistogram hists[kNumHists];
  // Gates histogram recording (the clock reads, not the counters). Callers
  // check it — typically through `timing || trace != nullptr` — before
  // taking timestamps.
  bool timing = false;

  void Inc(Counter c) { ++counters[static_cast<size_t>(c)]; }
  void Add(Counter c, uint64_t n) { counters[static_cast<size_t>(c)] += n; }
  // For subsystem-owned totals (ExprContext memos, preprocessor stats,
  // cache evictions, fault stats) synced into the shard on export.
  void Set(Counter c, uint64_t v) { counters[static_cast<size_t>(c)] = v; }
  uint64_t Get(Counter c) const { return counters[static_cast<size_t>(c)]; }

  void Record(Hist h, uint64_t ns) { hists[static_cast<size_t>(h)].Record(ns); }
  const LatencyHistogram& hist(Hist h) const { return hists[static_cast<size_t>(h)]; }

  // Element-wise counter addition + bucket-wise histogram merge:
  // associative and commutative, the property the determinism tests pin.
  void Merge(const MetricsShard& other) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters[i] += other.counters[i];
    }
    for (size_t i = 0; i < kNumHists; ++i) {
      hists[i].Merge(other.hists[i]);
    }
    timing = timing || other.timing;
  }

  void Reset() {
    std::memset(counters, 0, sizeof(counters));
    for (size_t i = 0; i < kNumHists; ++i) {
      hists[i].Reset();
    }
  }
};

// Renders a merged shard as the standard two-column telemetry table:
// every non-zero counter (all counters when `all` is set), then one row
// per recorded histogram with count/p50/p95/max.
TextTable RenderMetricsTable(const MetricsShard& shard, bool all = false);

}  // namespace overify
