// Microbenchmarks of the engine's building blocks (google-benchmark):
// expression interning, solver queries through the chain, pipeline
// compilation throughput, concrete interpretation, and full exploration.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/cache/persist.h"
#include "src/symex/solver.h"
#include "src/workloads/textgen.h"
#include "src/workloads/workloads.h"

using namespace overify;
using namespace overify::bench;

namespace {

void BM_ExprInterning(benchmark::State& state) {
  for (auto _ : state) {
    ExprContext ctx;
    const Expr* acc = ctx.Constant(0, 32);
    for (unsigned i = 0; i < 64; ++i) {
      const Expr* sym = ctx.ZExt(ctx.Symbol(i % 8), 32);
      acc = ctx.Binary(ExprKind::kAdd, acc,
                       ctx.Binary(ExprKind::kMul, sym, ctx.Constant(i + 1, 32)));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ExprInterning);

// Records counter `c` of `m` under the benchmark counter name `key`.
void Report(benchmark::State& state, const char* key, const MetricsShard& m, Counter c) {
  state.counters[key] = static_cast<double>(m.Get(c));
}

// The preprocessing effectiveness counters recorded in the BENCH_symex.json
// snapshot (run_benches.sh picks these up by name).
void ReportPreprocessStats(benchmark::State& state, const MetricsShard& m) {
  Report(state, "presolve_shortcuts", m, Counter::kPresolveShortcuts);
  Report(state, "preprocess_bindings", m, Counter::kPreprocessBindings);
  Report(state, "preprocess_tautologies", m, Counter::kPreprocessTautologies);
}

// The learning core's search counters (docs/solver.md). Single-threaded
// exhaustive runs make every one of these deterministic, so run_benches.sh
// --check gates them exactly alongside `paths`.
void ReportCoreSearchStats(benchmark::State& state, const MetricsShard& m) {
  Report(state, "core_candidates", m, Counter::kSolverCoreCandidates);
  Report(state, "core_conflicts", m, Counter::kSolverCoreConflicts);
  Report(state, "core_learned", m, Counter::kSolverCoreLearned);
  Report(state, "core_learned_hits", m, Counter::kSolverCoreLearnedHits);
  Report(state, "core_backjumps", m, Counter::kSolverCoreBackjumps);
}

// Attaches a bare solver chain's fast-path counters to a benchmark's output
// so runs double as an observability check on the hot paths.
void ReportChainStats(benchmark::State& state, const MetricsShard& m) {
  Report(state, "cache_hits", m, Counter::kSolverCacheHits);
  Report(state, "reuse_hits", m, Counter::kSolverReuseHits);
  Report(state, "eval_memo_hits", m, Counter::kSolverEvalMemoHits);
  Report(state, "interval_memo_hits", m, Counter::kSolverIntervalMemoHits);
  Report(state, "independence_drops", m, Counter::kSolverIndependenceDrops);
  Report(state, "cex_evictions", m, Counter::kSolverCexEvictions);
  ReportPreprocessStats(state, m);
}

// The per-run counters every single-worker exploration bench records.
void ReportExploreStats(benchmark::State& state, const MetricsShard& m) {
  Report(state, "paths", m, Counter::kPathsCompleted);
  Report(state, "solver_queries", m, Counter::kSolverQueries);
  Report(state, "eval_memo_hits", m, Counter::kSolverEvalMemoHits);
  Report(state, "independence_drops", m, Counter::kSolverIndependenceDrops);
}

// Macro-run latency/effectiveness summary from the run's metrics registry
// (docs/observability.md): solver-query percentiles from the merged
// latency histogram, plus the combined cache hit rate (counterexample
// cache + model reuse over all queries). Informational in
// BENCH_symex.json — timings vary run to run, so `--check` never gates on
// them.
void ReportLatencyStats(benchmark::State& state, const SymexResult& result) {
  const LatencyHistogram& h = result.metrics.hist(Hist::kSolverQueryNs);
  state.counters["solver_p50_ns"] = static_cast<double>(h.P50());
  state.counters["solver_p95_ns"] = static_cast<double>(h.P95());
  const MetricsShard& m = result.metrics;
  double hits =
      static_cast<double>(m.Get(Counter::kSolverCacheHits) + m.Get(Counter::kSolverReuseHits));
  double queries = static_cast<double>(m.Get(Counter::kSolverQueries));
  state.counters["cache_hit_rate"] = queries > 0 ? hits / queries : 0.0;
}

void BM_SolverSingleByteQuery(benchmark::State& state) {
  ExprContext ctx;
  SolverChain chain(ctx);
  std::vector<const Expr*> path = {
      ctx.Compare(ICmpPredicate::kUGT, ctx.Symbol(0), ctx.Constant(10, 8))};
  int round = 0;
  for (auto _ : state) {
    // Vary the constant so the counterexample cache cannot shortcut.
    const Expr* cond = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0),
                                   ctx.Constant(11 + (round++ % 200), 8));
    benchmark::DoNotOptimize(chain.MayBeTrue(path, cond, nullptr));
  }
  ReportChainStats(state, chain.metrics());
}
BENCHMARK(BM_SolverSingleByteQuery);

void BM_FilterIndependent(benchmark::State& state) {
  // 32 path constraints over disjoint symbol pairs; the seed reaches only
  // one chain of them. The fixpoint is pure bitmask arithmetic.
  ExprContext ctx;
  std::vector<const Expr*> path;
  for (unsigned i = 0; i < 32; ++i) {
    path.push_back(ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(2 * (i % 30)),
                               ctx.Symbol(2 * (i % 30) + 1)));
  }
  const Expr* seed = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(7, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterIndependent(path, seed));
  }
}
BENCHMARK(BM_FilterIndependent);

void BM_SolverMultiByteRelation(benchmark::State& state) {
  ExprContext ctx;
  int round = 0;
  for (auto _ : state) {
    CoreSolver core;
    const Expr* sum = ctx.Binary(
        ExprKind::kAdd, ctx.ZExt(ctx.Symbol(0), 32),
        ctx.Binary(ExprKind::kAdd, ctx.ZExt(ctx.Symbol(1), 32), ctx.ZExt(ctx.Symbol(2), 32)));
    const Expr* target =
        ctx.Compare(ICmpPredicate::kEq, sum, ctx.Constant(300 + (round++ % 50), 32));
    std::vector<uint8_t> model;
    benchmark::DoNotOptimize(core.CheckSat(ctx, {target}, &model));
  }
}
BENCHMARK(BM_SolverMultiByteRelation);

void BM_CompileWcAtOverify(benchmark::State& state) {
  for (auto _ : state) {
    Compiler compiler;
    CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kOverify);
    benchmark::DoNotOptimize(compiled.instruction_count);
  }
}
BENCHMARK(BM_CompileWcAtOverify);

void BM_InterpretWcText(benchmark::State& state) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kO3);
  TextGenOptions options;
  options.approx_words = 200;
  std::string text = GenerateText(options);
  for (auto _ : state) {
    Interpreter interp(*compiled.module);
    benchmark::DoNotOptimize(interp.Run("umain", text).return_value);
  }
}
BENCHMARK(BM_InterpretWcText);

void BM_ExploreWcAtOverify(benchmark::State& state) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kOverify);
  SymexLimits limits;
  limits.max_seconds = 30;
  SymexResult last;
  for (auto _ : state) {
    last = Analyze(compiled, "umain", 6, limits);
    benchmark::DoNotOptimize(last.exhausted);
  }
  ReportExploreStats(state, last.metrics);
  ReportCoreSearchStats(state, last.metrics);
  ReportPreprocessStats(state, last.metrics);
  ReportLatencyStats(state, last);
}
BENCHMARK(BM_ExploreWcAtOverify);

void BM_ExploreWcAtO3(benchmark::State& state) {
  // The hardest engine workload in the suite: thousands of paths, heavy
  // forking (state clones) and solver traffic.
  Compiler compiler;
  CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kO3);
  SymexLimits limits;
  limits.max_seconds = 60;
  SymexResult last;
  for (auto _ : state) {
    last = Analyze(compiled, "umain", 6, limits);
    benchmark::DoNotOptimize(last.exhausted);
  }
  ReportExploreStats(state, last.metrics);
  ReportCoreSearchStats(state, last.metrics);
  ReportPreprocessStats(state, last.metrics);
  ReportLatencyStats(state, last);
}
BENCHMARK(BM_ExploreWcAtO3);

// Warm-persisted exploration (docs/daemon.md): one cold run harvests its
// counterexample cache into a CacheStore, then every timed iteration
// replays the verification with the store attached — through a full byte
// round trip of the store per iteration, so each warm run consumes the
// serialized form exactly as a fresh process would. The headline counter is
// persist_rate = persist_hits / (persist_hits + core_queries): the fraction
// of would-be core searches the persisted entries answered. run_benches.sh
// --check gates it at >= 0.5 (a warm run must answer at least half its
// solver queries from the store; in practice it answers all of them).
void BM_ExploreWcWarmPersist(benchmark::State& state) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kOverify);
  SymexLimits limits;
  limits.max_seconds = 30;
  CacheStore store;
  SymexOptions cold_options;
  cold_options.cache_store = &store;
  SymexResult cold = Analyze(compiled, "umain", 6, limits, cold_options);
  if (!cold.ok || !cold.exhausted) {
    state.SkipWithError("cold harvest run did not exhaust");
    return;
  }
  const std::vector<uint8_t> bytes = store.Serialize();
  SymexResult last;
  for (auto _ : state) {
    CacheStore reloaded;
    reloaded.Deserialize(bytes);
    SymexOptions options;
    options.cache_store = &reloaded;
    last = Analyze(compiled, "umain", 6, limits, options);
    benchmark::DoNotOptimize(last.exhausted);
  }
  const double hits = static_cast<double>(last.metrics.Get(Counter::kPersistHits));
  const double core_queries =
      static_cast<double>(last.metrics.Get(Counter::kSolverCoreQueries));
  Report(state, "paths", last.metrics, Counter::kPathsCompleted);
  Report(state, "solver_queries", last.metrics, Counter::kSolverQueries);
  Report(state, "persist_seeded", last.metrics, Counter::kPersistSeeded);
  state.counters["persist_hits"] = hits;
  Report(state, "persist_validations", last.metrics, Counter::kPersistValidations);
  Report(state, "persist_rejects", last.metrics, Counter::kPersistRejects);
  state.counters["core_queries"] = core_queries;
  state.counters["persist_rate"] =
      hits + core_queries > 0 ? hits / (hits + core_queries) : 0.0;
}
BENCHMARK(BM_ExploreWcWarmPersist);

// Suite-scale macro benchmarks: the two widest workloads of the Coreutils
// suite (docs/workloads.md), explored at their full default symbolic width.
// cksum_wide's 72 bytes push constraint supports past symbol 64 (the
// SupportSet overflow vector) and pose one wide-support parity query per
// path; sum_block's 48-byte fork-free block stresses wide expression
// building instead of forking. Tracked in BENCH_symex.json like the engine
// microbenchmarks so suite-scale exploration cost cannot silently regress.
void RunExploreWorkload(benchmark::State& state, const char* name, OptLevel level,
                        bool slice = false) {
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr) {
    state.SkipWithError(("unknown workload: " + std::string(name)).c_str());
    return;
  }
  Compiler compiler;
  CompileResult compiled = compiler.Compile(workload->source, level, workload->name);
  if (!compiled.ok) {
    state.SkipWithError((workload->name + " failed to compile: " + compiled.errors).c_str());
    return;
  }
  SymexLimits limits;
  limits.max_seconds = 60;
  SymexOptions options;
  options.slice_checks = slice;
  SymexResult last;
  for (auto _ : state) {
    last = Analyze(compiled, "umain", workload->default_sym_bytes, limits, options);
    benchmark::DoNotOptimize(last.exhausted);
  }
  ReportExploreStats(state, last.metrics);
  if (slice) {
    // Slice-mode effectiveness (docs/slicing.md): deterministic, gated
    // exactly by run_benches.sh --check like paths and the core-search
    // counters. The --check gate additionally asserts slice-mode
    // solver_queries <= the whole-program variant's.
    const MetricsShard& m = last.metrics;
    Report(state, "slice_checks_found", m, Counter::kSliceChecksFound);
    Report(state, "slices_built", m, Counter::kSlicesBuilt);
    Report(state, "slice_fallbacks", m, Counter::kSliceFallbacks);
    const LatencyHistogram& ratio = m.hist(Hist::kSliceConeRatioPct);
    state.counters["slice_cone_pct_max"] = static_cast<double>(ratio.max_ns());
    state.counters["slice_cone_pct_mean"] =
        ratio.count() > 0 ? static_cast<double>(ratio.sum_ns()) /
                                static_cast<double>(ratio.count())
                          : 0.0;
  }
  ReportCoreSearchStats(state, last.metrics);
  ReportPreprocessStats(state, last.metrics);
  ReportLatencyStats(state, last);
}

void BM_ExploreCksumWideAtOverify(benchmark::State& state) {
  RunExploreWorkload(state, "cksum_wide", OptLevel::kOverify);
}
BENCHMARK(BM_ExploreCksumWideAtOverify);

void BM_ExploreSumBlockAtOverify(benchmark::State& state) {
  RunExploreWorkload(state, "sum_block", OptLevel::kOverify);
}
BENCHMARK(BM_ExploreSumBlockAtOverify);

// The slicing tentpole's macro benches (docs/slicing.md): the same wide
// workloads verified one slice per check. cksum_wide's checks merge into a
// single cone holding ~half the entry function, halving paths and solver
// queries against the whole-program bench above; sum_block's one check
// slices away the fork-free accumulation entirely and needs no solver
// queries at all.
void BM_ExploreCksumWideSliceAtOverify(benchmark::State& state) {
  RunExploreWorkload(state, "cksum_wide", OptLevel::kOverify, /*slice=*/true);
}
BENCHMARK(BM_ExploreCksumWideSliceAtOverify);

void BM_ExploreSumBlockSliceAtOverify(benchmark::State& state) {
  RunExploreWorkload(state, "sum_block", OptLevel::kOverify, /*slice=*/true);
}
BENCHMARK(BM_ExploreSumBlockSliceAtOverify);

void ReportStealStats(benchmark::State& state, const SymexResult& result) {
  Report(state, "steals", result.metrics, Counter::kSteals);
  Report(state, "steal_batches", result.metrics, Counter::kStealBatches);
}

void BM_ParallelExploreWc(benchmark::State& state) {
  // Thread scaling of the core-search workload (wc @ -O3) across the
  // scheduler's worker pool; run_benches.sh records the 1/2/4/8-worker
  // times as the thread_scaling section of BENCH_symex.json.
  Compiler compiler;
  CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kO3);
  SymexLimits limits;
  limits.max_seconds = 60;
  unsigned jobs = static_cast<unsigned>(state.range(0));
  SymexResult last;
  for (auto _ : state) {
    last = Analyze(compiled, "umain", 6, limits, jobs);
    benchmark::DoNotOptimize(last.exhausted);
  }
  Report(state, "paths", last.metrics, Counter::kPathsCompleted);
  state.counters["workers"] = static_cast<double>(last.workers);
  ReportStealStats(state, last);
}
BENCHMARK(BM_ParallelExploreWc)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The steal-heavy variant: 4 workers fed from one root, so workers 1-3
// bootstrap (and keep re-balancing) entirely through the steal path —
// batch steals over the run's shared interner, so stolen states run as-is.
void BM_ParallelExploreWcSteal(benchmark::State& state) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(WcListing1(), OptLevel::kO3);
  SymexLimits limits;
  limits.max_seconds = 60;
  SymexResult last;
  for (auto _ : state) {
    last = Analyze(compiled, "umain", 6, limits, /*jobs=*/4);
    benchmark::DoNotOptimize(last.exhausted);
  }
  Report(state, "paths", last.metrics, Counter::kPathsCompleted);
  state.counters["workers"] = static_cast<double>(last.workers);
  ReportStealStats(state, last);
}
BENCHMARK(BM_ParallelExploreWcSteal)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
