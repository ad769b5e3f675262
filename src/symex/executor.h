// The symbolic-execution engine (the toolkit's KLEE substitute).
//
// Explores one path at a time: inputs are symbolic bytes, conditional
// branches fork when both directions are feasible, and trapping operations
// (division by zero, out-of-bounds access, failed checks) become bug reports
// with concrete reproducing inputs from the solver's model.
//
// Exploration is scheduled by the src/sched/ subsystem: a pluggable
// Searcher orders pending states and a work-stealing WorkerPool fans them
// out over `jobs` workers, each with its own ExprContext and solver over
// one shared expression interner (stolen states run as-is). Results are
// aggregated in canonical order, so bug sets and verdicts are identical for
// 1..N workers on exhausted runs — see docs/scheduler.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/passes/annotate.h"
#include "src/sched/searcher.h"
#include "src/support/fault.h"
#include "src/support/metrics.h"
#include "src/symex/solver.h"
#include "src/symex/state.h"

namespace overify {

class CacheStore;

enum class BugKind {
  kDivByZero,
  kOutOfBounds,
  kNullDeref,
  kCheckFailed,
  kOverflow,
  kUnreachable,
  kAbort,
  kEngineError,  // unsupported construct
};

const char* BugKindName(BugKind kind);

struct BugReport {
  BugKind kind = BugKind::kEngineError;
  std::string message;
  const Instruction* site = nullptr;
  std::vector<uint8_t> example_input;  // one value per symbolic byte
};

struct SymexLimits {
  uint64_t max_paths = 1 << 20;         // completed paths
  uint64_t max_instructions = 1 << 28;  // total across all paths
  uint64_t max_forks = 1 << 20;
  double max_seconds = 3600.0;
  uint64_t max_live_states = 1 << 16;  // queued + running, across all workers
  // Per-query solver budgets (run-level max_seconds is enforced inside the
  // solver's candidate loop regardless; see docs/robustness.md).
  uint64_t query_candidates = 1ull << 22;  // core-search candidates per query
  double query_seconds = 0;                // wall budget per query; 0 = none
};

// Which limit latched the run's stop flag first (kNone on runs that drained
// naturally — including exhausted runs that completed exactly at a limit).
enum class StopCause {
  kNone,
  kPaths,
  kInstructions,
  kForks,
  kLiveStates,
  kDeadline,
  kWorkerDeath,  // no limit fired, but injected deaths left states unexplored
};

const char* StopCauseName(StopCause cause);

struct SymexResult {
  // Malformed input (missing or mis-typed entry, zero-width symbolic
  // buffers, failed compilation through Analyze) is a structured error, not
  // an assertion: ok = false, `error` says why, every count stays zero.
  bool ok = true;
  std::string error;
  bool exhausted = false;  // every path explored within the limits
  uint64_t paths_completed = 0;
  // Terminated paths by cause; paths_terminated is always their sum.
  uint64_t paths_terminated = 0;
  uint64_t paths_infeasible = 0;   // no feasible branch direction remained
  uint64_t paths_bug = 0;          // died at a bug site
  uint64_t paths_limit = 0;        // running when a limit stopped the search
  uint64_t paths_unexplored = 0;   // still queued when a limit stopped the search
  // Paths terminated because the solver gave up (kUnknown) on a decisive
  // query — never silently explored past: an unproven branch direction is a
  // completeness loss, not a soundness one. Always the sum of the per-cause
  // breakdown below (docs/robustness.md).
  uint64_t paths_unknown = 0;
  uint64_t paths_unknown_budget = 0;    // per-query candidate/time budget
  uint64_t paths_unknown_deadline = 0;  // run deadline expired mid-query
  uint64_t paths_unknown_injected = 0;  // FaultInjector kSolverUnknown
  uint64_t instructions = 0;
  uint64_t forks = 0;
  uint64_t annotation_hits = 0;  // branch decisions settled by annotations
  // Which limit latched the stop flag first (kNone when the run drained
  // naturally; kWorkerDeath when only injected deaths cut it short).
  StopCause stop_cause = StopCause::kNone;
  // Injected-fault fires (zero unless SymexOptions::faults enabled them).
  // Schedule-dependent across workers, so excluded from the determinism
  // contract like the steal counters below.
  FaultStats faults;
  // Work-stealing traffic (scheduling-dependent, unlike the counts above:
  // these vary run to run and are excluded from the determinism contract).
  uint64_t steals = 0;         // states that migrated to another worker
  uint64_t steal_batches = 0;  // steal operations that yielded work
  double wall_seconds = 0;
  unsigned workers = 1;  // worker threads that ran the search
  std::vector<BugReport> bugs;
  SolverStats solver;
  // The merged metrics registry for the run: every counter above plus the
  // latency histograms (src/support/metrics.h). Single source of truth —
  // the flat fields and `solver`/`faults` views are filled from it by
  // FinalizeFromMetrics (docs/observability.md).
  MetricsShard metrics;

  // Fills every legacy counter field (paths_*, instructions, forks, steal
  // and fault counts, the SolverStats view) from `metrics`, and asserts the
  // accounting invariants — unknown-cause and terminated-cause sums — in
  // this one place. The pool calls it once after merging worker shards.
  void FinalizeFromMetrics();

  bool FoundBug(BugKind kind) const {
    for (const BugReport& bug : bugs) {
      if (bug.kind == kind) {
        return true;
      }
    }
    return false;
  }
};

struct SymexOptions {
  // Compiler-produced annotations; branch conditions they decide skip the
  // solver entirely (§3 "Program annotations").
  const ProgramAnnotations* annotations = nullptr;
  // Search order for pending states (src/sched/searcher.h).
  SearchStrategy strategy = SearchStrategy::kDfs;
  // Worker threads exploring in parallel; 0 = one per hardware thread.
  unsigned jobs = 1;
  // Constraint preprocessing + prefix-aware counterexample caching ahead of
  // the core search (docs/engine.md). Off is for A/B comparisons and the
  // preprocessing regression tests; verdicts and bug reports are identical
  // either way.
  bool solver_preprocess = true;
  // Conflict clause learning, non-chronological backjumping and restarts in
  // the backtracking core (docs/solver.md). Off is for A/B comparisons in
  // the differential lattice; verdicts, models and bug reports are
  // identical either way — learning only prunes candidates the search
  // would have refuted one by one.
  bool solver_learning = true;
  // Seed for the random-path strategy (worker index is mixed in per worker).
  uint64_t search_seed = 0x05e11a11;
  // Deterministic fault injection (src/support/fault.h). Disabled by
  // default (seed 0); tests and the robustness differential harness enable
  // it to exercise the graceful-degradation contract (docs/robustness.md).
  FaultConfig faults;
  // Per-check slice verification (docs/slicing.md): the driver slices the
  // entry function to each check's backward dependence cone and verifies
  // the slices instead of the whole module, replaying every bug through the
  // full-program concrete interpreter as the soundness oracle. Falls back
  // to whole-program mode (counted in slice.fallbacks) when slicing is not
  // possible. Only honored by Analyze(); a raw SymbolicExecutor ignores it.
  bool slice_checks = false;
  // When non-empty, the run writes a Chrome-trace-event JSON timeline of
  // solver queries, preprocessing, fork decisions, steals, cache lookups,
  // fault firings, and worker lifecycles to this path (load it in Perfetto;
  // docs/observability.md). Empty falls back to the OVERIFY_TRACE
  // environment variable; unset disables tracing at near-zero cost.
  std::string trace_path;
  // Cross-run persistence (docs/daemon.md): when non-null, every worker's
  // solver chain is seeded from the store's run blob for (module content
  // hash, options fingerprint) before exploration and harvested back into
  // it afterwards. The caller owns the store and decides when to Save() it;
  // verdicts are unchanged either way (persisted SAT models are re-validated
  // at first use, never trusted).
  CacheStore* cache_store = nullptr;
  // Warm expression interner owned by a long-lived host (the verification
  // daemon): when non-null, the run interns into it instead of building a
  // fresh one, so repeated runs of the same module skip re-construction of
  // the expression DAG. Must be a concurrent interner when jobs > 1.
  ExprInterner* warm_interner = nullptr;
};

class SymbolicExecutor {
 public:
  SymbolicExecutor(Module& module, SymexOptions options = {});
  ~SymbolicExecutor();

  // Explores `entry` with `num_input_bytes` symbolic bytes. The entry
  // function must take (u8* buffer, i32 length) — the buffer holds the
  // symbolic bytes plus a guaranteed NUL terminator — or no arguments, or
  // (u8* a, i32 na, u8* b, i32 nb) for two-input programs: the symbolic
  // bytes split first-buffer-gets-the-ceiling, each buffer NUL-terminated
  // (docs/workloads.md). Malformed input — a missing/declared-only entry, a
  // signature outside that contract, or zero symbolic bytes for an entry
  // that takes buffers — returns SymexResult::ok = false instead of
  // aborting.
  SymexResult Run(Function* entry, unsigned num_input_bytes, const SymexLimits& limits);
  SymexResult Run(const std::string& entry_name, unsigned num_input_bytes,
                  const SymexLimits& limits);

 private:
  Module& module_;
  SymexOptions options_;
};

}  // namespace overify
