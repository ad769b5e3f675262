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
  // Which limit latched the stop flag first (kNone when the run drained
  // naturally; kWorkerDeath when only injected deaths cut it short).
  StopCause stop_cause = StopCause::kNone;
  double wall_seconds = 0;
  unsigned workers = 1;  // worker threads that ran the search
  std::vector<BugReport> bugs;
  // The merged metrics registry for the run and the only store of its
  // counts: paths by cause, instructions, forks, annotation hits, solver,
  // steal and fault counters, plus the latency histograms. Read a count as
  // metrics.Get(Counter::kPathsCompleted) (src/support/metrics.h,
  // docs/observability.md).
  MetricsShard metrics;

  // Asserts the accounting invariant over `metrics` in this one place:
  // every unknown path carries exactly one cause. Every producer of a
  // merged result (the pool, the slice driver) calls it once after merging
  // shards.
  void FinalizeFromMetrics() const;

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
  // In-query conflict clause learning in the backtracking core
  // (docs/solver.md); backjumping and domains stay on either way. Off is
  // for A/B comparisons in the differential lattice; verdicts, models and
  // bug reports are identical either way — learning only prunes candidates
  // the search would have refuted one by one.
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
