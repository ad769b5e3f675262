#include "src/symex/executor.h"

#include "src/sched/worker_pool.h"
#include "src/support/assert.h"

namespace overify {

void SymexResult::FinalizeFromMetrics() {
  const MetricsShard& m = metrics;
  paths_completed = m.Get(Counter::kPathsCompleted);
  paths_infeasible = m.Get(Counter::kPathsInfeasible);
  paths_bug = m.Get(Counter::kPathsBug);
  paths_limit = m.Get(Counter::kPathsLimit);
  paths_unexplored = m.Get(Counter::kPathsUnexplored);
  paths_unknown = m.Get(Counter::kPathsUnknown);
  paths_unknown_budget = m.Get(Counter::kPathsUnknownBudget);
  paths_unknown_deadline = m.Get(Counter::kPathsUnknownDeadline);
  paths_unknown_injected = m.Get(Counter::kPathsUnknownInjected);
  instructions = m.Get(Counter::kInstructions);
  forks = m.Get(Counter::kForks);
  annotation_hits = m.Get(Counter::kAnnotationHits);
  steals = m.Get(Counter::kSteals);
  steal_batches = m.Get(Counter::kStealBatches);
  faults.solver_unknown = m.Get(Counter::kFaultSolverUnknown);
  faults.cache_lookup = m.Get(Counter::kFaultCacheLookup);
  faults.steal_batch = m.Get(Counter::kFaultStealBatch);
  faults.worker_stalls = m.Get(Counter::kFaultWorkerStalls);
  faults.worker_deaths = m.Get(Counter::kFaultWorkerDeaths);
  faults.draws = m.Get(Counter::kFaultDraws);
  solver.queries = m.Get(Counter::kSolverQueries);
  solver.cache_hits = m.Get(Counter::kSolverCacheHits);
  solver.reuse_hits = m.Get(Counter::kSolverReuseHits);
  solver.core_queries = m.Get(Counter::kSolverCoreQueries);
  solver.core_candidates = m.Get(Counter::kSolverCoreCandidates);
  solver.independence_drops = m.Get(Counter::kSolverIndependenceDrops);
  solver.eval_memo_hits = m.Get(Counter::kSolverEvalMemoHits);
  solver.interval_memo_hits = m.Get(Counter::kSolverIntervalMemoHits);
  solver.cex_evictions = m.Get(Counter::kSolverCexEvictions);
  solver.preprocess_bindings = m.Get(Counter::kPreprocessBindings);
  solver.preprocess_substitutions = m.Get(Counter::kPreprocessSubstitutions);
  solver.preprocess_tautologies = m.Get(Counter::kPreprocessTautologies);
  solver.preprocess_contradictions = m.Get(Counter::kPreprocessContradictions);
  solver.presolve_shortcuts = m.Get(Counter::kPresolveShortcuts);
  solver.prefix_subset_hits = m.Get(Counter::kPrefixSubsetHits);
  solver.prefix_superset_hits = m.Get(Counter::kPrefixSupersetHits);
  solver.prefix_model_hits = m.Get(Counter::kPrefixModelHits);
  solver.unknown_budget = m.Get(Counter::kSolverUnknownBudget);
  solver.unknown_deadline = m.Get(Counter::kSolverUnknownDeadline);
  solver.unknown_cancelled = m.Get(Counter::kSolverUnknownCancelled);
  solver.unknown_injected = m.Get(Counter::kSolverUnknownInjected);

  // The accounting invariants, asserted in this one place for every run
  // (docs/robustness.md): each unknown path carries exactly one cause, and
  // paths_terminated is exactly the sum of its per-cause components.
  OVERIFY_ASSERT(paths_unknown == paths_unknown_budget + paths_unknown_deadline +
                                      paths_unknown_injected,
                 "every unknown path must be attributed to exactly one cause");
  paths_terminated =
      paths_infeasible + paths_bug + paths_limit + paths_unexplored + paths_unknown;
  OVERIFY_ASSERT(paths_terminated >= paths_unknown,
                 "terminated-cause accounting must cover the unknown paths");
}

const char* StopCauseName(StopCause cause) {
  switch (cause) {
    case StopCause::kNone:
      return "none";
    case StopCause::kPaths:
      return "max_paths";
    case StopCause::kInstructions:
      return "max_instructions";
    case StopCause::kForks:
      return "max_forks";
    case StopCause::kLiveStates:
      return "max_live_states";
    case StopCause::kDeadline:
      return "max_seconds";
    case StopCause::kWorkerDeath:
      return "worker-death";
  }
  return "?";
}

const char* BugKindName(BugKind kind) {
  switch (kind) {
    case BugKind::kDivByZero:
      return "division by zero";
    case BugKind::kOutOfBounds:
      return "out-of-bounds memory access";
    case BugKind::kNullDeref:
      return "null pointer dereference";
    case BugKind::kCheckFailed:
      return "check failed";
    case BugKind::kOverflow:
      return "arithmetic overflow";
    case BugKind::kUnreachable:
      return "unreachable executed";
    case BugKind::kAbort:
      return "abort called";
    case BugKind::kEngineError:
      return "engine error";
  }
  return "?";
}

SymbolicExecutor::SymbolicExecutor(Module& module, SymexOptions options)
    : module_(module), options_(options) {}

SymbolicExecutor::~SymbolicExecutor() = default;

SymexResult SymbolicExecutor::Run(Function* entry, unsigned num_input_bytes,
                                  const SymexLimits& limits) {
  sched::WorkerPool pool(module_, options_);
  return pool.Run(entry, num_input_bytes, limits);
}

SymexResult SymbolicExecutor::Run(const std::string& entry_name, unsigned num_input_bytes,
                                  const SymexLimits& limits) {
  Function* entry = module_.GetFunction(entry_name);
  if (entry == nullptr || entry->IsDeclaration()) {
    SymexResult result;
    result.ok = false;
    result.error = "entry function '" + entry_name + "' is missing or has no body";
    return result;
  }
  return Run(entry, num_input_bytes, limits);
}

}  // namespace overify
