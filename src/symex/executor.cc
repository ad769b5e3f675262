#include "src/symex/executor.h"

#include "src/sched/worker_pool.h"
#include "src/support/assert.h"

namespace overify {

void SymexResult::FinalizeFromMetrics() const {
  const MetricsShard& m = metrics;
  // The accounting invariant, asserted in this one place for every run
  // (docs/robustness.md): each unknown path carries exactly one cause.
  OVERIFY_ASSERT(m.Get(Counter::kPathsUnknown) == m.Get(Counter::kPathsUnknownBudget) +
                                                      m.Get(Counter::kPathsUnknownDeadline) +
                                                      m.Get(Counter::kPathsUnknownInjected),
                 "every unknown path must be attributed to exactly one cause");
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
