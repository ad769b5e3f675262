// Work-stealing scheduler for parallel path exploration.
//
// N workers each own a searcher-ordered queue of pending states and a
// private solver chain; with more than one worker all of them build
// expressions into one shared, lock-striped interner
// (src/symex/engine_core.h, src/symex/expr.h). Forked siblings stay on the
// forking worker's queue; an idle worker steals a batch — half the coldest
// end of a victim's queue — and, because the interner is shared, runs the
// stolen states as-is. Builds without NDEBUG assert every stolen state's
// expressions belong to that interner. Global limits live in lock-free shared counters enforced cooperatively.
//
// Results are aggregated deterministically: exact per-worker metrics
// shards merge element-wise (src/support/metrics.h), and bug reports are
// merged by (site, kind) keeping the smallest
// path_id representative, ordered by the site's position in the module —
// so bug sets and verdicts are identical for 1..N workers on exhausted
// runs (docs/scheduler.md spells out the guarantee and its limits).
//
// A pool may Run() more than once: the worker queues (and their searchers'
// coverage feedback) persist across runs and are reset at each run's
// boundaries, so a reused pool starts every exploration from a clean
// search state.
#pragma once

#include <memory>
#include <vector>

#include "src/ir/module.h"
#include "src/symex/executor.h"

namespace overify {
namespace sched {

class WorkerQueue;

class WorkerPool {
 public:
  // `options.jobs` workers (0 = one per hardware thread). The pool reads
  // the module only; it must not be mutated while Run executes.
  WorkerPool(Module& module, const SymexOptions& options);
  ~WorkerPool();

  SymexResult Run(Function* entry, unsigned num_input_bytes, const SymexLimits& limits);

 private:
  Module& module_;
  SymexOptions options_;
  // One queue per worker, created on first Run and reused (reset) by later
  // runs on the same pool.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
};

}  // namespace sched
}  // namespace overify
