// Work-stealing scheduler for parallel path exploration.
//
// N workers each own a depth-first queue of pending states and a private
// solver chain; with more than one worker all of them build
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
// A pool may Run() more than once: the worker queues persist across runs
// and are emptied at each run's end, so a reused pool starts every
// exploration from an empty queue.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/ir/module.h"
#include "src/symex/engine_core.h"
#include "src/symex/executor.h"

namespace overify {
namespace sched {

// One worker's queue of pending states behind a mutex, in depth-first
// order: forks push at the back, the owner pops the newest state (the hot
// end), and a thief takes from the front, oldest first (the cold end), so
// the two ends disturb each other as little as possible. Every worker of a
// multi-worker run builds into one shared interner, so states flow between
// queues freely.
//
// Queues persist across Run()s on the same pool; BeginRun rebinds the
// run's shared counters and EndRun frees whatever a limit stop left queued,
// so every run starts from an empty queue.
class WorkerQueue : public ForkSink {
 public:
  // The largest batch one steal may take. Bounds both the time a thief
  // holds the victim's lock and how much colder-than-necessary work a
  // single thief can hoard.
  static constexpr size_t kMaxStealBatch = 32;

  void BeginRun(SharedCounters& shared) {
    std::lock_guard<std::mutex> lock(mutex_);
    shared_ = &shared;
  }

  // Frees any states a limit stop left queued. Call Remaining() first: this
  // zeroes it.
  void EndRun() {
    std::lock_guard<std::mutex> lock(mutex_);
    states_.clear();
  }

  void PushFork(std::unique_ptr<ExecState> state) override {
    shared_->live_states.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(mutex_);
    states_.push_back(std::move(state));
  }

  // Enqueues a stolen state the thief keeps for itself. Unlike PushFork this
  // does not touch live_states: the state was already counted when it was
  // forked and stays live throughout the migration.
  void AddStolen(std::unique_ptr<ExecState> state) {
    std::lock_guard<std::mutex> lock(mutex_);
    states_.push_back(std::move(state));
  }

  // The newest state; null when empty.
  std::unique_ptr<ExecState> PopOwn() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (states_.empty()) {
      return nullptr;
    }
    std::unique_ptr<ExecState> state = std::move(states_.back());
    states_.pop_back();
    return state;
  }

  // Takes up to half of this queue's pending states (capped) from the cold
  // end, appended to `out` oldest first. One lock acquisition per batch.
  void StealBatch(std::vector<std::unique_ptr<ExecState>>& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t take = std::min((states_.size() + 1) / 2, kMaxStealBatch);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(std::move(states_.front()));
      states_.pop_front();
    }
  }

  // How many states are still queued (called after the workers joined).
  uint64_t Remaining() {
    std::lock_guard<std::mutex> lock(mutex_);
    return states_.size();
  }

 private:
  std::mutex mutex_;
  std::deque<std::unique_ptr<ExecState>> states_;
  SharedCounters* shared_ = nullptr;
};

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
