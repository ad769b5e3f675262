// The per-worker execution engine behind SymbolicExecutor.
//
// One EngineCore owns everything a scheduler worker needs to run paths in
// isolation: a private ExprContext (interner + memo slots), a private
// SolverChain (counterexample cache, model reuse), this worker's metrics
// shard (src/support/metrics.h), and the step machinery. The only mutable
// state shared between workers is the
// lock-free SharedCounters block, which enforces the global limits
// cooperatively, and the worker queues (owned by the WorkerPool).
//
// The module itself is immutable while a search runs; the pool pre-stamps
// every function's local-slot numbering before launching workers so no
// engine ever writes to the IR.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/module.h"
#include "src/support/stopwatch.h"
#include "src/symex/executor.h"

namespace overify {

class TraceBuffer;

namespace sched {

// Lock-free global limit accounting shared by all workers. Workers flush
// batched instruction counts and re-check cooperatively (every
// kLimitCheckInterval steps and at every fork / path end); `stop` is the
// one-way latch that drains the pool.
struct SharedCounters {
  SymexLimits limits;
  Stopwatch watch;
  // The run deadline as a monotonic time point (watch start + max_seconds),
  // stamped by the pool before workers launch; threaded into every solver
  // query's QueryControl so a pathological search is interrupted mid-query.
  std::chrono::steady_clock::time_point deadline{};
  std::atomic<uint64_t> paths_completed{0};
  std::atomic<uint64_t> instructions{0};
  std::atomic<uint64_t> forks{0};
  // Queued + running states across all workers: both the max_live_states
  // gauge and the termination signal (reaching 0 means the search is done,
  // so increments happen before a state becomes visible and decrements
  // after it fully finished).
  std::atomic<uint64_t> live_states{0};
  std::atomic<bool> stop{false};
  // First limit that latched `stop` (CAS-once; StopCause::kNone while the
  // run drains naturally). Cause attribution for partial runs.
  std::atomic<int> stop_cause{0};
  // Injected worker deaths claimed so far (bounded by
  // FaultConfig::max_worker_deaths so a run can guarantee a survivor).
  std::atomic<uint32_t> worker_deaths{0};

  bool StopRequested() const { return stop.load(std::memory_order_relaxed); }
  void RequestStop(StopCause cause) {
    int expected = 0;
    stop_cause.compare_exchange_strong(expected, static_cast<int>(cause),
                                       std::memory_order_relaxed);
    stop.store(true, std::memory_order_relaxed);
  }

  // The first limit currently exceeded (kNone when all are within bounds);
  // callers latch it via RequestStop(cause).
  StopCause ExceededCause() const {
    if (paths_completed.load(std::memory_order_relaxed) >= limits.max_paths) {
      return StopCause::kPaths;
    }
    if (instructions.load(std::memory_order_relaxed) >= limits.max_instructions) {
      return StopCause::kInstructions;
    }
    if (forks.load(std::memory_order_relaxed) >= limits.max_forks) {
      return StopCause::kForks;
    }
    if (live_states.load(std::memory_order_relaxed) >= limits.max_live_states) {
      return StopCause::kLiveStates;
    }
    if (watch.ElapsedSeconds() >= limits.max_seconds) {
      return StopCause::kDeadline;
    }
    return StopCause::kNone;
  }

  bool LimitsExceeded() const { return ExceededCause() != StopCause::kNone; }

  // Atomically claims one of the run's allowed injected worker deaths;
  // false once the cap is reached (the worker then survives its draw).
  bool ClaimWorkerDeath(uint32_t cap) {
    uint32_t current = worker_deaths.load(std::memory_order_relaxed);
    while (current < cap) {
      if (worker_deaths.compare_exchange_weak(current, current + 1,
                                              std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
};

// How a path ended.
enum class PathOutcome {
  kCompleted,   // main returned
  kInfeasible,  // no feasible direction remained
  kBug,         // died at a bug site (including engine errors)
  kLimitStop,   // the global stop latch tripped while it was running
  kUnknown,     // the solver gave up on a decisive query (budget/deadline/fault)
  kDied,        // injected worker death: the state is still live and must be
                // requeued by the pool, and this worker runs nothing further
};

// Receives forked sibling states. Implemented by the pool's worker queues;
// must be safe against concurrent thieves.
class ForkSink {
 public:
  virtual ~ForkSink() = default;
  virtual void PushFork(std::unique_ptr<ExecState> state) = 0;
};

// One bug site's best candidate so far. The canonical representative of a
// (site, kind) pair is the report from the smallest path_id — a
// schedule-independent choice, so merged bug sets are identical across
// worker counts on exhausted runs.
struct BugCandidate {
  BugKind kind = BugKind::kEngineError;
  std::string message;
  const Instruction* site = nullptr;
  std::vector<uint8_t> example_input;
  uint64_t path_id = 0;
};

class EngineCore {
 public:
  // `slots` must be pre-filled for every defined function in `module`
  // (WorkerPool::Run does this) — engines only read it. `interner`, when
  // non-null, is the run's shared lock-striped expression interner: the
  // engine's ExprContext builds into it instead of a private one, which is
  // what lets stolen states run on any worker as-is (docs/scheduler.md).
  // Null gives the engine a private, lock-free interner (single-worker runs).
  EngineCore(Module& module, const SymexOptions& options, SharedCounters& shared,
             LocalSlotCache& slots, unsigned num_input_bytes, unsigned worker_index,
             ExprInterner* interner = nullptr);
  ~EngineCore();

  // Builds the root state (worker 0 calls this once per run).
  std::unique_ptr<ExecState> MakeInitialState(Function* entry);

  // Runs `state` until it completes, dies, or the stop latch trips. Forked
  // siblings go to `sink`; block entries are reported to `searcher` for
  // coverage-guided ordering (may be null).
  PathOutcome RunState(ExecState& state, ForkSink& sink, Searcher* searcher);

  // This worker's slice of the metrics registry: exact per-worker counters
  // and latency histograms, written only by the worker thread that runs
  // this engine, merged deterministically by the pool after the join (the
  // shared atomics above are only approximate limit gauges). Call
  // SyncMetrics() first to flush subsystem-owned totals (solver caches,
  // preprocessor, fault injector) into the shard.
  MetricsShard& metrics_shard();
  void SyncMetrics();
  // Structured trace buffer for this worker's spans (null disables tracing;
  // the pool wires one per worker when a trace path is configured).
  void set_trace(TraceBuffer* trace);
  TraceBuffer* trace();
  // This worker's solver chain, exposed for cross-run persistence: the pool
  // seeds it from the CacheStore's run blob before exploration and harvests
  // its counterexample cache afterwards (src/cache/persist.h).
  SolverChain& solver();
  const std::map<std::pair<const Instruction*, BugKind>, BugCandidate>& bugs() const;
  // This worker's fault injector (disabled unless SymexOptions::faults is).
  // The pool draws the scheduler-side sites (stall, steal) from it so each
  // worker has exactly one deterministic stream.
  FaultInjector& faults();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sched
}  // namespace overify
