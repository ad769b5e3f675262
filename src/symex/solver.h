// Constraint solving for the symbolic-execution engine.
//
// The solver stack mirrors KLEE's: queries pass through constraint
// preprocessing (byte-equality substitution + range tightening,
// src/symex/preprocess.h), independent-constraint splitting, an exact
// counterexample cache and recent-model reuse before reaching the core
// search procedure. The core solver performs backtracking search over the
// 8-bit symbolic input bytes with constraint-completion pruning — complete
// for the byte-level workloads this toolkit targets (the paper's evaluation
// uses 2-10 symbolic input bytes).
//
// Hot-path engineering (see docs/engine.md): independence splitting is a
// bitwise-AND fixpoint over SupportSet bitmasks; the cache answers a
// re-asked set from one 128-bit hash lookup, and recent-model reuse tries
// the last eight core models, zero-padded to the query's width — which
// answers most depth-k+1 queries with the model their depth-k prefix got.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/support/fault.h"
#include "src/support/metrics.h"
#include "src/symex/eval_program.h"
#include "src/symex/expr.h"
#include "src/symex/expr_hash.h"
#include "src/symex/preprocess.h"

namespace overify {

class TraceBuffer;

enum class SatResult {
  kSat,
  kUnsat,
  kUnknown,  // gave up: budget, deadline, cancellation, or injected fault
};

// Why a query returned kUnknown. Every kUnknown carries exactly one cause,
// which the engine rolls up into the paths.unknown_* counters
// (docs/robustness.md).
enum class UnknownCause {
  kNone,
  kCandidateBudget,  // per-query candidate budget exhausted
  kDeadline,         // the run deadline expired mid-search
  kCancelled,        // the run's stop latch tripped mid-search
  kInjected,         // FaultInjector kSolverUnknown fired
};

// Cooperative controls threaded into every query: the run deadline and
// cancel latch are checked inside the core search's candidate loop (every
// 4096 candidates, so a single pathological search can no longer overshoot
// max_seconds by its full candidate budget) and at preprocessing
// boundaries. All fields optional; the default control never interrupts.
struct QueryControl {
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};  // run-wide, monotonic
  const std::atomic<bool>* cancel = nullptr;         // the run's stop latch
  FaultInjector* faults = nullptr;                   // injected kUnknowns
  uint64_t query_candidates = 1ull << 22;            // core candidates per query
};

// Core backtracking solver with CDCL machinery: per-symbol domain pruning
// from unary constraints and caller range facts, structure-driven value
// ordering (domain endpoints first), single-literal nogoods folded into the
// domains, and conflict-directed non-chronological backjumping
// (docs/solver.md).
class CoreSolver {
 public:
  // Optional inputs/outputs threaded around the stable CheckSat signature.
  struct SearchExtras {
    // Per-symbol interval facts implied by the constraint set (the
    // preprocessor's PathPrefix::range); values outside are excised from
    // the search domains. Soundness requires the facts be implied by
    // `constraints` — then only non-models are skipped.
    const std::vector<UInterval>* ranges = nullptr;
    // When non-null, receives the conflict-depth histogram records.
    MetricsShard* metrics = nullptr;
  };

  // `model`, when non-null and the result is kSat, receives one value per
  // symbol index (indexes absent from the constraints' support default to 0).
  // `candidate_budget` bounds the search. `control`, when non-null, is
  // polled every 4096 candidates for the run deadline / cancel latch.
  // `cause`, when non-null, receives why a kUnknown happened (kNone
  // otherwise).
  SatResult CheckSat(ExprContext& ctx, const std::vector<const Expr*>& constraints,
                     std::vector<uint8_t>* model, uint64_t candidate_budget = 1 << 22,
                     const QueryControl* control = nullptr, UnknownCause* cause = nullptr,
                     const SearchExtras* extras = nullptr);

  // Cumulative across every CheckSat call on this instance.
  uint64_t candidates_tried() const { return candidates_tried_; }
  uint64_t conflicts() const { return conflicts_; }
  uint64_t learned() const { return learned_; }  // unit nogoods
  uint64_t backjumps() const { return backjumps_; }
  // The evaluation program's work, cumulative like the counters above.
  const EvalProgram::Work& eval_work() const { return program_.work(); }

 private:
  // The running query's live constraints, lowered for evaluation; every
  // concrete and interval evaluation of the search runs on it. A member
  // rather than a local so its buffers outlive a query.
  EvalProgram program_;
  // Unary-domain memo: a single-symbol constraint's admissible byte values
  // (bit v of the 256-bit set) keyed by its hash-consed Expr. Expr pointers
  // are unique only within one interner, so the memo belongs to the
  // interner whose serial it records and is dropped when a query comes
  // from another one. Bounded: cleared when full. It only saves work, never
  // changes a result (docs/solver.md, "Facts the query already states").
  static constexpr size_t kUnaryMemoCapacity = 4096;
  std::unordered_map<const Expr*, std::array<uint64_t, 4>> unary_memo_;
  uint64_t unary_memo_interner_ = 0;
  // Candidate value lists by seeded domain (docs/solver.md#determinism):
  // the list is a function of the domain alone, so levels and queries with
  // equal domains share one. Bounded: cleared when full.
  struct DomainHash {
    size_t operator()(const std::array<uint64_t, 4>& w) const {
      return static_cast<size_t>(HashMix64(w[0] ^ HashMix64(w[1] ^ HashMix64(w[2] ^ HashMix64(w[3])))));
    }
  };
  static constexpr size_t kValueListCapacity = 1024;
  std::unordered_map<std::array<uint64_t, 4>, std::vector<uint8_t>, DomainHash> value_lists_;
  uint64_t candidates_tried_ = 0;
  uint64_t conflicts_ = 0;
  uint64_t learned_ = 0;
  uint64_t backjumps_ = 0;
};

// Counterexample cache over canonical constraint sets: one verdict (and,
// for SAT, one model) per set, looked up exactly.
//
// An entry is keyed by the set's 64-bit order-sensitive hash and confirmed
// by its portable content fingerprint (src/symex/expr_hash.h). Together they
// form a 128-bit identity that is stable across processes and machines —
// the property cross-run persistence rests on. Capacity is bounded with
// FIFO eviction.
class PrefixCache {
 public:
  struct Entry {
    uint64_t set_hash = 0;     // exact-lookup key (order-sensitive fold)
    uint64_t fingerprint = 0;  // independent confirmation hash
    SatResult result = SatResult::kUnknown;
    std::vector<uint8_t> model;  // satisfying assignment for kSat entries
    // Loaded from a persisted cross-run store (docs/daemon.md). Hits on
    // persisted entries are counted separately (persist.hits) — the warm
    // bench gate measures exactly these.
    bool persisted = false;
    // A persisted SAT model not yet re-validated in this process. Stored
    // models are never trusted from disk: the chain evaluates the live
    // query's constraints under the model at first use, clears the flag on
    // success, and drops the entry on mismatch so a corrupted or stale
    // store degrades to a cache miss, never a wrong verdict. Mutable: the
    // flag flips on a logically-const lookup.
    mutable bool unvalidated = false;
  };

  explicit PrefixCache(size_t capacity = 4096) : capacity_(capacity) {}

  const Entry* FindExact(uint64_t set_hash, uint64_t fingerprint) const;

  // Inserts (or overwrites, on a matching 128-bit identity) an entry;
  // evicts the oldest entry beyond capacity.
  // A matching set_hash whose fingerprint differs is a 64-bit collision:
  // both the resident entry and the new one are dropped, so a collision
  // degrades to a cache miss instead of ever serving one set's verdict for
  // the other (counted in collisions()).
  void Insert(uint64_t set_hash, uint64_t fingerprint, SatResult result,
              const std::vector<uint8_t>& model);

  // Insert for entries loaded from a persisted store: marks the entry
  // persisted, and — for SAT — unvalidated, deferring model trust to the
  // first live hit (see Entry::unvalidated).
  void InsertPersisted(uint64_t set_hash, uint64_t fingerprint, SatResult result,
                       const std::vector<uint8_t>& model);

  // Drops the entry carrying `set_hash` if present (persisted-model
  // validation failure: the store's model did not satisfy the live set).
  void RemoveBySetHash(uint64_t set_hash) { entries_.erase(set_hash); }

  // Visits every entry (the persistence harvest).
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const auto& [set_hash, entry] : entries_) {
      fn(entry);
    }
  }

  size_t size() const { return entries_.size(); }
  uint64_t evictions() const { return evictions_; }
  uint64_t collisions() const { return collisions_; }

 private:
  std::unordered_map<uint64_t, Entry> entries_;  // by set_hash
  // Insertion order. A removed set's hash stays until it reaches the front,
  // so a set removed and inserted again may be evicted early: a miss, never
  // a wrong answer.
  std::deque<uint64_t> fifo_;
  size_t capacity_;
  uint64_t evictions_ = 0;
  uint64_t collisions_ = 0;  // set_hash collisions degraded to misses
};

// The full KLEE-style stack. One instance per symbolic-execution run.
class SolverChain {
 public:
  explicit SolverChain(ExprContext& ctx) : ctx_(ctx), preprocessor_(ctx) {}

  // Is `constraints` satisfiable? When `prefix` is non-null it carries the
  // caller's incremental preprocessing summary for these constraints (the
  // engine passes the per-path handle owned by each ExecState); null runs a
  // one-shot preprocessing pass.
  SatResult CheckSat(const std::vector<const Expr*>& constraints, std::vector<uint8_t>* model,
                     PathPrefix* prefix = nullptr);

  // CheckSat that bypasses preprocessing, the counterexample cache, and
  // model reuse and always runs the core search over the canonical
  // (hash-ordered) set. The model returned is then a pure function of the
  // constraints' structure — independent of query history, and therefore
  // identical no matter which scheduler worker asks. Bug-report example
  // inputs use this so reported bugs are bit-identical across worker counts
  // (docs/scheduler.md).
  SatResult CheckSatCanonical(const std::vector<const Expr*>& constraints,
                              std::vector<uint8_t>* model);

  // Branch feasibility: given an already-satisfiable path `constraints`, can
  // `cond` additionally hold? Only the constraints sharing symbols
  // (transitively) with `cond` are sent to the solver. `prefix` as above.
  //
  // `model`, when non-null, is the caller's path model, read and written:
  // on entry it satisfies `constraints` (bytes beyond its end count as 0).
  // On kSat it is extended to satisfy `cond` too, by writing only the
  // symbols of the queried independent component (the filtered set plus
  // the condition); every other byte is left as it was. A SAT answered by
  // presolve means the path implies `cond` and writes nothing. Any other
  // result leaves it untouched.
  SatResult MayBeTrue(const std::vector<const Expr*>& constraints, const Expr* cond,
                      std::vector<uint8_t>* model, PathPrefix* prefix = nullptr);

  // Installs the run's cooperative controls (deadline, cancel latch, fault
  // injector, per-query candidate budget). The engine calls this once per run; the
  // default control never interrupts, so chain users without one (tests,
  // tools) are unaffected.
  void set_control(const QueryControl& control) {
    control_ = control;
    if (control.has_deadline) {
      preprocessor_.set_deadline(control.deadline);
    }
  }

  // The cause of the most recent kUnknown this chain returned (valid until
  // the next query; kNone if the chain has never returned kUnknown). The
  // engine reads it right after a kUnknown to attribute the path's
  // termination.
  UnknownCause last_unknown_cause() const { return last_unknown_cause_; }

  // Redirects all counters and histograms into `metrics` (the engine passes
  // its per-worker shard so pool aggregation is one registry merge). Must be
  // installed before the first query. The default private shard keeps
  // histogram timing OFF — a bare chain's cache-hit fast path is ~100ns and
  // must not pay for clock reads; engine shards opt in.
  void set_metrics(MetricsShard* metrics) { metrics_ = metrics; }
  // Every counter and histogram of this chain, read after a SyncMetrics().
  // A bare chain's callers (tests, microbenchmarks) read its counts here.
  const MetricsShard& metrics() const {
    SyncMetrics();
    return *metrics_;
  }

  // Flushes subsystem-owned totals (ExprContext memo hits, preprocessor
  // stats, cache evictions) into the shard. Called by metrics() and by the
  // pool before merging shards.
  void SyncMetrics() const;

  // Structured trace spans for queries/lookups/core searches; null (the
  // default) disables tracing at the cost of one cold-pointer branch.
  void set_trace(TraceBuffer* trace) { trace_ = trace; }

  // ---- Cross-run persistence (docs/daemon.md) ----

  // Seeds the counterexample cache with one entry from a persisted store.
  // The entry's hashes are portable content hashes, so an entry
  // harvested by one process addresses the same constraint sets in this
  // one. SAT models are marked unvalidated (re-checked against the live
  // query at first use, never trusted from disk).
  void SeedPersistedEntry(uint64_t set_hash, uint64_t fingerprint, SatResult result,
                          const std::vector<uint8_t>& model);

  // Read-only view of the counterexample cache (the persistence harvest
  // walks it with ForEachLive).
  const PrefixCache& cex_cache() const { return cache_; }

 private:
  SatResult CheckSatImpl(const std::vector<const Expr*>& constraints,
                         std::vector<uint8_t>* model, PathPrefix* prefix);
  SatResult CheckSatCanonicalImpl(const std::vector<const Expr*>& constraints,
                                  std::vector<uint8_t>* model);
  SatResult MayBeTrueImpl(const std::vector<const Expr*>& constraints, const Expr* cond,
                          std::vector<uint8_t>* model, PathPrefix* prefix);
  // Are query durations being measured (for histograms, traces, or both)?
  bool Timed() const { return metrics_->timing || trace_ != nullptr; }
  // Records the query span that started at `t0` (histogram + trace).
  void FinishQuery(uint64_t t0, SatResult result);
  // `prefix` supplies the per-symbol range facts the core uses for domain
  // pruning (implied by `filtered`, see docs/solver.md).
  SatResult Solve(const std::vector<const Expr*>& filtered, std::vector<uint8_t>* model,
                  const PathPrefix& prefix);
  // Solves filtered_scratch_ (one independent component) and, on kSat,
  // writes the component's symbols into the path model `model`.
  SatResult SolveComponent(std::vector<uint8_t>* model, const PathPrefix& prefix);
  // Flushes the core's cumulative CDCL counters into the shard.
  void SyncCoreCounters() const;
  // Records `cause` into last_unknown_cause_ and the per-cause stats.
  SatResult Unknown(UnknownCause cause);
  bool Canonicalize(const std::vector<const Expr*>& filtered,
                    std::vector<const Expr*>& canonical);
  // Resolves the effective prefix for a query: the caller's handle, or the
  // cleared scratch summary. Extends it over `constraints`.
  PathPrefix* EffectivePrefix(PathPrefix* prefix, const std::vector<const Expr*>& constraints);
  // definitions + simplified of `prefix` into `out`.
  void AssemblePreprocessed(const PathPrefix& prefix, std::vector<const Expr*>& out);

  ExprContext& ctx_;
  CoreSolver core_;
  ConstraintPreprocessor preprocessor_;
  QueryControl control_;
  UnknownCause last_unknown_cause_ = UnknownCause::kNone;
  // Where every counter/histogram lands: the engine's per-worker shard, or
  // the private one for standalone chains (tests, microbenches).
  MetricsShard own_metrics_;
  MetricsShard* metrics_ = &own_metrics_;
  TraceBuffer* trace_ = nullptr;

  // Counterexample cache: exact lookup of canonical constraint sets (see
  // PrefixCache above).
  static constexpr size_t kMaxCexEntries = 4096;
  PrefixCache cache_{kMaxCexEntries};
  // Memoized portable per-constraint content hashes (src/symex/expr_hash.h)
  // feeding the cache's confirmation fingerprints.
  PortableHashCache portable_hashes_;
  // The last kRecentModels core models, newest last. A query the exact
  // lookup misses tries each, zero-padded to its width, before the core.
  static constexpr size_t kRecentModels = 8;
  std::vector<std::vector<uint8_t>> recent_models_;
  // Scratch buffers reused across queries (the chain sits on the engine's
  // per-branch path; steady-state queries should not allocate).
  std::vector<const Expr*> filtered_scratch_;
  std::vector<const Expr*> canonical_scratch_;
  std::vector<const Expr*> preprocessed_scratch_;
  std::vector<uint8_t> component_model_;  // MayBeTrue's model before the merge
  PathPrefix scratch_prefix_;  // for callers without a per-path handle
  // The constraint sequence scratch_prefix_ summarizes; reused while a
  // handle-less caller keeps querying the same path.
  std::vector<const Expr*> scratch_constraints_;
};

// Filters `constraints` to those transitively sharing support with `seed`.
// Exposed for tests.
std::vector<const Expr*> FilterIndependent(const std::vector<const Expr*>& constraints,
                                           const Expr* seed);

}  // namespace overify
