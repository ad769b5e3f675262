// Constraint preprocessing ahead of the core search.
//
// Every solver query flows through a ConstraintPreprocessor before
// canonicalization and the counterexample cache (see docs/engine.md):
//
//  1. Byte-equality substitution: `x == c` facts are rewritten into the
//     remaining constraints through the hash-consing builders, eliminating
//     bound bytes from their support sets (KLEE's ConstraintManager plays
//     the same role). The defining equalities are kept so models of the
//     simplified set are models of the original set.
//  2. Range tightening: single-byte comparison constraints become per-symbol
//     intervals; later constraints whose interval under those facts is
//     already {1,1} are dropped as implied, and an interval of {0,0}
//     refutes the whole set without any search.
//
// The per-path summary (PathPrefix) is incremental: path constraints only
// ever grow by appending, so a state's query at depth k+1 resumes from the
// depth-k summary instead of re-preprocessing the whole prefix. The summary
// is a pure function of the constraint sequence — resuming and recomputing
// from scratch produce identical results, which is what keeps 1..N-worker
// runs bit-identical (docs/scheduler.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

// Incremental per-path preprocessing summary, owned by the ExecState whose
// constraints it summarizes. All Expr pointers belong to the interner that
// produced the constraints; a stolen state keeps its summary because every
// worker of a multi-worker run builds into one shared interner, and only
// the context-tied `interval_memo_generation` handle is detached. It is a
// pure cache: Clear() drops it and the next query rebuilds it.
struct PathPrefix {
  // Leading path constraints already folded into the summary.
  size_t consumed = 0;
  // The summarized prefix is unsatisfiable (refuted by substitution or
  // range facts; no search ran).
  bool contradiction = false;
  // Byte-equality facts `Symbol(i) == binding[i]` in discovery order. Kept
  // separate from `simplified` so substitution never folds a definition
  // into `true` and loses the binding from the solver-visible set.
  std::vector<const Expr*> definitions;
  // The remaining constraints, bindings substituted in, implied members
  // dropped. definitions + simplified is logically equivalent to the
  // consumed prefix (same models).
  std::vector<const Expr*> simplified;
  // binding[i] >= 0: Symbol(i) is bound to that byte. Mirrored in `bound`.
  std::vector<int16_t> binding;
  SupportSet bound;
  // Per-symbol unsigned intervals implied by the consumed prefix
  // (default/absent entries mean [0, 255]). Extracted from direct byte
  // comparisons and from the branch-free fused form `(s - base) u< span`;
  // besides powering the implication checks here, they seed the core
  // search's per-level value domains, so a range-constrained byte is
  // enumerated over its interval instead of all 256 values
  // (docs/solver.md#domains).
  std::vector<UInterval> range;
  // The context's interval-memo generation of this prefix's last RangeOf
  // round; while it still equals the context's current generation (nobody
  // bumped in between) and the facts are unchanged, consecutive queries
  // share memoized subtrees. 0 = facts changed, next RangeOf starts fresh.
  uint64_t interval_memo_generation = 0;

  // Resets to the empty summary, keeping vector capacity (the chain's
  // scratch prefix is cleared once per handle-less query).
  void Clear() {
    consumed = 0;
    contradiction = false;
    definitions.clear();
    simplified.clear();
    binding.clear();
    bound = SupportSet();
    range.clear();
    interval_memo_generation = 0;
  }
  UInterval RangeOf(unsigned sym) const {
    return sym < range.size() ? range[sym] : UInterval{0, 255};
  }
};

struct PreprocessStats {
  uint64_t bindings = 0;        // byte-equality facts discovered
  uint64_t substitutions = 0;   // constraints rewritten by substitution
  uint64_t tautologies = 0;     // constraints dropped as implied
  uint64_t contradictions = 0;  // sets refuted before any search
};

class ConstraintPreprocessor {
 public:
  explicit ConstraintPreprocessor(ExprContext& ctx) : ctx_(ctx) {}

  // Folds constraints [prefix.consumed, constraints.size()) into `prefix`.
  // Precondition: the first prefix.consumed entries are the ones already
  // folded (path constraint vectors only grow by appending). Returns false
  // without folding further when the run deadline (set_deadline) has
  // expired — the summary then covers a valid shorter prefix and the caller
  // must treat the query as kUnknown (docs/robustness.md).
  bool Extend(PathPrefix& prefix, const std::vector<const Expr*>& constraints);

  // Installs the run deadline Extend honors between folds. SolverChain
  // forwards its QueryControl deadline here; without one, Extend never
  // gives up.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    has_deadline_ = true;
    deadline_ = deadline;
  }

  // `e` with the prefix's byte bindings substituted in (re-simplified
  // through the canonicalizing builders).
  const Expr* Apply(const PathPrefix& prefix, const Expr* e);

  // Sound unsigned interval of `e` under the prefix's per-symbol ranges
  // (non-const: bookkeeps the prefix's interval-memo generation).
  UInterval RangeOf(PathPrefix& prefix, const Expr* e);

  const PreprocessStats& stats() const { return stats_; }

 private:
  void FoldIn(PathPrefix& prefix, const Expr* c);
  // Recognizes `Symbol(i) == c` (directly or through a ZExt); records the
  // binding and returns true. Sets `contradiction` when the equality cannot
  // hold for any byte.
  bool ExtractBinding(PathPrefix& prefix, const Expr* c);
  // Tightens per-symbol ranges from single-byte comparison constraints.
  void ExtractRange(PathPrefix& prefix, const Expr* c);
  // After new bindings: re-substitutes the kept constraints, dropping the
  // ones that fold to true and promoting newly exposed equalities.
  void Resubstitute(PathPrefix& prefix);

  ExprContext& ctx_;
  PreprocessStats stats_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace overify
