// The core solver's evaluation program: one query's constraint DAG lowered
// into a dense, post-ordered node array (docs/solver.md, "The evaluation
// program").
//
// The core search evaluates the same few constraints millions of times per
// query. Walking the hash-consed Expr DAG for that means chasing scattered
// ~140-byte nodes and calling the out-of-line fold kernel per node; the
// program instead holds each reachable node once, in one 32-byte record
// with its concrete memo slot, children as array indices, with the fold
// rules inlined. Interval slots sit in a parallel array. Both memos are
// generation-stamped, so the program memoizes exactly as
// ExprContext::Evaluate / EvalIntervalRanges do:
//  - select is lazy (only the taken arm is evaluated; the interval form
//    evaluates one arm when the condition is decided);
//  - the fold rules are the shared kernel's, with division by zero,
//    INT_MIN / -1 and shifts >= width giving 0;
//  - one memo generation per NewEvaluation / NewIntervalRound;
//  - constants bypass both memos, symbols bypass only the concrete one.
// Memo hits are counted the same way, and with lazy select their number
// does not depend on operand evaluation order (every reached interior node
// misses once; hits = visits - misses, and both are fixed by the values),
// so crediting them to the context keeps its counters exact.
//
// The program is owned by CoreSolver and rebuilt per query into the same
// buffers; once warm, building and evaluating allocate nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

class EvalProgram {
 public:
  // Lowers `roots` (each must be non-null) into the node array, replacing
  // the previous program and its memoized values. Root i is then addressed
  // as `i` below.
  void Build(const std::vector<const Expr*>& roots);

  // Concrete value of root `root` under `bytes` (bytes[i] is symbol i's
  // value; every symbol of the root's support must be covered). Memoized
  // per generation; call NewEvaluation before each new assignment.
  uint64_t Evaluate(size_t root, const uint8_t* bytes) { return Value(roots_[root], bytes); }
  void NewEvaluation() { ++eval_gen_; }

  // Interval of root `root` with symbol i at [bytes[i], bytes[i]] when
  // assigned[i], else [0, 255] — ExprContext::EvalInterval.
  UInterval EvalInterval(size_t root, const uint8_t* bytes, const std::vector<bool>& assigned);
  // Interval of root `root` with symbol i in ranges[i] ([0, 255] beyond the
  // vector) — ExprContext::EvalIntervalRanges.
  UInterval EvalIntervalRanges(size_t root, const std::vector<UInterval>& ranges);
  void NewIntervalRound() { ++interval_gen_; }

  // Memo hits since the last call (then reset): the caller credits them to
  // the context whose counters these evaluations stand in for.
  uint64_t TakeEvalHits() { return std::exchange(eval_hits_, 0); }
  uint64_t TakeIntervalHits() { return std::exchange(interval_hits_, 0); }

 private:
  // One node with its concrete memo slot: a constant keeps its value in
  // `value` and a symbol its index in `a`; for the rest, `value` is valid
  // when `gen` is the current evaluation generation.
  struct Node {
    ExprKind kind;
    uint8_t width;
    uint8_t a_width;  // first operand's width (signed compares, sext)
    uint8_t shift;    // extract offset; concat: the low part's width
    uint32_t a, b, c;
    uint64_t gen;
    uint64_t value;
  };
  struct IntervalSlot {
    uint64_t gen = 0;
    UInterval value;
  };
  // Lowering's Expr -> node map: open addressing over a power-of-two table,
  // entries valid only when stamped with the current build.
  struct MapSlot {
    const Expr* key = nullptr;
    uint32_t node = 0;
    uint32_t stamp = 0;
  };

  uint32_t Lower(const Expr* e);
  MapSlot& Probe(const Expr* e);
  void GrowMap();

  uint64_t Value(uint32_t i, const uint8_t* bytes) {
    Node& n = nodes_[i];
    if (n.kind == ExprKind::kConstant) {
      return n.value;
    }
    if (n.kind == ExprKind::kSymbol) {
      return bytes[n.a];
    }
    if (n.gen == eval_gen_) {
      ++eval_hits_;
      return n.value;
    }
    return Compute(n, bytes);
  }
  uint64_t Compute(Node& n, const uint8_t* bytes);

  template <typename SymFn>
  UInterval Interval(uint32_t i, const SymFn& sym);

  std::vector<Node> nodes_;
  std::vector<uint32_t> roots_;
  std::vector<IntervalSlot> intervals_;
  std::vector<MapSlot> map_;
  uint32_t build_stamp_ = 0;
  size_t map_used_ = 0;
  // Generations only ever grow (stamps start at 0, generations at 1), so a
  // slot left over from an earlier round is never mistaken for a current
  // one.
  uint64_t eval_gen_ = 1;
  uint64_t interval_gen_ = 1;
  uint64_t eval_hits_ = 0;
  uint64_t interval_hits_ = 0;
};

}  // namespace overify
