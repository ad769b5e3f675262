// The core solver's evaluation program: one query's constraint DAG lowered
// into a dense, post-ordered node array (docs/solver.md, "The evaluation
// program").
//
// The core search evaluates the same few constraints millions of times per
// query. Walking the hash-consed Expr DAG for that means chasing scattered
// ~140-byte nodes and calling the out-of-line fold kernel per node; the
// program instead holds each reachable node once, in one 32-byte record
// with its concrete memo slot, children as array indices, with the fold
// rules inlined. Interval slots sit in a parallel array.
//
// A node is computed only when a byte it depends on has changed. Build
// gives every node its level: the deepest decision level of its support.
// The search stamps a level with a fresh clock value whenever it assigns
// it (Assign), and a memo slot records the clock value it was computed at:
//  - a concrete slot is valid iff it was computed after the last stamp of
//    its node's level. The search assigns levels in order, so changing
//    level j reassigns every deeper level before anything reads it;
//  - an interval slot read at depth d is valid iff it was computed at a
//    depth with the same min(node level, d), after that level's last
//    stamp: the interval is a function of exactly the bytes of levels up
//    to there;
//  - interval rounds under per-symbol ranges (EvalIntervalRanges) keep the
//    round rule instead: one memo round per NewIntervalRound.
// Sweep evaluates a root for all 256 values of its deepest level's symbol
// at once, 64 lanes per block: the nodes at that level run lane-wise, and
// every shallower node is read once through the concrete memo.
//
// The values are ExprContext::Evaluate / EvalInterval / EvalIntervalRanges':
//  - the fold rules are the shared kernel's, and every fold is total:
//    division by zero, INT_MIN / -1 and shifts >= width give 0. So the
//    lane form's eager select equals the scalar form's lazy one;
//  - the interval form evaluates one select arm when the condition is
//    decided;
//  - constants bypass both memos, symbols bypass only the concrete one.
// Memo hits are counted per valid slot read; the caller credits them to the
// context whose counters these evaluations stand in for.
//
// The program is owned by CoreSolver and rebuilt per query into the same
// buffers; once warm, building and evaluating allocate nothing.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

class EvalProgram {
 public:
  // Evaluation work, cumulative over the program's lifetime.
  struct Work {
    uint64_t computes = 0;           // concrete node computations
    uint64_t lane_computes = 0;      // lane node computations, per 64-lane block
    uint64_t interval_computes = 0;  // interval node computations
  };

  // Lowers `roots` (each must be non-null) into the node array, replacing
  // the previous program and its memoized values. Root i is then addressed
  // as `i` below. level_of[s] is symbol s's decision level (distinct
  // symbols, distinct levels); every symbol of the roots' support must have
  // one. Building counts as an Assign of every level.
  void Build(const std::vector<const Expr*>& roots, const std::vector<int32_t>& level_of);

  // Level `level`'s byte changed: every value that depends on it is stale.
  void Assign(size_t level) { stamps_[level + 1] = Tick(); }

  // Concrete value of root `root` under `bytes` (bytes[i] is symbol i's
  // value). Each byte of the root's support may have changed only with an
  // Assign of its level, and levels are assigned as a depth-first search
  // does: after an Assign of level j, deeper levels are read only once
  // assigned again.
  uint64_t Evaluate(size_t root, const uint8_t* bytes) { return Value(roots_[root], bytes); }

  // Interval of root `root` with the symbols of levels <= depth at their
  // bytes and the rest at [0, 255] — ExprContext::EvalInterval with exactly
  // levels 0..depth assigned, under Evaluate's contract for those levels.
  UInterval EvalInterval(size_t root, const uint8_t* bytes, size_t depth);
  // Interval of root `root` with symbol i in ranges[i] ([0, 255] beyond the
  // vector) — ExprContext::EvalIntervalRanges. Memoized per round; call
  // NewIntervalRound whenever the ranges change.
  UInterval EvalIntervalRanges(size_t root, const std::vector<UInterval>& ranges);
  void NewIntervalRound() {
    floor_ = Tick();
    ranges_mode_ = true;
  }

  // Root `root` under every value v of its deepest level's symbol, the
  // shallower symbols at `bytes` (under Evaluate's contract): bit v of
  // `admitted` is set iff v is in `want` and the root is nonzero there.
  // Only the 64-value blocks that meet `want` are evaluated.
  void Sweep(size_t root, const uint8_t* bytes, const std::array<uint64_t, 4>& want,
             std::array<uint64_t, 4>& admitted);

  // Memo hits since the last call (then reset): the caller credits them to
  // the context whose counters these evaluations stand in for.
  uint64_t TakeEvalHits() { return std::exchange(eval_hits_, 0); }
  uint64_t TakeIntervalHits() { return std::exchange(interval_hits_, 0); }

  const Work& work() const { return work_; }

 private:
  // One node with its concrete memo slot: a constant keeps its value in
  // `value` and a symbol its index in `a`; for the rest, `value` is valid
  // when `stamp` is at least the stamp of `level`. `level` is the deepest
  // support level plus one (0: no symbol), the index into stamps_.
  struct Node {
    ExprKind kind;
    uint8_t width;
    uint8_t a_width;  // first operand's width (signed compares, sext)
    uint8_t shift;    // extract offset; concat: the low part's width
    uint32_t a, b, c;
    uint32_t level;
    uint32_t stamp;
    uint64_t value;
  };
  struct IntervalSlot {
    uint32_t stamp = 0;
    uint32_t cut = 0;  // min(node level, depth + 1) when computed; 0 for ranges
    UInterval value;
  };
  // Lowering's Expr -> node map: open addressing over a power-of-two table,
  // entries valid only when stamped with the current build.
  struct MapSlot {
    const Expr* key = nullptr;
    uint32_t node = 0;
    uint32_t stamp = 0;
  };
  // A root's lane program, compiled at its first Sweep: `inputs` are the
  // shallower nodes and constants it reads (one broadcast row each), `steps`
  // its lane nodes in post-order. Row 0 holds the lane values themselves.
  struct LaneInput {
    uint32_t node;
    uint32_t row;
  };
  struct LaneStep {
    uint32_t node;
    uint32_t row;
    uint32_t a, b, c;  // operand rows
  };
  struct LanePlan {
    bool built = false;
    uint32_t inputs_begin = 0, inputs_end = 0;
    uint32_t steps_begin = 0, steps_end = 0;
    uint32_t rows = 0;
    uint32_t root_row = 0;
  };

  uint32_t Lower(const Expr* e, const std::vector<int32_t>& level_of);
  MapSlot& Probe(const Expr* e);
  void GrowMap();

  // The next clock value. On wrap every slot is forgotten first, so a
  // recycled value is never mistaken for a current one.
  uint32_t Tick() {
    if (clock_ == ~uint32_t{0}) {
      Rewind();
    }
    return ++clock_;
  }
  void Rewind();

  uint64_t Value(uint32_t i, const uint8_t* bytes) {
    Node& n = nodes_[i];
    if (n.kind == ExprKind::kConstant) {
      return n.value;
    }
    if (n.kind == ExprKind::kSymbol) {
      return bytes[n.a];
    }
    if (n.stamp >= stamps_[n.level]) {
      ++eval_hits_;
      return n.value;
    }
    return Compute(n, bytes);
  }
  uint64_t Compute(Node& n, const uint8_t* bytes);

  // `sym(n)` is symbol node n's interval and `cut(n)` the level (plus one)
  // up to which its bytes determine n's interval.
  template <typename SymFn, typename CutFn>
  UInterval Interval(uint32_t i, const SymFn& sym, const CutFn& cut);

  const LanePlan& PlanOf(size_t root);
  void RunStep(const LaneStep& step);

  std::vector<Node> nodes_;
  std::vector<uint32_t> roots_;
  std::vector<IntervalSlot> intervals_;
  std::vector<MapSlot> map_;
  uint32_t build_stamp_ = 0;
  size_t map_used_ = 0;
  // Per level plus one, the clock value of its last Assign; entry 0 stands
  // for "no symbol" and is stamped only by Build.
  std::vector<uint32_t> stamps_;
  uint32_t clock_ = 0;
  // Interval slots computed before `floor_` are stale: Build, each ranges
  // round and each switch between the two interval sources move it.
  uint32_t floor_ = 0;
  bool ranges_mode_ = false;
  uint64_t eval_hits_ = 0;
  uint64_t interval_hits_ = 0;
  Work work_;

  std::vector<LanePlan> plans_;
  std::vector<LaneInput> lane_inputs_;
  std::vector<LaneStep> lane_steps_;
  // Plan compilation scratch, per node: the plan that last visited it and
  // its row there.
  std::vector<uint32_t> plan_mark_;
  std::vector<uint32_t> plan_row_;
  uint32_t plan_stamp_ = 0;
  std::vector<uint32_t> plan_stack_;
  std::vector<uint32_t> plan_nodes_;
  std::vector<uint64_t> rows_;  // 64 lanes per row
};

}  // namespace overify
