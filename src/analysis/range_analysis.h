// Forward interval analysis for integer SSA values.
//
// Built once per function, by the runtime-check pass, its only user in the
// pipeline: a division whose divisor's range excludes zero, a shift whose
// amount's range fits the width, or an array index whose range fits the
// array gets no check.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "src/ir/function.h"

namespace overify {

// A signed interval [lo, hi] over the mathematical integers, clamped to the
// value's width. Full-width values are represented as the width's full range.
struct ValueRange {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;

  bool IsFull(unsigned bits) const;
  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
  bool IsSingleValue() const { return lo == hi; }

  static ValueRange Exact(int64_t v) { return ValueRange{v, v}; }
  static ValueRange Full(unsigned bits);

  bool operator==(const ValueRange& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const ValueRange& o) const { return !(*this == o); }
};

class RangeAnalysis {
 public:
  // Runs to fixpoint (with widening) over the function.
  explicit RangeAnalysis(Function& fn);

  // The computed range of `v`; full range if unknown/non-integer.
  ValueRange RangeOf(const Value* v) const;

  // True if the comparison `pred(lhs, rhs)` is decided by the computed
  // ranges; `result` receives the decided outcome.
  bool DecideICmp(ICmpPredicate pred, const Value* lhs, const Value* rhs, bool& result) const;

 private:
  ValueRange Evaluate(const Instruction* inst) const;

  std::map<const Value*, ValueRange> ranges_;
};

// Range arithmetic helpers (exposed for tests).
ValueRange RangeAdd(ValueRange a, ValueRange b, unsigned bits);
ValueRange RangeSub(ValueRange a, ValueRange b, unsigned bits);
ValueRange RangeMul(ValueRange a, ValueRange b, unsigned bits);
ValueRange RangeUnion(ValueRange a, ValueRange b);

}  // namespace overify
