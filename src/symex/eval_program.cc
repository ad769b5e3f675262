#include "src/symex/eval_program.h"

#include <algorithm>
#include <type_traits>

namespace overify {

namespace {

// All-ones in the low `width` bits (1 <= width <= 64).
inline uint64_t WidthMask(unsigned width) { return ~uint64_t{0} >> (64 - width); }

// The low `width` bits of `v`, sign-extended to 64.
inline int64_t SignExtendFrom(uint64_t v, unsigned width) {
  const unsigned s = 64 - width;
  return static_cast<int64_t>(v << s) >> s;
}

// The compares below are written without branches or 64-bit compare
// instructions, so that the lane loops vectorize on a baseline x86-64.

// 1 iff d != 0.
inline uint64_t NonZero(uint64_t d) { return (d | (0 - d)) >> 63; }

// 1 iff x < y (unsigned): the borrow out of x - y.
inline uint64_t Borrow(uint64_t x, uint64_t y) { return ((~x & y) | ((~x | y) & (x - y))) >> 63; }

// The sign bit of a `width`-bit value.
inline uint64_t SignBit(unsigned width) { return uint64_t{1} << (width - 1); }

// Operands per kind.
constexpr unsigned Arity(ExprKind kind) {
  switch (kind) {
    case ExprKind::kConstant:
    case ExprKind::kSymbol:
      return 0;
    case ExprKind::kZExt:
    case ExprKind::kSExt:
    case ExprKind::kTrunc:
    case ExprKind::kExtract:
      return 1;
    case ExprKind::kSelect:
      return 3;
    default:
      return 2;
  }
}

// The fold rule of kind K over operand values x and y (y unused by the
// one-operand kinds), at result width w, first-operand width aw, and
// extract offset or concat low width `shift`; operand values fit their
// widths. Every rule is total, so the scalar and the lane form share it.
// Select is not a fold: the scalar form evaluates it lazily, the lane form
// eagerly.
template <ExprKind K>
inline uint64_t Fold(unsigned w, unsigned aw, unsigned shift, uint64_t x, uint64_t y) {
  using Kind = ExprKind;
  if constexpr (K == Kind::kAdd) {
    return (x + y) & WidthMask(w);
  } else if constexpr (K == Kind::kSub) {
    return (x - y) & WidthMask(w);
  } else if constexpr (K == Kind::kMul) {
    return (x * y) & WidthMask(w);
  } else if constexpr (K == Kind::kUDiv) {
    return y == 0 ? 0 : x / y;
  } else if constexpr (K == Kind::kURem) {
    return y == 0 ? 0 : x % y;
  } else if constexpr (K == Kind::kSDiv) {
    const int64_t sx = SignExtendFrom(x, w);
    const int64_t sy = SignExtendFrom(y, w);
    const bool trap = sy == 0 || (sy == -1 && sx == SignExtendFrom(SignBit(w), w));
    return trap ? 0 : static_cast<uint64_t>(sx / sy) & WidthMask(w);
  } else if constexpr (K == Kind::kSRem) {
    const int64_t sx = SignExtendFrom(x, w);
    const int64_t sy = SignExtendFrom(y, w);
    const bool trap = sy == 0 || sy == -1;
    return trap ? 0 : static_cast<uint64_t>(sx % sy) & WidthMask(w);
  } else if constexpr (K == Kind::kAnd) {
    return x & y;
  } else if constexpr (K == Kind::kOr) {
    return x | y;
  } else if constexpr (K == Kind::kXor) {
    return x ^ y;
  } else if constexpr (K == Kind::kShl) {
    return y >= w ? 0 : (x << y) & WidthMask(w);
  } else if constexpr (K == Kind::kLShr) {
    return y >= w ? 0 : x >> y;
  } else if constexpr (K == Kind::kAShr) {
    return y >= w ? 0 : static_cast<uint64_t>(SignExtendFrom(x, w) >> y) & WidthMask(w);
  } else if constexpr (K == Kind::kEq) {
    return 1 ^ NonZero(x ^ y);
  } else if constexpr (K == Kind::kUlt) {
    return Borrow(x, y);
  } else if constexpr (K == Kind::kUle) {
    return 1 ^ Borrow(y, x);
  } else if constexpr (K == Kind::kSlt) {
    // Flipping the sign bit maps signed order onto unsigned order.
    return Borrow(x ^ SignBit(aw), y ^ SignBit(aw));
  } else if constexpr (K == Kind::kSle) {
    return 1 ^ Borrow(y ^ SignBit(aw), x ^ SignBit(aw));
  } else if constexpr (K == Kind::kZExt) {
    return x;
  } else if constexpr (K == Kind::kSExt) {
    return ((x ^ SignBit(aw)) - SignBit(aw)) & WidthMask(w);
  } else if constexpr (K == Kind::kTrunc) {
    return x & WidthMask(w);
  } else if constexpr (K == Kind::kExtract) {
    return (x >> shift) & WidthMask(w);
  } else {
    static_assert(K == Kind::kConcat, "every fold kind has a rule");
    return (x << shift) | y;
  }
}

// Calls f(std::integral_constant<ExprKind, kind>) for a fold kind, so that
// Fold's rule is chosen once per call, outside any lane loop. Always
// inlined: the scalar form recurses through it once per node.
template <typename F>
__attribute__((always_inline)) inline void WithFoldKind(ExprKind kind, F&& f) {
  using K = ExprKind;
  switch (kind) {
    case K::kAdd: return f(std::integral_constant<K, K::kAdd>{});
    case K::kSub: return f(std::integral_constant<K, K::kSub>{});
    case K::kMul: return f(std::integral_constant<K, K::kMul>{});
    case K::kUDiv: return f(std::integral_constant<K, K::kUDiv>{});
    case K::kSDiv: return f(std::integral_constant<K, K::kSDiv>{});
    case K::kURem: return f(std::integral_constant<K, K::kURem>{});
    case K::kSRem: return f(std::integral_constant<K, K::kSRem>{});
    case K::kAnd: return f(std::integral_constant<K, K::kAnd>{});
    case K::kOr: return f(std::integral_constant<K, K::kOr>{});
    case K::kXor: return f(std::integral_constant<K, K::kXor>{});
    case K::kShl: return f(std::integral_constant<K, K::kShl>{});
    case K::kLShr: return f(std::integral_constant<K, K::kLShr>{});
    case K::kAShr: return f(std::integral_constant<K, K::kAShr>{});
    case K::kEq: return f(std::integral_constant<K, K::kEq>{});
    case K::kUlt: return f(std::integral_constant<K, K::kUlt>{});
    case K::kUle: return f(std::integral_constant<K, K::kUle>{});
    case K::kSlt: return f(std::integral_constant<K, K::kSlt>{});
    case K::kSle: return f(std::integral_constant<K, K::kSle>{});
    case K::kZExt: return f(std::integral_constant<K, K::kZExt>{});
    case K::kSExt: return f(std::integral_constant<K, K::kSExt>{});
    case K::kTrunc: return f(std::integral_constant<K, K::kTrunc>{});
    case K::kExtract: return f(std::integral_constant<K, K::kExtract>{});
    case K::kConcat: return f(std::integral_constant<K, K::kConcat>{});
    case K::kConstant:
    case K::kSymbol:
    case K::kSelect:
      break;
  }
  OVERIFY_UNREACHABLE("not a fold kind");
}

}  // namespace

void EvalProgram::Build(const std::vector<const Expr*>& roots,
                        const std::vector<int32_t>& level_of) {
  nodes_.clear();
  roots_.clear();
  if (++build_stamp_ == 0) {
    // Stamp wrap: forget every entry rather than trust a recycled stamp.
    std::fill(map_.begin(), map_.end(), MapSlot{});
    build_stamp_ = 1;
  }
  map_used_ = 0;
  if (map_.empty()) {
    GrowMap();
  }
  for (const Expr* root : roots) {
    roots_.push_back(Lower(root, level_of));
  }
  // Every level starts stamped after every slot of the previous program:
  // new nodes start unstamped, and interval slots keep the previous
  // program's stamps.
  if (intervals_.size() < nodes_.size()) {
    intervals_.resize(nodes_.size());
  }
  int32_t deepest = -1;
  for (int32_t level : level_of) {
    deepest = std::max(deepest, level);
  }
  const uint32_t now = Tick();
  stamps_.assign(static_cast<size_t>(deepest) + 2, now);
  floor_ = now;
  ranges_mode_ = false;
  plans_.assign(roots_.size(), LanePlan{});
  lane_inputs_.clear();
  lane_steps_.clear();
}

void EvalProgram::Rewind() {
  for (Node& n : nodes_) {
    n.stamp = 0;
  }
  for (IntervalSlot& slot : intervals_) {
    slot.stamp = 0;
  }
  std::fill(stamps_.begin(), stamps_.end(), 1);
  floor_ = 1;
  clock_ = 1;
}

EvalProgram::MapSlot& EvalProgram::Probe(const Expr* e) {
  const size_t mask = map_.size() - 1;
  size_t i = static_cast<size_t>(e->hash()) & mask;
  while (map_[i].stamp == build_stamp_ && map_[i].key != e) {
    i = (i + 1) & mask;
  }
  return map_[i];
}

void EvalProgram::GrowMap() {
  std::vector<MapSlot> old;
  old.swap(map_);
  map_.assign(std::max<size_t>(64, old.size() * 2), MapSlot{});
  for (const MapSlot& slot : old) {
    if (slot.stamp == build_stamp_) {
      Probe(slot.key) = slot;
    }
  }
}

uint32_t EvalProgram::Lower(const Expr* e, const std::vector<int32_t>& level_of) {
  if (MapSlot& slot = Probe(e); slot.stamp == build_stamp_) {
    return slot.node;
  }
  // Children first: the array is in post-order, and a child's index is
  // final before its parent is appended.
  const uint32_t a = e->a() != nullptr ? Lower(e->a(), level_of) : 0;
  const uint32_t b = e->b() != nullptr ? Lower(e->b(), level_of) : 0;
  const uint32_t c = e->c() != nullptr ? Lower(e->c(), level_of) : 0;
  Node n;
  n.kind = e->kind();
  n.width = static_cast<uint8_t>(e->width());
  n.a_width = static_cast<uint8_t>(e->a() != nullptr ? e->a()->width() : 0);
  n.shift = static_cast<uint8_t>(e->kind() == ExprKind::kConcat ? e->b()->width()
                                                                 : e->extract_offset());
  n.a = e->kind() == ExprKind::kSymbol ? e->symbol_index() : a;
  n.b = b;
  n.c = c;
  n.level = 0;
  if (e->kind() == ExprKind::kSymbol) {
    OVERIFY_ASSERT(e->symbol_index() < level_of.size() && level_of[e->symbol_index()] >= 0,
                   "every support symbol has a level");
    n.level = static_cast<uint32_t>(level_of[e->symbol_index()]) + 1;
  } else {
    for (unsigned k = 0; k < Arity(e->kind()); ++k) {
      n.level = std::max(n.level, nodes_[k == 0 ? a : k == 1 ? b : c].level);
    }
  }
  n.stamp = 0;
  n.value = e->kind() == ExprKind::kConstant ? e->constant_value() : 0;
  const uint32_t index = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(n);
  // Keep the load at most one half, so probes stay short and always end
  // at a free slot. The recursive calls may have grown the table, so the
  // slot is probed afresh.
  if (2 * (map_used_ + 1) > map_.size()) {
    GrowMap();
  }
  Probe(e) = MapSlot{e, index, build_stamp_};
  ++map_used_;
  return index;
}

uint64_t EvalProgram::Compute(Node& n, const uint8_t* bytes) {
  ++work_.computes;
  uint64_t r = 0;
  if (n.kind == ExprKind::kSelect) {
    r = Value(n.a, bytes) != 0 ? Value(n.b, bytes) : Value(n.c, bytes);
  } else {
    WithFoldKind(n.kind, [&](auto kind) {
      constexpr ExprKind K = decltype(kind)::value;
      const uint64_t x = Value(n.a, bytes);
      const uint64_t y = Arity(K) == 2 ? Value(n.b, bytes) : 0;
      r = Fold<K>(n.width, n.a_width, n.shift, x, y);
    });
  }
  n.stamp = clock_;
  n.value = r;
  return r;
}

const EvalProgram::LanePlan& EvalProgram::PlanOf(size_t root) {
  LanePlan& plan = plans_[root];
  if (plan.built) {
    return plan;
  }
  if (plan_mark_.size() < nodes_.size()) {
    plan_mark_.resize(nodes_.size(), 0);
    plan_row_.resize(nodes_.size(), 0);
  }
  if (++plan_stamp_ == 0) {
    std::fill(plan_mark_.begin(), plan_mark_.end(), 0);
    plan_stamp_ = 1;
  }
  // The lane nodes are those at the root's level; their other operands
  // are inputs, read once per sweep. The one symbol at that level is the
  // lane variable, row 0.
  const uint32_t top = roots_[root];
  const uint32_t level = nodes_[top].level;
  uint32_t rows = 1;
  plan.inputs_begin = static_cast<uint32_t>(lane_inputs_.size());
  plan_nodes_.clear();
  plan_stack_.assign(1, top);
  plan_mark_[top] = plan_stamp_;
  while (!plan_stack_.empty()) {
    const uint32_t i = plan_stack_.back();
    plan_stack_.pop_back();
    const Node& n = nodes_[i];
    if (n.kind == ExprKind::kSymbol) {
      plan_row_[i] = 0;
      continue;
    }
    plan_nodes_.push_back(i);
    for (unsigned k = 0; k < Arity(n.kind); ++k) {
      const uint32_t child = k == 0 ? n.a : k == 1 ? n.b : n.c;
      if (plan_mark_[child] == plan_stamp_) {
        continue;
      }
      plan_mark_[child] = plan_stamp_;
      if (nodes_[child].level == level) {
        plan_stack_.push_back(child);
      } else {
        plan_row_[child] = rows++;
        lane_inputs_.push_back(LaneInput{child, plan_row_[child]});
      }
    }
  }
  plan.inputs_end = static_cast<uint32_t>(lane_inputs_.size());
  // Post-order indices put every operand before its users.
  std::sort(plan_nodes_.begin(), plan_nodes_.end());
  plan.steps_begin = static_cast<uint32_t>(lane_steps_.size());
  for (uint32_t i : plan_nodes_) {
    const Node& n = nodes_[i];
    const unsigned arity = Arity(n.kind);
    plan_row_[i] = rows++;
    lane_steps_.push_back(LaneStep{i, plan_row_[i], plan_row_[n.a],
                                   arity >= 2 ? plan_row_[n.b] : 0,
                                   arity == 3 ? plan_row_[n.c] : 0});
  }
  plan.steps_end = static_cast<uint32_t>(lane_steps_.size());
  plan.rows = rows;
  plan.root_row = plan_row_[top];
  plan.built = true;
  return plan;
}

void EvalProgram::RunStep(const LaneStep& step) {
  const Node& n = nodes_[step.node];
  uint64_t* __restrict r = &rows_[size_t{step.row} * 64];
  const uint64_t* __restrict x = &rows_[size_t{step.a} * 64];
  const uint64_t* __restrict y = &rows_[size_t{step.b} * 64];
  if (n.kind == ExprKind::kSelect) {
    const uint64_t* __restrict z = &rows_[size_t{step.c} * 64];
    for (unsigned j = 0; j < 64; ++j) {
      r[j] = z[j] ^ ((y[j] ^ z[j]) & (0 - x[j]));  // the condition is 0 or 1
    }
    return;
  }
  const unsigned w = n.width;
  const unsigned aw = n.a_width;
  const unsigned shift = n.shift;
  WithFoldKind(n.kind, [&](auto kind) {
    for (unsigned j = 0; j < 64; ++j) {
      r[j] = Fold<decltype(kind)::value>(w, aw, shift, x[j], y[j]);
    }
  });
}

void EvalProgram::Sweep(size_t root, const uint8_t* bytes, const std::array<uint64_t, 4>& want,
                        std::array<uint64_t, 4>& admitted) {
  admitted = {0, 0, 0, 0};
  if (nodes_[roots_[root]].level == 0) {
    // No symbol: one value for every lane.
    if (Value(roots_[root], bytes) != 0) {
      admitted = want;
    }
    return;
  }
  const LanePlan& plan = PlanOf(root);
  if (rows_.size() < size_t{plan.rows} * 64) {
    rows_.resize(size_t{plan.rows} * 64);
  }
  for (uint32_t k = plan.inputs_begin; k < plan.inputs_end; ++k) {
    const uint64_t v = Value(lane_inputs_[k].node, bytes);
    std::fill_n(&rows_[size_t{lane_inputs_[k].row} * 64], 64, v);
  }
  const uint64_t* result = &rows_[size_t{plan.root_row} * 64];
  for (unsigned block = 0; block < 4; ++block) {
    if (want[block] == 0) {
      continue;
    }
    for (unsigned j = 0; j < 64; ++j) {
      rows_[j] = block * 64 + j;
    }
    for (uint32_t s = plan.steps_begin; s < plan.steps_end; ++s) {
      RunStep(lane_steps_[s]);
    }
    work_.lane_computes += plan.steps_end - plan.steps_begin;
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; ++j) {
      bits |= uint64_t{result[j] != 0} << j;
    }
    admitted[block] = bits & want[block];
  }
}

template <typename SymFn, typename CutFn>
UInterval EvalProgram::Interval(uint32_t i, const SymFn& sym, const CutFn& cut) {
  const Node& n = nodes_[i];
  if (n.kind == ExprKind::kConstant) {
    return UInterval{n.value, n.value};
  }
  const uint32_t c = cut(n);
  const IntervalSlot& slot = intervals_[i];
  if (slot.cut == c && slot.stamp >= std::max(floor_, stamps_[c])) {
    ++interval_hits_;
    return slot.value;
  }
  ++work_.interval_computes;
  const uint64_t full = WidthMask(n.width);
  UInterval result{0, full};
  switch (n.kind) {
    case ExprKind::kConstant:
      OVERIFY_UNREACHABLE("constants are evaluated inline");
      break;
    case ExprKind::kSymbol:
      result = sym(n);
      break;
    case ExprKind::kAdd: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      uint64_t lo;
      uint64_t hi;
      if (!__builtin_add_overflow(a.lo, b.lo, &lo) && !__builtin_add_overflow(a.hi, b.hi, &hi) &&
          hi <= full) {
        result = UInterval{lo, hi};
      }
      break;
    }
    case ExprKind::kSub: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (a.lo >= b.hi) {  // no wraparound possible
        result = UInterval{a.lo - b.hi, a.hi - b.lo};
      }
      break;
    }
    case ExprKind::kMul: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      uint64_t lo;
      uint64_t hi;
      if (!__builtin_mul_overflow(a.lo, b.lo, &lo) && !__builtin_mul_overflow(a.hi, b.hi, &hi) &&
          hi <= full) {
        result = UInterval{lo, hi};
      }
      break;
    }
    case ExprKind::kUDiv: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (b.lo > 0) {
        result = UInterval{a.lo / b.hi, a.hi / b.lo};
      }
      break;
    }
    case ExprKind::kURem: {
      const UInterval b = Interval(n.b, sym, cut);
      if (b.hi > 0) {
        result = UInterval{0, b.hi - 1};
      }
      break;
    }
    case ExprKind::kAnd: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      result = UInterval{0, std::min(a.hi, b.hi)};
      if (a.IsSingleton() && b.IsSingleton()) {
        result = UInterval{a.lo & b.lo, a.lo & b.lo};
      }
      break;
    }
    case ExprKind::kOr: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (a.IsSingleton() && b.IsSingleton()) {
        result = UInterval{a.lo | b.lo, a.lo | b.lo};
      } else {
        // a|b >= max(lo_a, lo_b); a|b < the power of two covering both his.
        uint64_t bound = 1;
        while (bound - 1 < a.hi || bound - 1 < b.hi) {
          if (bound > (uint64_t{1} << 62)) {
            bound = 0;
            break;
          }
          bound <<= 1;
        }
        result = UInterval{std::max(a.lo, b.lo), bound == 0 ? full : bound - 1};
      }
      break;
    }
    case ExprKind::kXor: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (a.IsSingleton() && b.IsSingleton()) {
        result = UInterval{a.lo ^ b.lo, a.lo ^ b.lo};
      }
      break;
    }
    case ExprKind::kEq: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (a.hi < b.lo || b.hi < a.lo) {
        result = UInterval{0, 0};  // disjoint: never equal
      } else if (a.IsSingleton() && b.IsSingleton()) {
        const uint64_t v = a.lo == b.lo ? 1 : 0;
        result = UInterval{v, v};
      } else {
        result = UInterval{0, 1};
      }
      break;
    }
    case ExprKind::kUlt: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (a.hi < b.lo) {
        result = UInterval{1, 1};
      } else if (a.lo >= b.hi) {
        result = UInterval{0, 0};
      } else {
        result = UInterval{0, 1};
      }
      break;
    }
    case ExprKind::kUle: {
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      if (a.hi <= b.lo) {
        result = UInterval{1, 1};
      } else if (a.lo > b.hi) {
        result = UInterval{0, 0};
      } else {
        result = UInterval{0, 1};
      }
      break;
    }
    case ExprKind::kSlt:
    case ExprKind::kSle: {
      // Decided only when both operands avoid the sign boundary, where
      // signed order equals unsigned order.
      const uint64_t sign_bit = uint64_t{1} << (n.a_width - 1);
      const UInterval a = Interval(n.a, sym, cut);
      const UInterval b = Interval(n.b, sym, cut);
      const bool a_nonneg = a.hi < sign_bit;
      const bool b_nonneg = b.hi < sign_bit;
      const bool a_neg = a.lo >= sign_bit;
      const bool b_neg = b.lo >= sign_bit;
      result = UInterval{0, 1};
      if (a_neg && b_nonneg) {
        result = UInterval{1, 1};
      } else if (a_nonneg && b_neg) {
        result = UInterval{0, 0};
      } else if ((a_nonneg && b_nonneg) || (a_neg && b_neg)) {
        const bool strict = n.kind == ExprKind::kSlt;
        if (strict ? a.hi < b.lo : a.hi <= b.lo) {
          result = UInterval{1, 1};
        } else if (strict ? a.lo >= b.hi : a.lo > b.hi) {
          result = UInterval{0, 0};
        }
      }
      break;
    }
    case ExprKind::kSelect: {
      const UInterval cond = Interval(n.a, sym, cut);
      if (cond.IsSingleton()) {
        result = Interval(cond.lo != 0 ? n.b : n.c, sym, cut);
      } else {
        const UInterval t = Interval(n.b, sym, cut);
        const UInterval f = Interval(n.c, sym, cut);
        result = UInterval{std::min(t.lo, f.lo), std::max(t.hi, f.hi)};
      }
      break;
    }
    case ExprKind::kZExt:
      result = Interval(n.a, sym, cut);
      break;
    case ExprKind::kSExt: {
      const UInterval a = Interval(n.a, sym, cut);
      if (a.hi < (uint64_t{1} << (n.a_width - 1))) {
        result = a;  // non-negative: sign extension is the identity
      }
      break;
    }
    case ExprKind::kTrunc:
    case ExprKind::kExtract:
      if (n.kind == ExprKind::kTrunc || n.shift == 0) {
        const UInterval a = Interval(n.a, sym, cut);
        if (a.hi <= full) {
          result = a;  // value fits: the low bits are the value itself
        }
      }
      break;
    case ExprKind::kConcat: {
      const UInterval high = Interval(n.a, sym, cut);
      const UInterval low = Interval(n.b, sym, cut);
      result = UInterval{(high.lo << n.shift) | low.lo, (high.hi << n.shift) | low.hi};
      break;
    }
    case ExprKind::kSDiv:
    case ExprKind::kSRem:
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
      break;  // full range, operands unvisited
  }
  intervals_[i] = IntervalSlot{clock_, c, result};
  return result;
}

UInterval EvalProgram::EvalInterval(size_t root, const uint8_t* bytes, size_t depth) {
  if (ranges_mode_) {
    floor_ = Tick();
    ranges_mode_ = false;
  }
  const uint32_t top = static_cast<uint32_t>(depth + 1);
  auto sym = [&](const Node& n) {
    return n.level <= top ? UInterval{bytes[n.a], bytes[n.a]} : UInterval{0, 255};
  };
  auto cut = [&](const Node& n) { return std::min(n.level, top); };
  return Interval(roots_[root], sym, cut);
}

UInterval EvalProgram::EvalIntervalRanges(size_t root, const std::vector<UInterval>& ranges) {
  if (!ranges_mode_) {
    floor_ = Tick();
    ranges_mode_ = true;
  }
  auto sym = [&](const Node& n) {
    return n.a < ranges.size() ? ranges[n.a] : UInterval{0, 255};
  };
  // Cut 0: a round's slots are valid from floor_ on (stamps_[0] <= floor_).
  auto cut = [](const Node&) { return uint32_t{0}; };
  return Interval(roots_[root], sym, cut);
}

}  // namespace overify
