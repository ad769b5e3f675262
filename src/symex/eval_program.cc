#include "src/symex/eval_program.h"

#include <algorithm>

namespace overify {

namespace {

// All-ones in the low `width` bits (1 <= width <= 64).
inline uint64_t WidthMask(unsigned width) { return ~uint64_t{0} >> (64 - width); }

// The low `width` bits of `v`, sign-extended to 64.
inline int64_t SignExtendFrom(uint64_t v, unsigned width) {
  const unsigned s = 64 - width;
  return static_cast<int64_t>(v << s) >> s;
}

}  // namespace

void EvalProgram::Build(const std::vector<const Expr*>& roots) {
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
    roots_.push_back(Lower(root));
  }
  // New nodes start with an empty value slot, but interval slots keep the
  // stamps of the previous program's nodes: start a new interval round.
  if (intervals_.size() < nodes_.size()) {
    intervals_.resize(nodes_.size());
  }
  ++interval_gen_;
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

uint32_t EvalProgram::Lower(const Expr* e) {
  if (MapSlot& slot = Probe(e); slot.stamp == build_stamp_) {
    return slot.node;
  }
  // Children first: the array is in post-order, and a child's index is
  // final before its parent is appended.
  const uint32_t a = e->a() != nullptr ? Lower(e->a()) : 0;
  const uint32_t b = e->b() != nullptr ? Lower(e->b()) : 0;
  const uint32_t c = e->c() != nullptr ? Lower(e->c()) : 0;
  Node n;
  n.kind = e->kind();
  n.width = static_cast<uint8_t>(e->width());
  n.a_width = static_cast<uint8_t>(e->a() != nullptr ? e->a()->width() : 0);
  n.shift = static_cast<uint8_t>(e->kind() == ExprKind::kConcat ? e->b()->width()
                                                                 : e->extract_offset());
  n.a = e->kind() == ExprKind::kSymbol ? e->symbol_index() : a;
  n.b = b;
  n.c = c;
  n.gen = 0;
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
  const unsigned w = n.width;
  uint64_t r = 0;
  switch (n.kind) {
    case ExprKind::kConstant:
    case ExprKind::kSymbol:
      OVERIFY_UNREACHABLE("leaves are evaluated inline");
      break;
    case ExprKind::kAdd:
      r = (Value(n.a, bytes) + Value(n.b, bytes)) & WidthMask(w);
      break;
    case ExprKind::kSub:
      r = (Value(n.a, bytes) - Value(n.b, bytes)) & WidthMask(w);
      break;
    case ExprKind::kMul:
      r = (Value(n.a, bytes) * Value(n.b, bytes)) & WidthMask(w);
      break;
    case ExprKind::kUDiv: {
      const uint64_t x = Value(n.a, bytes);
      const uint64_t y = Value(n.b, bytes);
      r = y == 0 ? 0 : x / y;
      break;
    }
    case ExprKind::kSDiv: {
      const int64_t x = SignExtendFrom(Value(n.a, bytes), w);
      const int64_t y = SignExtendFrom(Value(n.b, bytes), w);
      const int64_t int_min = SignExtendFrom(uint64_t{1} << (w - 1), w);
      r = y == 0 || (y == -1 && x == int_min) ? 0 : static_cast<uint64_t>(x / y) & WidthMask(w);
      break;
    }
    case ExprKind::kURem: {
      const uint64_t x = Value(n.a, bytes);
      const uint64_t y = Value(n.b, bytes);
      r = y == 0 ? 0 : x % y;
      break;
    }
    case ExprKind::kSRem: {
      const int64_t x = SignExtendFrom(Value(n.a, bytes), w);
      const int64_t y = SignExtendFrom(Value(n.b, bytes), w);
      r = y == 0 || y == -1 ? 0 : static_cast<uint64_t>(x % y) & WidthMask(w);
      break;
    }
    case ExprKind::kAnd:
      r = Value(n.a, bytes) & Value(n.b, bytes);
      break;
    case ExprKind::kOr:
      r = Value(n.a, bytes) | Value(n.b, bytes);
      break;
    case ExprKind::kXor:
      r = Value(n.a, bytes) ^ Value(n.b, bytes);
      break;
    case ExprKind::kShl: {
      const uint64_t x = Value(n.a, bytes);
      const uint64_t y = Value(n.b, bytes);
      r = y >= w ? 0 : (x << y) & WidthMask(w);
      break;
    }
    case ExprKind::kLShr: {
      const uint64_t x = Value(n.a, bytes);
      const uint64_t y = Value(n.b, bytes);
      r = y >= w ? 0 : x >> y;
      break;
    }
    case ExprKind::kAShr: {
      const uint64_t x = Value(n.a, bytes);
      const uint64_t y = Value(n.b, bytes);
      r = y >= w ? 0 : static_cast<uint64_t>(SignExtendFrom(x, w) >> y) & WidthMask(w);
      break;
    }
    case ExprKind::kEq:
      r = Value(n.a, bytes) == Value(n.b, bytes) ? 1 : 0;
      break;
    case ExprKind::kUlt:
      r = Value(n.a, bytes) < Value(n.b, bytes) ? 1 : 0;
      break;
    case ExprKind::kUle:
      r = Value(n.a, bytes) <= Value(n.b, bytes) ? 1 : 0;
      break;
    case ExprKind::kSlt: {
      const int64_t x = SignExtendFrom(Value(n.a, bytes), n.a_width);
      r = x < SignExtendFrom(Value(n.b, bytes), n.a_width) ? 1 : 0;
      break;
    }
    case ExprKind::kSle: {
      const int64_t x = SignExtendFrom(Value(n.a, bytes), n.a_width);
      r = x <= SignExtendFrom(Value(n.b, bytes), n.a_width) ? 1 : 0;
      break;
    }
    case ExprKind::kSelect:
      r = Value(n.a, bytes) != 0 ? Value(n.b, bytes) : Value(n.c, bytes);
      break;
    case ExprKind::kZExt:
      r = Value(n.a, bytes);
      break;
    case ExprKind::kSExt:
      r = static_cast<uint64_t>(SignExtendFrom(Value(n.a, bytes), n.a_width)) & WidthMask(w);
      break;
    case ExprKind::kTrunc:
      r = Value(n.a, bytes) & WidthMask(w);
      break;
    case ExprKind::kExtract:
      r = (Value(n.a, bytes) >> n.shift) & WidthMask(w);
      break;
    case ExprKind::kConcat: {
      const uint64_t high = Value(n.a, bytes);
      r = (high << n.shift) | Value(n.b, bytes);
      break;
    }
  }
  n.gen = eval_gen_;
  n.value = r;
  return r;
}

template <typename SymFn>
UInterval EvalProgram::Interval(uint32_t i, const SymFn& sym) {
  const Node& n = nodes_[i];
  if (n.kind == ExprKind::kConstant) {
    return UInterval{n.value, n.value};
  }
  if (intervals_[i].gen == interval_gen_) {
    ++interval_hits_;
    return intervals_[i].value;
  }
  const uint64_t full = WidthMask(n.width);
  UInterval result{0, full};
  switch (n.kind) {
    case ExprKind::kConstant:
      OVERIFY_UNREACHABLE("constants are evaluated inline");
      break;
    case ExprKind::kSymbol:
      result = sym(n.a);
      break;
    case ExprKind::kAdd: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
      uint64_t lo;
      uint64_t hi;
      if (!__builtin_add_overflow(a.lo, b.lo, &lo) && !__builtin_add_overflow(a.hi, b.hi, &hi) &&
          hi <= full) {
        result = UInterval{lo, hi};
      }
      break;
    }
    case ExprKind::kSub: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
      if (a.lo >= b.hi) {  // no wraparound possible
        result = UInterval{a.lo - b.hi, a.hi - b.lo};
      }
      break;
    }
    case ExprKind::kMul: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
      uint64_t lo;
      uint64_t hi;
      if (!__builtin_mul_overflow(a.lo, b.lo, &lo) && !__builtin_mul_overflow(a.hi, b.hi, &hi) &&
          hi <= full) {
        result = UInterval{lo, hi};
      }
      break;
    }
    case ExprKind::kUDiv: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
      if (b.lo > 0) {
        result = UInterval{a.lo / b.hi, a.hi / b.lo};
      }
      break;
    }
    case ExprKind::kURem: {
      const UInterval b = Interval(n.b, sym);
      if (b.hi > 0) {
        result = UInterval{0, b.hi - 1};
      }
      break;
    }
    case ExprKind::kAnd: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
      result = UInterval{0, std::min(a.hi, b.hi)};
      if (a.IsSingleton() && b.IsSingleton()) {
        result = UInterval{a.lo & b.lo, a.lo & b.lo};
      }
      break;
    }
    case ExprKind::kOr: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
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
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
      if (a.IsSingleton() && b.IsSingleton()) {
        result = UInterval{a.lo ^ b.lo, a.lo ^ b.lo};
      }
      break;
    }
    case ExprKind::kEq: {
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
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
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
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
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
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
      const UInterval a = Interval(n.a, sym);
      const UInterval b = Interval(n.b, sym);
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
      const UInterval cond = Interval(n.a, sym);
      if (cond.IsSingleton()) {
        result = Interval(cond.lo != 0 ? n.b : n.c, sym);
      } else {
        const UInterval t = Interval(n.b, sym);
        const UInterval f = Interval(n.c, sym);
        result = UInterval{std::min(t.lo, f.lo), std::max(t.hi, f.hi)};
      }
      break;
    }
    case ExprKind::kZExt:
      result = Interval(n.a, sym);
      break;
    case ExprKind::kSExt: {
      const UInterval a = Interval(n.a, sym);
      if (a.hi < (uint64_t{1} << (n.a_width - 1))) {
        result = a;  // non-negative: sign extension is the identity
      }
      break;
    }
    case ExprKind::kTrunc:
    case ExprKind::kExtract:
      if (n.kind == ExprKind::kTrunc || n.shift == 0) {
        const UInterval a = Interval(n.a, sym);
        if (a.hi <= full) {
          result = a;  // value fits: the low bits are the value itself
        }
      }
      break;
    case ExprKind::kConcat: {
      const UInterval high = Interval(n.a, sym);
      const UInterval low = Interval(n.b, sym);
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
  intervals_[i] = IntervalSlot{interval_gen_, result};
  return result;
}

UInterval EvalProgram::EvalInterval(size_t root, const uint8_t* bytes,
                                    const std::vector<bool>& assigned) {
  auto sym = [&](unsigned index) {
    if (index < assigned.size() && assigned[index]) {
      return UInterval{bytes[index], bytes[index]};
    }
    return UInterval{0, 255};
  };
  return Interval(roots_[root], sym);
}

UInterval EvalProgram::EvalIntervalRanges(size_t root, const std::vector<UInterval>& ranges) {
  auto sym = [&](unsigned index) {
    return index < ranges.size() ? ranges[index] : UInterval{0, 255};
  };
  return Interval(roots_[root], sym);
}

}  // namespace overify
