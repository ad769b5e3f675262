#include "src/symex/expr.h"

#include <unordered_map>

#include "src/ir/constant.h"
#include "src/ir/fold.h"

namespace overify {

namespace {

Opcode ExprKindToOpcode(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAdd:
      return Opcode::kAdd;
    case ExprKind::kSub:
      return Opcode::kSub;
    case ExprKind::kMul:
      return Opcode::kMul;
    case ExprKind::kUDiv:
      return Opcode::kUDiv;
    case ExprKind::kSDiv:
      return Opcode::kSDiv;
    case ExprKind::kURem:
      return Opcode::kURem;
    case ExprKind::kSRem:
      return Opcode::kSRem;
    case ExprKind::kAnd:
      return Opcode::kAnd;
    case ExprKind::kOr:
      return Opcode::kOr;
    case ExprKind::kXor:
      return Opcode::kXor;
    case ExprKind::kShl:
      return Opcode::kShl;
    case ExprKind::kLShr:
      return Opcode::kLShr;
    case ExprKind::kAShr:
      return Opcode::kAShr;
    default:
      OVERIFY_UNREACHABLE("not a binary expr kind");
  }
}

bool IsCommutativeExpr(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAdd:
    case ExprKind::kMul:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor:
    case ExprKind::kEq:
      return true;
    default:
      return false;
  }
}

// Canonical operand order for commutative kinds: constants to the right,
// otherwise ordered by structural hash. Hashes are context-independent
// (unlike creation ids), so every ExprContext builds the identical
// structure for the same logical expression — the invariant the
// scheduler's cross-context state migration and the solver's deterministic
// models rely on. Creation ids only break the (vanishingly rare) hash tie.
bool SwapForCanonicalOrder(const Expr* a, const Expr* b) {
  if (a->IsConstant()) {
    return true;
  }
  if (b->IsConstant()) {
    return false;
  }
  if (a->hash() != b->hash()) {
    return b->hash() < a->hash();
  }
  return b->id() < a->id();
}

}  // namespace

uint64_t ExprInterner::HashKey(const Key& key) {
  // Children are interned, so their stored hashes are already canonical and
  // well-mixed; leaf payloads get one Mix round each.
  uint64_t h = HashMix64((static_cast<uint64_t>(key.kind) << 32) ^
                   (static_cast<uint64_t>(key.width) << 16) ^ key.extract_offset);
  h = HashMix64(h ^ key.constant ^ (static_cast<uint64_t>(key.symbol) << 1));
  if (key.a != nullptr) {
    h = HashMix64(h ^ key.a->hash());
  }
  if (key.b != nullptr) {
    h = HashMix64(h ^ key.b->hash());
  }
  if (key.c != nullptr) {
    h = HashMix64(h ^ key.c->hash());
  }
  return h != 0 ? h : 1;
}

bool ExprInterner::Matches(const Expr& e, const Key& key) {
  return e.kind_ == key.kind && e.width_ == key.width && e.constant_ == key.constant &&
         e.symbol_ == key.symbol && e.a_ == key.a && e.b_ == key.b && e.c_ == key.c &&
         e.extract_offset_ == key.extract_offset;
}

ExprInterner::ExprInterner(bool concurrent) : concurrent_(concurrent) {
  static std::atomic<uint64_t> next_serial{1};
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
  size_t num_shards = concurrent ? kConcurrentShards : 1;
  shards_ = std::make_unique<Shard[]>(num_shards);
  shard_mask_ = num_shards - 1;
  // A private interner starts with the old flat table's size; concurrent
  // shards start smaller since the load spreads across the stripes.
  size_t initial = concurrent ? 64 : 256;
  for (size_t i = 0; i < num_shards; ++i) {
    shards_[i].table.assign(initial, nullptr);
    shards_[i].mask = initial - 1;
  }
}

void ExprInterner::GrowTable(Shard& shard) {
  std::vector<Expr*> bigger(shard.table.size() * 2, nullptr);
  size_t mask = bigger.size() - 1;
  for (Expr* e : shard.table) {
    if (e == nullptr) {
      continue;
    }
    size_t idx = e->hash_ & mask;
    while (bigger[idx] != nullptr) {
      idx = (idx + 1) & mask;
    }
    bigger[idx] = e;
  }
  shard.table = std::move(bigger);
  shard.mask = mask;
}

const Expr* ExprInterner::Intern(const Key& key) {
  return InternHashed(key, HashKey(key));
}

const Expr* ExprInterner::InternHashed(const Key& key, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
  if (concurrent_) {
    lock.lock();
  }
  // Keep the load factor below ~0.7 so probe sequences stay short.
  if ((shard.exprs.size() + 1) * 10 >= shard.table.size() * 7) {
    GrowTable(shard);
  }
  size_t idx = hash & shard.mask;
  while (shard.table[idx] != nullptr) {
    Expr* slot = shard.table[idx];
    if (slot->hash_ == hash && Matches(*slot, key)) {
      return slot;
    }
    idx = (idx + 1) & shard.mask;
  }
  auto owned = std::unique_ptr<Expr>(new Expr());
  Expr* e = owned.get();
  e->kind_ = key.kind;
  e->width_ = static_cast<uint8_t>(key.width);
  e->constant_ = key.constant;
  e->symbol_ = key.symbol;
  e->a_ = key.a;
  e->b_ = key.b;
  e->c_ = key.c;
  e->extract_offset_ = key.extract_offset;
  // Relaxed is enough: ids need only be unique and dense, and a node's
  // children always got theirs first (they were interned before it).
  e->id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
  e->hash_ = hash;
  if (key.kind == ExprKind::kSymbol) {
    e->support_.Add(key.symbol);
  }
  for (const Expr* child : {key.a, key.b, key.c}) {
    if (child != nullptr) {
      e->support_.UnionWith(child->Support());
    }
  }
  shard.exprs.push_back(std::move(owned));
  shard.table[idx] = e;
  return e;
}

size_t ExprInterner::NumExprs() const {
  size_t total = 0;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& shard = shards_[i];
    std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
    if (concurrent_) {
      lock.lock();
    }
    total += shard.exprs.size();
  }
  return total;
}

bool ExprInterner::Owns(const Expr* e) const {
  Shard& shard = ShardFor(e->hash());
  std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
  if (concurrent_) {
    lock.lock();
  }
  size_t idx = e->hash() & shard.mask;
  while (shard.table[idx] != nullptr) {
    if (shard.table[idx] == e) {
      return true;
    }
    idx = (idx + 1) & shard.mask;
  }
  return false;
}

ExprContext::ExprContext() : ExprContext(static_cast<ExprInterner*>(nullptr)) {}

ExprContext::ExprContext(ExprInterner& shared) : ExprContext(&shared) {}

ExprContext::ExprContext(ExprInterner* shared) {
  if (shared == nullptr) {
    owned_interner_ = std::make_unique<ExprInterner>(/*concurrent=*/false);
    interner_ = owned_interner_.get();
  } else {
    interner_ = shared;
  }
  // Inline memo slots are safe only when this context is the nodes' sole
  // user; any externally-provided interner may have other contexts (now or
  // later), so those memoize into the id-indexed tables.
  shared_memos_ = owned_interner_ == nullptr;
  if (interner_->concurrent()) {
    // Direct-mapped local intern cache (power of two); see the member
    // comment. 8192 slots cover the workloads' hot DAGs comfortably.
    intern_cache_.assign(8192, nullptr);
  }
  small_constants_.assign(7 * kSmallConstants, nullptr);
  true_ = Constant(1, 1);
  false_ = Constant(0, 1);
}

const Expr* ExprContext::Intern(const Key& key) {
  if (intern_cache_.empty()) {
    return interner_->Intern(key);
  }
  uint64_t hash = ExprInterner::HashKey(key);
  size_t idx = hash & (intern_cache_.size() - 1);
  const Expr* cached = intern_cache_[idx];
  if (cached != nullptr && cached->hash() == hash && ExprInterner::Matches(*cached, key)) {
    return cached;
  }
  const Expr* e = interner_->InternHashed(key, hash);
  intern_cache_[idx] = e;
  return e;
}

template <typename Slot>
Slot& ExprContext::SlotFor(std::vector<Slot>& slots, const Expr* e) {
  uint64_t id = e->id();
  if (id >= slots.size()) {
    size_t grown = slots.empty() ? 256 : slots.size() * 2;
    slots.resize(std::max<size_t>(id + 1, grown));
  }
  return slots[id];
}

const Expr* ExprContext::Constant(uint64_t value, unsigned width) {
  OVERIFY_ASSERT(width >= 1 && width <= 64, "bad width");
  value = TruncateToWidth(value, width);
  if (value >= kSmallConstants || (width & (width - 1)) != 0) {
    return InternConstant(value, width);
  }
  const Expr*& slot =
      small_constants_[static_cast<size_t>(__builtin_ctz(width)) * kSmallConstants + value];
  if (slot == nullptr) {
    slot = InternConstant(value, width);
  }
  return slot;
}

const Expr* ExprContext::InternConstant(uint64_t value, unsigned width) {
  Key key{};
  key.kind = ExprKind::kConstant;
  key.width = width;
  key.constant = value;
  return Intern(key);
}

const Expr* ExprContext::Symbol(unsigned index) {
  if (index < symbols_.size() && symbols_[index] != nullptr) {
    return symbols_[index];
  }
  Key key{};
  key.kind = ExprKind::kSymbol;
  key.width = 8;
  key.symbol = index;
  const Expr* e = Intern(key);
  if (index >= symbols_.size()) {
    symbols_.resize(index + 1, nullptr);
  }
  symbols_[index] = e;
  return e;
}

const Expr* ExprContext::Binary(ExprKind kind, const Expr* a, const Expr* b) {
  OVERIFY_ASSERT(a->width() == b->width(), "binary width mismatch");
  unsigned width = a->width();

  // Constant folding.
  if (a->IsConstant() && b->IsConstant()) {
    auto folded =
        FoldBinary(ExprKindToOpcode(kind), width, a->constant_value(), b->constant_value());
    if (folded.has_value()) {
      return Constant(*folded, width);
    }
    // Trapping constant op: callers guard division/shift, so this indicates
    // a miscompile upstream.
    OVERIFY_UNREACHABLE("trapping constant operation reached expression builder");
  }

  if (IsCommutativeExpr(kind) && SwapForCanonicalOrder(a, b)) {
    std::swap(a, b);
  }

  // Identities.
  if (b->IsConstant()) {
    uint64_t c = b->constant_value();
    switch (kind) {
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kOr:
      case ExprKind::kXor:
      case ExprKind::kShl:
      case ExprKind::kLShr:
      case ExprKind::kAShr:
        if (c == 0) {
          return a;
        }
        break;
      case ExprKind::kMul:
        if (c == 0) {
          return Constant(0, width);
        }
        if (c == 1) {
          return a;
        }
        break;
      case ExprKind::kUDiv:
      case ExprKind::kSDiv:
        if (c == 1) {
          return a;
        }
        break;
      case ExprKind::kAnd:
        if (c == 0) {
          return Constant(0, width);
        }
        if (c == TruncateToWidth(~uint64_t{0}, width)) {
          return a;
        }
        break;
      default:
        break;
    }
  }
  if (a == b) {
    switch (kind) {
      case ExprKind::kSub:
      case ExprKind::kXor:
        return Constant(0, width);
      case ExprKind::kAnd:
      case ExprKind::kOr:
        return a;
      default:
        break;
    }
  }

  Key key{};
  key.kind = kind;
  key.width = width;
  key.a = a;
  key.b = b;
  return Intern(key);
}

const Expr* ExprContext::Compare(ICmpPredicate pred, const Expr* a, const Expr* b) {
  OVERIFY_ASSERT(a->width() == b->width(), "compare width mismatch");
  unsigned width = a->width();
  if (a->IsConstant() && b->IsConstant()) {
    return Bool(FoldICmp(pred, width, a->constant_value(), b->constant_value()));
  }
  if (a == b) {
    return Bool(FoldICmp(pred, width, 0, 0));
  }
  switch (pred) {
    case ICmpPredicate::kEq:
      break;
    case ICmpPredicate::kNe:
      return Not(Compare(ICmpPredicate::kEq, a, b));
    case ICmpPredicate::kULT:
    case ICmpPredicate::kULE:
    case ICmpPredicate::kSLT:
    case ICmpPredicate::kSLE:
      break;
    case ICmpPredicate::kUGT:
      return Compare(ICmpPredicate::kULT, b, a);
    case ICmpPredicate::kUGE:
      return Compare(ICmpPredicate::kULE, b, a);
    case ICmpPredicate::kSGT:
      return Compare(ICmpPredicate::kSLT, b, a);
    case ICmpPredicate::kSGE:
      return Compare(ICmpPredicate::kSLE, b, a);
  }

  // Narrowing: compare at the width the operands came from, so the core
  // search and the preprocessor see byte facts, not 32-bit ones. Exact
  // because an extension is injective and order-preserving: both zero
  // extensions are non-negative (ZExt always widens strictly), so signed
  // order is unsigned narrow order; sign extension keeps the signed value.
  const bool extensions = a->kind() == b->kind() &&
                          (a->kind() == ExprKind::kZExt || a->kind() == ExprKind::kSExt);
  if (extensions && a->a()->width() == b->a()->width()) {
    if (a->kind() == ExprKind::kZExt) {
      switch (pred) {
        case ICmpPredicate::kSLT:
          return Compare(ICmpPredicate::kULT, a->a(), b->a());
        case ICmpPredicate::kSLE:
          return Compare(ICmpPredicate::kULE, a->a(), b->a());
        default:
          return Compare(pred, a->a(), b->a());
      }
    }
    if (a->kind() == ExprKind::kSExt &&
        (pred == ICmpPredicate::kEq || pred == ICmpPredicate::kSLT ||
         pred == ICmpPredicate::kSLE)) {
      return Compare(pred, a->a(), b->a());
    }
  }
  // x - y == 0  <=>  x == y (modular subtraction is zero only on equality).
  if (pred == ICmpPredicate::kEq) {
    const Expr* diff = a->IsConstant() ? b : a;
    const Expr* zero = a->IsConstant() ? a : b;
    if (zero->IsConstant() && zero->constant_value() == 0 && diff->kind() == ExprKind::kSub) {
      return Compare(ICmpPredicate::kEq, diff->a(), diff->b());
    }
  }

  ExprKind kind;
  switch (pred) {
    case ICmpPredicate::kEq:
      kind = ExprKind::kEq;
      break;
    case ICmpPredicate::kULT:
      kind = ExprKind::kUlt;
      break;
    case ICmpPredicate::kULE:
      kind = ExprKind::kUle;
      break;
    case ICmpPredicate::kSLT:
      kind = ExprKind::kSlt;
      break;
    default:
      kind = ExprKind::kSle;
      break;
  }
  // Canonicalize equality operand order.
  if (kind == ExprKind::kEq && SwapForCanonicalOrder(a, b)) {
    std::swap(a, b);
  }
  Key key{};
  key.kind = kind;
  key.width = 1;
  key.a = a;
  key.b = b;
  return Intern(key);
}

const Expr* ExprContext::Not(const Expr* e) {
  OVERIFY_ASSERT(e->IsBool(), "Not on non-boolean");
  if (e->IsConstant()) {
    return Bool(e->constant_value() == 0);
  }
  // Not(Not(x)) => x  (Not is Xor(x, 1)).
  if (e->kind() == ExprKind::kXor && e->b()->IsTrue()) {
    return e->a();
  }
  // Negating a canonical comparison stays inside the canonical comparison
  // set: ¬(a < b) = b <= a and so on. Keeps solver-visible constraints
  // Xor-free, which is what lets the preprocessor's range extraction see
  // through branch negations.
  switch (e->kind()) {
    case ExprKind::kUlt:
      return Compare(ICmpPredicate::kULE, e->b(), e->a());
    case ExprKind::kUle:
      return Compare(ICmpPredicate::kULT, e->b(), e->a());
    case ExprKind::kSlt:
      return Compare(ICmpPredicate::kSLE, e->b(), e->a());
    case ExprKind::kSle:
      return Compare(ICmpPredicate::kSLT, e->b(), e->a());
    default:
      break;
  }
  return Binary(ExprKind::kXor, e, true_);
}

const Expr* ExprContext::Select(const Expr* cond, const Expr* a, const Expr* b) {
  OVERIFY_ASSERT(cond->IsBool(), "select condition must be boolean");
  OVERIFY_ASSERT(a->width() == b->width(), "select arm width mismatch");
  if (cond->IsConstant()) {
    return cond->constant_value() != 0 ? a : b;
  }
  if (a == b) {
    return a;
  }
  if (a->width() == 1 && a->IsTrue() && b->IsFalse()) {
    return cond;
  }
  if (a->width() == 1 && a->IsFalse() && b->IsTrue()) {
    return Not(cond);
  }
  Key key{};
  key.kind = ExprKind::kSelect;
  key.width = a->width();
  key.a = cond;
  key.b = a;
  key.c = b;
  return Intern(key);
}

const Expr* ExprContext::ZExt(const Expr* e, unsigned width) {
  OVERIFY_ASSERT(width >= e->width(), "zext must widen");
  if (width == e->width()) {
    return e;
  }
  if (e->IsConstant()) {
    return Constant(e->constant_value(), width);
  }
  if (e->kind() == ExprKind::kZExt) {
    return ZExt(e->a(), width);
  }
  Key key{};
  key.kind = ExprKind::kZExt;
  key.width = width;
  key.a = e;
  return Intern(key);
}

const Expr* ExprContext::SExt(const Expr* e, unsigned width) {
  OVERIFY_ASSERT(width >= e->width(), "sext must widen");
  if (width == e->width()) {
    return e;
  }
  if (e->IsConstant()) {
    return Constant(
        static_cast<uint64_t>(SignExtend(e->constant_value(), e->width())), width);
  }
  if (e->kind() == ExprKind::kSExt) {
    return SExt(e->a(), width);
  }
  // sext of a boolean-producing zext is still zero/one in the low bit.
  Key key{};
  key.kind = ExprKind::kSExt;
  key.width = width;
  key.a = e;
  return Intern(key);
}

const Expr* ExprContext::Trunc(const Expr* e, unsigned width) {
  OVERIFY_ASSERT(width <= e->width(), "trunc must narrow");
  if (width == e->width()) {
    return e;
  }
  return Extract(e, 0, width);
}

const Expr* ExprContext::Extract(const Expr* e, unsigned offset, unsigned width) {
  OVERIFY_ASSERT(offset + width <= e->width(), "extract out of range");
  if (offset == 0 && width == e->width()) {
    return e;
  }
  if (e->IsConstant()) {
    return Constant(e->constant_value() >> offset, width);
  }
  switch (e->kind()) {
    case ExprKind::kExtract:
      return Extract(e->a(), e->extract_offset() + offset, width);
    case ExprKind::kConcat: {
      unsigned low_width = e->b()->width();
      if (offset + width <= low_width) {
        return Extract(e->b(), offset, width);
      }
      if (offset >= low_width) {
        return Extract(e->a(), offset - low_width, width);
      }
      break;  // straddles the boundary: keep symbolic
    }
    case ExprKind::kZExt: {
      unsigned src_width = e->a()->width();
      if (offset + width <= src_width) {
        return Extract(e->a(), offset, width);
      }
      if (offset >= src_width) {
        return Constant(0, width);
      }
      break;
    }
    default:
      break;
  }
  Key key{};
  key.kind = ExprKind::kExtract;
  key.width = width;
  key.a = e;
  key.extract_offset = offset;
  return Intern(key);
}

const Expr* ExprContext::Concat(const Expr* high, const Expr* low) {
  unsigned width = high->width() + low->width();
  OVERIFY_ASSERT(width <= 64, "concat too wide");
  if (high->IsConstant() && low->IsConstant()) {
    return Constant((high->constant_value() << low->width()) | low->constant_value(), width);
  }
  // Concat(Extract(x, o+wl, wh), Extract(x, o, wl)) => Extract(x, o, wl+wh).
  if (high->kind() == ExprKind::kExtract && low->kind() == ExprKind::kExtract &&
      high->a() == low->a() &&
      high->extract_offset() == low->extract_offset() + low->width()) {
    return Extract(low->a(), low->extract_offset(), width);
  }
  // Concat(0, x) => ZExt(x).
  if (high->IsConstant() && high->constant_value() == 0) {
    return ZExt(low, width);
  }
  Key key{};
  key.kind = ExprKind::kConcat;
  key.width = width;
  key.a = high;
  key.b = low;
  return Intern(key);
}

const Expr* ExprContext::Rebuild(const Expr* src, const Expr* a, const Expr* b,
                                 const Expr* c) {
  switch (src->kind()) {
    case ExprKind::kConstant:
      return Constant(src->constant_value(), src->width());
    case ExprKind::kSymbol:
      return Symbol(src->symbol_index());
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kUDiv:
    case ExprKind::kSDiv:
    case ExprKind::kURem:
    case ExprKind::kSRem:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor:
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
      if (a->IsConstant() && b->IsConstant()) {
        auto folded = FoldBinary(ExprKindToOpcode(src->kind()), src->width(),
                                 a->constant_value(), b->constant_value());
        if (folded.has_value()) {
          return Constant(*folded, src->width());
        }
        // Trapping constant pair (division by zero, oversized shift):
        // Binary() treats this as a miscompile, but substitution can expose
        // it inside a guarded arm of a select or a contradictory set.
        // Intern the raw node; Evaluate defines its value as 0.
        Key key{};
        key.kind = src->kind();
        key.width = src->width();
        key.a = a;
        key.b = b;
        return Intern(key);
      }
      return Binary(src->kind(), a, b);
    case ExprKind::kEq:
      return Compare(ICmpPredicate::kEq, a, b);
    case ExprKind::kUlt:
      return Compare(ICmpPredicate::kULT, a, b);
    case ExprKind::kUle:
      return Compare(ICmpPredicate::kULE, a, b);
    case ExprKind::kSlt:
      return Compare(ICmpPredicate::kSLT, a, b);
    case ExprKind::kSle:
      return Compare(ICmpPredicate::kSLE, a, b);
    case ExprKind::kSelect:
      return Select(a, b, c);
    case ExprKind::kZExt:
      return ZExt(a, src->width());
    case ExprKind::kSExt:
      return SExt(a, src->width());
    case ExprKind::kTrunc:
      return Trunc(a, src->width());
    case ExprKind::kExtract:
      return Extract(a, src->extract_offset(), src->width());
    case ExprKind::kConcat:
      return Concat(a, b);
  }
  OVERIFY_UNREACHABLE("unhandled kind in Rebuild");
}

const Expr* ExprContext::Substitute(const Expr* e, const std::vector<int16_t>& binding,
                                    const SupportSet& bound) {
  if (!e->Support().Intersects(bound)) {
    return e;
  }
  // Iterative post-order over the affected subgraph only: subtrees disjoint
  // from `bound` pass through untouched (and are never walked).
  std::unordered_map<const Expr*, const Expr*>& memo = subst_memo_;
  memo.clear();
  std::vector<const Expr*>& stack = subst_stack_;
  stack.assign(1, e);
  while (!stack.empty()) {
    const Expr* cur = stack.back();
    if (memo.count(cur) != 0) {
      stack.pop_back();
      continue;
    }
    if (cur->kind() == ExprKind::kSymbol) {
      unsigned index = cur->symbol_index();
      OVERIFY_ASSERT(index < binding.size() && binding[index] >= 0,
                     "bound symbol without a binding");
      memo[cur] = Constant(static_cast<uint64_t>(binding[index]), 8);
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const Expr* child : {cur->a(), cur->b(), cur->c()}) {
      if (child != nullptr && child->Support().Intersects(bound) &&
          memo.count(child) == 0) {
        stack.push_back(child);
        ready = false;
      }
    }
    if (!ready) {
      continue;
    }
    auto resolve = [&](const Expr* child) -> const Expr* {
      if (child == nullptr || !child->Support().Intersects(bound)) {
        return child;
      }
      return memo.at(child);
    };
    memo[cur] = Rebuild(cur, resolve(cur->a()), resolve(cur->b()), resolve(cur->c()));
    stack.pop_back();
  }
  return memo.at(e);
}

unsigned ExprContext::ToBytes(const Expr* e, const Expr* out[kMaxBytes]) {
  OVERIFY_ASSERT(e->width() % 8 == 0 || e->width() == 1, "unaligned width");
  if (e->width() == 1) {
    // Booleans are stored as one byte holding 0/1.
    out[0] = ZExt(e, 8);
    return 1;
  }
  unsigned count = 0;
  for (unsigned offset = 0; offset < e->width(); offset += 8) {
    out[count++] = Extract(e, offset, 8);
  }
  return count;
}

const Expr* ExprContext::FromBytes(const Expr* const* bytes, unsigned count) {
  OVERIFY_ASSERT(count >= 1 && count <= kMaxBytes, "bad byte count");
  // All-constant bytes (concrete memory) assemble as an integer: one
  // Constant instead of a folded Concat per byte.
  uint64_t folded = 0;
  unsigned width = 0;
  unsigned constant_bytes = 0;
  for (; constant_bytes < count && bytes[constant_bytes]->IsConstant(); ++constant_bytes) {
    folded |= bytes[constant_bytes]->constant_value() << width;
    width += bytes[constant_bytes]->width();
  }
  if (constant_bytes == count) {
    return count == 1 ? bytes[0] : Constant(folded, width);
  }
  const Expr* value = bytes[0];
  for (unsigned i = 1; i < count; ++i) {
    value = Concat(bytes[i], value);
  }
  return value;
}

uint64_t ExprContext::Evaluate(const Expr* e, const std::vector<uint8_t>& bytes) {
  return shared_memos_ ? EvaluateImpl<true>(e, bytes) : EvaluateImpl<false>(e, bytes);
}

template <bool kSharedMemos>
uint64_t ExprContext::EvaluateImpl(const Expr* e, const std::vector<uint8_t>& bytes) {
  // Leaves bypass the memo entirely: constants never change and symbols are
  // a direct array read.
  if (e->kind_ == ExprKind::kConstant) {
    return e->constant_;
  }
  if (e->kind_ == ExprKind::kSymbol) {
    OVERIFY_ASSERT(e->symbol_ < bytes.size(), "assignment missing symbol");
    return bytes[e->symbol_];
  }
  if (!kSharedMemos) {
    if (e->eval_gen_ == eval_generation_) {
      ++eval_memo_hits_;
      return e->eval_value_;
    }
  } else {
    EvalSlot& slot = SlotFor(eval_memo_, e);
    if (slot.gen == eval_generation_) {
      ++eval_memo_hits_;
      return slot.value;
    }
  }
  uint64_t result = 0;
  switch (e->kind()) {
    case ExprKind::kConstant:
    case ExprKind::kSymbol:
      OVERIFY_UNREACHABLE("leaves handled above");
      break;
    case ExprKind::kEq:
      result = EvaluateImpl<kSharedMemos>(e->a(), bytes) == EvaluateImpl<kSharedMemos>(e->b(), bytes) ? 1 : 0;
      break;
    case ExprKind::kUlt:
      result = FoldICmp(ICmpPredicate::kULT, e->a()->width(), EvaluateImpl<kSharedMemos>(e->a(), bytes),
                        EvaluateImpl<kSharedMemos>(e->b(), bytes))
                   ? 1
                   : 0;
      break;
    case ExprKind::kUle:
      result = FoldICmp(ICmpPredicate::kULE, e->a()->width(), EvaluateImpl<kSharedMemos>(e->a(), bytes),
                        EvaluateImpl<kSharedMemos>(e->b(), bytes))
                   ? 1
                   : 0;
      break;
    case ExprKind::kSlt:
      result = FoldICmp(ICmpPredicate::kSLT, e->a()->width(), EvaluateImpl<kSharedMemos>(e->a(), bytes),
                        EvaluateImpl<kSharedMemos>(e->b(), bytes))
                   ? 1
                   : 0;
      break;
    case ExprKind::kSle:
      result = FoldICmp(ICmpPredicate::kSLE, e->a()->width(), EvaluateImpl<kSharedMemos>(e->a(), bytes),
                        EvaluateImpl<kSharedMemos>(e->b(), bytes))
                   ? 1
                   : 0;
      break;
    case ExprKind::kSelect:
      result = EvaluateImpl<kSharedMemos>(e->a(), bytes) != 0 ? EvaluateImpl<kSharedMemos>(e->b(), bytes) : EvaluateImpl<kSharedMemos>(e->c(), bytes);
      break;
    case ExprKind::kZExt:
      result = EvaluateImpl<kSharedMemos>(e->a(), bytes);
      break;
    case ExprKind::kSExt:
      result = TruncateToWidth(
          static_cast<uint64_t>(SignExtend(EvaluateImpl<kSharedMemos>(e->a(), bytes), e->a()->width())),
          e->width());
      break;
    case ExprKind::kTrunc:
      result = TruncateToWidth(EvaluateImpl<kSharedMemos>(e->a(), bytes), e->width());
      break;
    case ExprKind::kExtract:
      result = TruncateToWidth(EvaluateImpl<kSharedMemos>(e->a(), bytes) >> e->extract_offset(), e->width());
      break;
    case ExprKind::kConcat:
      result = (EvaluateImpl<kSharedMemos>(e->a(), bytes) << e->b()->width()) | EvaluateImpl<kSharedMemos>(e->b(), bytes);
      break;
    default: {
      // Binary arithmetic. Division by zero cannot occur on guarded paths;
      // solver probing may still hit it, in which case the result is defined
      // as 0 (such probes are validated against the real constraints anyway).
      auto folded = FoldBinary(ExprKindToOpcode(e->kind()), e->width(),
                               EvaluateImpl<kSharedMemos>(e->a(), bytes), EvaluateImpl<kSharedMemos>(e->b(), bytes));
      result = folded.value_or(0);
      break;
    }
  }
  if (!kSharedMemos) {
    e->eval_gen_ = eval_generation_;
    e->eval_value_ = result;
  } else {
    // Re-acquire the slot: the recursive child evaluations above may have
    // grown the table and invalidated any reference taken before them.
    EvalSlot& slot = SlotFor(eval_memo_, e);
    slot.gen = eval_generation_;
    slot.value = result;
  }
  return result;
}

namespace {

// Clamp an interval to a width's value range; any inconsistency widens to
// full range (soundness first).
ExprContext::UInterval FullRange(unsigned width) {
  return ExprContext::UInterval{0, TruncateToWidth(~uint64_t{0}, width)};
}

bool AddOverflowsU(uint64_t a, uint64_t b, uint64_t& out) {
  return __builtin_add_overflow(a, b, &out);
}

bool MulOverflowsU(uint64_t a, uint64_t b, uint64_t& out) {
  return __builtin_mul_overflow(a, b, &out);
}

}  // namespace

template <bool kSharedMemos, typename SymFn>
UInterval ExprContext::EvalIntervalWith(const Expr* e, const SymFn& sym) {
  if (e->kind() == ExprKind::kConstant) {
    return UInterval{e->constant_value(), e->constant_value()};
  }
  if (!kSharedMemos) {
    if (e->interval_gen_ == interval_generation_) {
      ++interval_memo_hits_;
      return e->interval_value_;
    }
  } else {
    IntervalSlot& slot = SlotFor(interval_memo_, e);
    if (slot.gen == interval_generation_) {
      ++interval_memo_hits_;
      return slot.value;
    }
  }
  unsigned width = e->width();
  UInterval result = FullRange(width);
  switch (e->kind()) {
    case ExprKind::kConstant:
      result = UInterval{e->constant_value(), e->constant_value()};
      break;
    case ExprKind::kSymbol:
      result = sym(e->symbol_index());
      break;
    case ExprKind::kAdd: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      uint64_t lo;
      uint64_t hi;
      if (!AddOverflowsU(a.lo, b.lo, lo) && !AddOverflowsU(a.hi, b.hi, hi) &&
          hi <= FullRange(width).hi) {
        result = UInterval{lo, hi};
      }
      break;
    }
    case ExprKind::kSub: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      if (a.lo >= b.hi) {  // no wraparound possible
        result = UInterval{a.lo - b.hi, a.hi - b.lo};
      }
      break;
    }
    case ExprKind::kMul: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      uint64_t lo;
      uint64_t hi;
      if (!MulOverflowsU(a.lo, b.lo, lo) && !MulOverflowsU(a.hi, b.hi, hi) &&
          hi <= FullRange(width).hi) {
        result = UInterval{lo, hi};
      }
      break;
    }
    case ExprKind::kUDiv: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      if (b.lo > 0) {
        result = UInterval{a.lo / b.hi, a.hi / b.lo};
      }
      break;
    }
    case ExprKind::kURem: {
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      if (b.hi > 0) {
        result = UInterval{0, b.hi - 1};
      }
      break;
    }
    case ExprKind::kAnd: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      result = UInterval{0, std::min(a.hi, b.hi)};
      if (a.IsSingleton() && b.IsSingleton()) {
        uint64_t v = a.lo & b.lo;
        result = UInterval{v, v};
      }
      break;
    }
    case ExprKind::kOr: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      if (a.IsSingleton() && b.IsSingleton()) {
        uint64_t v = a.lo | b.lo;
        result = UInterval{v, v};
      } else {
        // a|b >= max(a,b) >= max(lo_a, lo_b); a|b < 2^ceil covering both his.
        uint64_t bound = 1;
        while (bound - 1 < a.hi || bound - 1 < b.hi) {
          if (bound > (uint64_t{1} << 62)) {
            bound = 0;
            break;
          }
          bound <<= 1;
        }
        result = UInterval{std::max(a.lo, b.lo),
                           bound == 0 ? FullRange(width).hi : bound - 1};
      }
      break;
    }
    case ExprKind::kXor: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      if (a.IsSingleton() && b.IsSingleton()) {
        uint64_t v = a.lo ^ b.lo;
        result = UInterval{v, v};
      }
      break;
    }
    case ExprKind::kEq: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      if (a.hi < b.lo || b.hi < a.lo) {
        result = UInterval{0, 0};  // disjoint: never equal
      } else if (a.IsSingleton() && b.IsSingleton()) {
        uint64_t v = a.lo == b.lo ? 1 : 0;
        result = UInterval{v, v};
      } else {
        result = UInterval{0, 1};
      }
      break;
    }
    case ExprKind::kUlt: {
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
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
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
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
      // Signed: decide only when both operand intervals avoid the sign
      // boundary of the operand width, where signed order equals unsigned.
      unsigned operand_width = e->a()->width();
      uint64_t sign_bit = uint64_t{1} << (operand_width - 1);
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval b = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      bool a_nonneg = a.hi < sign_bit;
      bool b_nonneg = b.hi < sign_bit;
      bool a_neg = a.lo >= sign_bit;
      bool b_neg = b.lo >= sign_bit;
      result = UInterval{0, 1};
      if (a_neg && b_nonneg) {
        result = UInterval{1, 1};  // negative < non-negative
      } else if (a_nonneg && b_neg) {
        result = UInterval{0, 0};
      } else if ((a_nonneg && b_nonneg) || (a_neg && b_neg)) {
        // Same sign region: unsigned order applies.
        bool strict = e->kind() == ExprKind::kSlt;
        if (strict ? a.hi < b.lo : a.hi <= b.lo) {
          result = UInterval{1, 1};
        } else if (strict ? a.lo >= b.hi : a.lo > b.hi) {
          result = UInterval{0, 0};
        }
      }
      break;
    }
    case ExprKind::kSelect: {
      UInterval cond = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      if (cond.IsSingleton()) {
        result = EvalIntervalWith<kSharedMemos>(cond.lo != 0 ? e->b() : e->c(), sym);
      } else {
        UInterval t = EvalIntervalWith<kSharedMemos>(e->b(), sym);
        UInterval f = EvalIntervalWith<kSharedMemos>(e->c(), sym);
        result = UInterval{std::min(t.lo, f.lo), std::max(t.hi, f.hi)};
      }
      break;
    }
    case ExprKind::kZExt:
      result = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      break;
    case ExprKind::kSExt: {
      unsigned src_width = e->a()->width();
      UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      if (a.hi < (uint64_t{1} << (src_width - 1))) {
        result = a;  // non-negative: sign extension is the identity
      }
      break;
    }
    case ExprKind::kTrunc:
    case ExprKind::kExtract: {
      if (e->kind() == ExprKind::kTrunc || e->extract_offset() == 0) {
        UInterval a = EvalIntervalWith<kSharedMemos>(e->a(), sym);
        if (a.hi <= FullRange(width).hi) {
          result = a;  // value fits: low bits are the value itself
        }
      }
      break;
    }
    case ExprKind::kConcat: {
      UInterval high = EvalIntervalWith<kSharedMemos>(e->a(), sym);
      UInterval low = EvalIntervalWith<kSharedMemos>(e->b(), sym);
      unsigned low_width = e->b()->width();
      result = UInterval{(high.lo << low_width) | low.lo, (high.hi << low_width) | low.hi};
      break;
    }
    default:
      break;  // divisions by symbolic values, shifts, srem: full range
  }
  if (!kSharedMemos) {
    e->interval_gen_ = interval_generation_;
    e->interval_value_ = result;
  } else {
    // Re-acquire: the recursive child walks may have grown the table.
    IntervalSlot& slot = SlotFor(interval_memo_, e);
    slot.gen = interval_generation_;
    slot.value = result;
  }
  return result;
}

ExprContext::UInterval ExprContext::EvalInterval(const Expr* e,
                                                 const std::vector<uint8_t>& bytes,
                                                 const std::vector<bool>& assigned) {
  auto sym = [&](unsigned index) {
    if (index < assigned.size() && assigned[index]) {
      return UInterval{bytes[index], bytes[index]};
    }
    return UInterval{0, 255};
  };
  return shared_memos_ ? EvalIntervalWith<true>(e, sym) : EvalIntervalWith<false>(e, sym);
}

ExprContext::UInterval ExprContext::EvalIntervalRanges(const Expr* e,
                                                       const std::vector<UInterval>& ranges) {
  auto sym = [&](unsigned index) {
    return index < ranges.size() ? ranges[index] : UInterval{0, 255};
  };
  return shared_memos_ ? EvalIntervalWith<true>(e, sym) : EvalIntervalWith<false>(e, sym);
}

}  // namespace overify
