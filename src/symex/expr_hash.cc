#include "src/symex/expr_hash.h"

#include <algorithm>

namespace overify {

namespace {

// Walk tags outside the ExprKind value range: a repeat visit of a shared
// subtree folds kRefTag + the subtree's first-visit ordinal, and the
// symbol-index table appended after the walk opens with kTableTag. Both are
// part of the serialized hash definition — changing them (or anything else
// in this file) invalidates persisted stores and requires a
// kCacheStoreVersion bump (src/cache/persist.h).
constexpr uint8_t kRefTag = 0xFF;
constexpr uint8_t kTableTag = 0xFE;

}  // namespace

// One constraint's walk: depth-first (a, b, c), symbols numbered by first
// occurrence, shared subtrees by first-visit ordinal. Recursive like the
// engine's evaluators — constraint DAGs are depth-bounded by the workloads'
// expression-building patterns, not by path length.
void PortableHashCache::Walk(const Expr* e, PortableHasher& hasher) {
  Slot& slot = SlotOf(e);
  if (slot.walk == walk_) {
    hasher.Fold(kRefTag);
    hasher.Fold(slot.ordinal);
    return;
  }
  slot.walk = walk_;
  slot.ordinal = ordinals_++;
  hasher.Fold(static_cast<uint8_t>(e->kind()));
  hasher.Fold(static_cast<uint8_t>(e->width()));
  switch (e->kind()) {
    case ExprKind::kConstant:
      hasher.Fold(e->constant_value());
      return;
    case ExprKind::kSymbol: {
      const unsigned index = e->symbol_index();
      if (index >= symbols_.size()) {
        symbols_.resize(index + 1);
      }
      SymbolSlot& sym = symbols_[index];
      if (sym.walk != walk_) {
        sym.walk = walk_;
        sym.number = static_cast<uint32_t>(symbol_table_.size());
        symbol_table_.push_back(index);
      }
      hasher.Fold(sym.number);
      return;
    }
    case ExprKind::kExtract:
      hasher.Fold(static_cast<uint32_t>(e->extract_offset()));
      break;
    default:
      break;
  }
  // Arity is determined by the kind (already folded), so child folds need
  // no per-slot separators.
  for (const Expr* child : {e->a(), e->b(), e->c()}) {
    if (child != nullptr) {
      Walk(child, hasher);
    }
  }
}

PortableHashCache::Slot& PortableHashCache::SlotOf(const Expr* e) {
  const size_t id = static_cast<size_t>(e->id());
  if (id >= slots_.size()) {
    // Grow past the id like the contexts' eval memos: amortized by the
    // interner's dense id allocation.
    slots_.resize(std::max(id + 1, slots_.size() + slots_.size() / 2));
  }
  return slots_[id];
}

uint64_t PortableExprHash(const Expr* root) {
  PortableHashCache cache;
  return cache.Hash(root);
}

uint64_t PortableHashCache::Hash(const Expr* root) {
  if (const Slot& slot = SlotOf(root); slot.hashed) {
    return slot.hash;
  }
  if (++walk_ == 0) {
    // Stamp wrap: forget every stamp rather than trust a recycled one.
    for (Slot& slot : slots_) {
      slot.walk = 0;
    }
    for (SymbolSlot& sym : symbols_) {
      sym.walk = 0;
    }
    walk_ = 1;
  }
  ordinals_ = 0;
  symbol_table_.clear();
  PortableHasher hasher;
  Walk(root, hasher);
  hasher.Fold(kTableTag);
  hasher.Fold(static_cast<uint32_t>(symbol_table_.size()));
  for (uint32_t sym : symbol_table_) {
    hasher.Fold(sym);
  }
  // The walk may have grown slots_: look the root's slot up afresh.
  Slot& slot = SlotOf(root);
  slot.hash = hasher.hash();
  slot.hashed = true;
  return slot.hash;
}

uint64_t PortableSetFingerprint(const std::vector<const Expr*>& canonical,
                                PortableHashCache& cache) {
  PortableHasher hasher;
  hasher.Fold(static_cast<uint64_t>(canonical.size()));
  for (const Expr* c : canonical) {
    hasher.Fold(cache.Hash(c));
  }
  return hasher.hash();
}

}  // namespace overify
