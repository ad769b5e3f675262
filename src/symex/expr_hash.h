// Portable, machine- and run-stable content hashing for Exprs and
// constraint sets.
//
// The interner's structural hashes (Expr::hash()) are stable across runs —
// they fold only kinds, widths, constants, symbol indices and child hashes —
// but they are 64-bit *per-node* values folded in canonical order, and the
// counterexample cache's independent confirmation fingerprint historically
// folded Expr::id(): the interner's dense creation index, which depends on
// the order a run happened to build expressions in. Identical constraint
// sets from different processes therefore confirmed under different
// fingerprints, and cross-run cache reuse was silently impossible. This
// header is the fix: a content hash that is a pure function of expression
// structure, defined byte-for-byte so two independent processes (or
// machines, or interners that created the same expressions in opposite
// orders) agree bit-for-bit (docs/daemon.md#content-hashing).
//
// The scheme is De Bruijn-style: a canonically ordered depth-first walk
// (a, b, c) numbers symbols by first occurrence and shared subtrees by walk
// ordinal, then folds the numbering-to-actual-symbol-index table at the
// end. The walk body is thus alpha-independent — two expressions that
// differ only in which input byte plays each role share it — while the
// appended table keeps the final hash faithful to the actual byte
// positions, which models are specific to. Hash-consing guarantees
// structurally identical sets present isomorphic DAGs with identical
// sharing, so the ordinal-numbered walk is deterministic.
//
// Portability is classified at compile time: PortableHasher accepts only
// explicitly fixed-width unsigned integers. Pointers (memory layout),
// bool, enums, and host-width or signed integers — everything whose value
// or width can differ between runs or machines — select a deleted overload.
// Expr::id() shares a type with legitimate 64-bit constants and cannot be
// rejected by type alone; it is excluded by construction, since the walk
// only ever folds the fields that define structural identity
// (ExprInterner::Key's field set).
#pragma once

#include <cstdint>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

// Order-sensitive 64-bit sponge over portable values only.
class PortableHasher {
 public:
  // Fixed-width unsigned integers are the only inputs classified portable.
  void Fold(uint8_t v) { Mix(v); }
  void Fold(uint16_t v) { Mix(v); }
  void Fold(uint32_t v) { Mix(v); }
  void Fold(uint64_t v) { Mix(v); }

  // Everything else is classified non-portable and rejected at compile
  // time: pointers and creation-order ids leak memory layout, bool invites
  // silent promotions, and signed or host-width integers (int, long,
  // size_t spellings, enums) have ABI-dependent width or representation.
  // Cast explicitly to a uint*_t to assert a serialized width.
  template <typename T>
  void Fold(T) = delete;

  uint64_t hash() const { return h_; }

 private:
  void Mix(uint64_t v) { h_ = HashMix64(h_ ^ v); }

  // Arbitrary non-zero seed so an empty fold is distinguishable from a
  // fold of zero.
  uint64_t h_ = 0xc2b2ae3d27d4eb4fULL;
};

// The portable content hash of one expression (typically a constraint
// root). A pure function of the expression's structure and its
// symbol-index table — identical across processes, machines, and interner
// creation orders. Stand-alone form; allocates its walk state per call.
uint64_t PortableExprHash(const Expr* root);

// Memo for per-root portable hashes, indexed by the Expr's dense id.
// Expressions are immutable and interners never delete nodes, so a
// computed hash is valid for the lifetime of the interner; the table grows
// lazily like the contexts' eval memos. One cache per interner-coherent
// user (the SolverChain keeps one): ids from different interners collide.
// The walk's tables (ordinal by Expr id, De Bruijn number by symbol index)
// live here too, stamped per walk, so a miss allocates nothing once warm.
class PortableHashCache {
 public:
  uint64_t Hash(const Expr* root);

 private:
  struct Slot {
    uint64_t hash = 0;
    bool hashed = false;
    uint32_t walk = 0;     // the walk that last numbered this node...
    uint32_t ordinal = 0;  // ...and its first-visit ordinal there
  };
  struct SymbolSlot {
    uint32_t walk = 0;
    uint32_t number = 0;  // De Bruijn number in that walk
  };

  Slot& SlotOf(const Expr* e);
  void Walk(const Expr* e, PortableHasher& hasher);

  std::vector<Slot> slots_;  // by Expr::id()
  std::vector<SymbolSlot> symbols_;  // by symbol index
  std::vector<uint32_t> symbol_table_;  // De Bruijn number -> symbol index
  uint32_t walk_ = 0;
  uint32_t ordinals_ = 0;  // nodes numbered by the running walk
};

// The portable fingerprint of a canonically ordered constraint set: folds
// the set size and each constraint's portable hash in order. The canonical
// order (ascending structural hash) is itself run-stable, so the fold is
// too. This is the counterexample cache's confirmation fingerprint — the
// value that makes `(set_hash, fingerprint)` a 128-bit cross-run identity.
uint64_t PortableSetFingerprint(const std::vector<const Expr*>& canonical,
                                PortableHashCache& cache);

}  // namespace overify
