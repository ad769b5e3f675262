// Symbolic expressions for the verification engine.
//
// Expressions form a hash-consed immutable DAG owned by an ExprInterner;
// structural equality is pointer equality. An ExprContext is one worker's
// view of an interner — it carries the canonicalizing builders (KLEE's
// ExprBuilder plays the same role), using the same fold kernel as the
// optimizer and the concrete interpreter so all three agree bit-for-bit,
// plus the worker-private evaluation caches.
//
// The interner is sharded and lock-striped: expressions are distributed
// over independent open-addressing tables by the top bits of their
// structural hash, and each shard has its own mutex. A private interner
// (the default, one per single-threaded context) skips the locks entirely;
// a shared interner lets every scheduler worker intern into the same DAG so
// stolen states need no cross-context translation (docs/scheduler.md).
//
// Engine-speed invariants (see docs/engine.md):
//  - every Expr stores its structural hash, computed once at intern time;
//    each interner shard is an open-addressing table probed by that hash.
//  - the support set is a 64-bit symbol bitmask (the paper's workloads use
//    2-10 symbolic bytes) with a sorted overflow vector for symbols >= 64.
//  - eval/interval memoization lives in generation-stamped slots indexed by
//    the Expr's dense id, owned by each ExprContext (worker-private, so
//    memoizing over a shared DAG never takes a lock or races): O(1), one
//    flat array per worker, no unbounded growth.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/ir/instruction.h"

namespace overify {

enum class ExprKind : uint8_t {
  kConstant,
  kSymbol,  // one 8-bit symbolic input byte, identified by index
  // Binary arithmetic/bitwise (operand widths equal; result same width).
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kURem,
  kSRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  // Comparisons (result width 1). The canonical set: others are expressed
  // via operand swap / negation at build time.
  kEq,
  kUlt,
  kUle,
  kSlt,
  kSle,
  kSelect,   // (cond width 1, a, b)
  kZExt,
  kSExt,
  kTrunc,
  kExtract,  // bits [offset, offset+width) of the operand
  kConcat,   // a is the high part, b the low part; width = a.width + b.width
};

// splitmix64 finalizer: cheap, well-distributed 64-bit mixing. Shared by the
// expression interner and the solver's constraint-set hashing so both fold
// the same structural hashes consistently.
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Unsigned interval abstraction (see ExprContext::EvalInterval).
struct UInterval {
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};
  bool IsSingleton() const { return lo == hi; }
};

// The set of symbol indices an expression depends on. Symbols below 64 live
// in one bitmask word; larger indices (rare — the workloads use 2-10 bytes)
// go to a sorted overflow vector. Set algebra on the common case is one or
// two bitwise instructions.
class SupportSet {
 public:
  SupportSet() = default;

  bool Empty() const { return mask_ == 0 && overflow_.empty(); }

  size_t Size() const {
    return static_cast<size_t>(__builtin_popcountll(mask_)) + overflow_.size();
  }

  bool Contains(unsigned sym) const {
    if (sym < 64) {
      return ((mask_ >> sym) & 1) != 0;
    }
    return std::binary_search(overflow_.begin(), overflow_.end(), sym);
  }

  bool Intersects(const SupportSet& other) const {
    if ((mask_ & other.mask_) != 0) {
      return true;
    }
    if (overflow_.empty() || other.overflow_.empty()) {
      return false;
    }
    auto a = overflow_.begin();
    auto b = other.overflow_.begin();
    while (a != overflow_.end() && b != other.overflow_.end()) {
      if (*a == *b) {
        return true;
      }
      if (*a < *b) {
        ++a;
      } else {
        ++b;
      }
    }
    return false;
  }

  void Add(unsigned sym) {
    if (sym < 64) {
      mask_ |= uint64_t{1} << sym;
      return;
    }
    auto it = std::lower_bound(overflow_.begin(), overflow_.end(), sym);
    if (it == overflow_.end() || *it != sym) {
      overflow_.insert(it, sym);
    }
  }

  void UnionWith(const SupportSet& other) {
    mask_ |= other.mask_;
    if (!other.overflow_.empty()) {
      std::vector<unsigned> merged;
      merged.reserve(overflow_.size() + other.overflow_.size());
      std::set_union(overflow_.begin(), overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end(), std::back_inserter(merged));
      overflow_ = std::move(merged);
    }
  }

  // Largest symbol index; requires !Empty().
  unsigned MaxSymbol() const {
    if (!overflow_.empty()) {
      return overflow_.back();
    }
    return 63 - static_cast<unsigned>(__builtin_clzll(mask_));
  }

  // Visits symbols in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    uint64_t m = mask_;
    while (m != 0) {
      fn(static_cast<unsigned>(__builtin_ctzll(m)));
      m &= m - 1;
    }
    for (unsigned sym : overflow_) {
      fn(sym);
    }
  }

  std::set<unsigned> ToSet() const {
    std::set<unsigned> out;
    ForEach([&](unsigned sym) { out.insert(sym); });
    return out;
  }

  uint64_t mask() const { return mask_; }
  const std::vector<unsigned>& overflow() const { return overflow_; }

  bool operator==(const SupportSet& other) const {
    return mask_ == other.mask_ && overflow_ == other.overflow_;
  }
  bool operator!=(const SupportSet& other) const { return !(*this == other); }

 private:
  uint64_t mask_ = 0;
  std::vector<unsigned> overflow_;  // sorted, unique, indices >= 64
};

class Expr {
 public:
  ExprKind kind() const { return kind_; }
  unsigned width() const { return width_; }
  bool IsConstant() const { return kind_ == ExprKind::kConstant; }
  bool IsBool() const { return width_ == 1; }

  uint64_t constant_value() const {
    OVERIFY_ASSERT(kind_ == ExprKind::kConstant, "not a constant");
    return constant_;
  }
  bool IsTrue() const { return IsConstant() && width_ == 1 && constant_ == 1; }
  bool IsFalse() const { return IsConstant() && width_ == 1 && constant_ == 0; }

  unsigned symbol_index() const {
    OVERIFY_ASSERT(kind_ == ExprKind::kSymbol, "not a symbol");
    return symbol_;
  }

  const Expr* a() const { return a_; }
  const Expr* b() const { return b_; }
  const Expr* c() const { return c_; }
  unsigned extract_offset() const { return extract_offset_; }

  // Dense creation index, unique within an interner; children always carry
  // smaller indices than their parents (they are interned first). Keys the
  // per-context eval/interval memo tables and breaks the (vanishingly rare)
  // structural-hash tie in canonical operand ordering.
  uint64_t id() const { return id_; }

  // Structural hash, fixed at intern time. Hash-consing makes it canonical
  // per interner: equal hashes for structurally equal expressions.
  uint64_t hash() const { return hash_; }

  // The set of symbol indices this expression depends on.
  const SupportSet& Support() const { return support_; }

 private:
  friend class ExprInterner;
  friend class ExprContext;
  Expr() = default;

  ExprKind kind_ = ExprKind::kConstant;
  uint8_t width_ = 1;
  uint64_t constant_ = 0;
  unsigned symbol_ = 0;
  const Expr* a_ = nullptr;
  const Expr* b_ = nullptr;
  const Expr* c_ = nullptr;
  unsigned extract_offset_ = 0;
  uint64_t id_ = 0;
  uint64_t hash_ = 0;
  SupportSet support_;

  // Generation-stamped inline memo slots for Evaluate / EvalInterval.
  // Used ONLY by a context that privately owns this node's interner (the
  // single-threaded configuration): with one owner they are exactly the
  // old zero-indirection fast path. Contexts attached to a *shared*
  // interner never touch these — concurrent workers would race — and
  // memoize into their own id-indexed tables instead (see ExprContext).
  mutable uint64_t eval_gen_ = 0;
  mutable uint64_t eval_value_ = 0;
  mutable uint64_t interval_gen_ = 0;
  mutable UInterval interval_value_;
};

// Owns and hash-conses expressions: sharded open-addressing tables keyed by
// structural hash, one mutex per shard (lock striping). Expressions are
// immutable after interning and owned by stable unique_ptrs, so readers
// never need a lock — only Intern serializes, and only within one shard.
//
// A private interner (concurrent == false, the ExprContext default) elides
// the locks entirely and matches the old single-table perf; the scheduler
// builds one concurrent interner per multi-worker run and hands every
// worker's ExprContext a reference, which is what lets stolen states run on
// any worker as-is (docs/scheduler.md).
class ExprInterner {
 public:
  // The structural identity of one node; what the tables are keyed by.
  struct Key {
    ExprKind kind = ExprKind::kConstant;
    unsigned width = 1;
    uint64_t constant = 0;
    unsigned symbol = 0;
    const Expr* a = nullptr;
    const Expr* b = nullptr;
    const Expr* c = nullptr;
    unsigned extract_offset = 0;
  };

  explicit ExprInterner(bool concurrent = false);
  ExprInterner(const ExprInterner&) = delete;
  ExprInterner& operator=(const ExprInterner&) = delete;

  // Returns the canonical node for `key`, creating it if absent. Takes the
  // owning shard's lock iff the interner is concurrent.
  const Expr* Intern(const Key& key);
  // Same, with the key's hash (HashKey) already computed by the caller —
  // the contexts' local-cache fast path hashes first to probe its cache and
  // must not pay for it twice.
  const Expr* InternHashed(const Key& key, uint64_t hash);

  // Total interned expressions (sums the shards; takes the shard locks when
  // concurrent, so the count is exact).
  size_t NumExprs() const;

  // True iff `e` is one of this interner's nodes — the steal-validation
  // walk's primitive (src/sched/worker_pool.cc). Probes only e's home shard.
  bool Owns(const Expr* e) const;

  bool concurrent() const { return concurrent_; }

  // Process-unique, never 0: tells caches keyed by Expr pointers (which are
  // unique only within one interner) which interner their keys belong to.
  uint64_t serial() const { return serial_; }

  static uint64_t HashKey(const Key& key);

 private:
  friend class ExprContext;

  // A concurrent interner uses 16 stripes: enough that 8 workers rarely
  // collide, few enough that per-shard tables stay warm. A private one
  // collapses to a single shard — the old flat-table layout, with no
  // per-construction cost for stripes that would never contend. Shards are
  // selected by the hash's top bits so the choice is independent of the
  // in-shard probe sequence (low bits).
  static constexpr size_t kConcurrentShards = 16;

  struct Shard {
    std::mutex mutex;
    std::vector<std::unique_ptr<Expr>> exprs;
    // Open-addressing: power-of-two table of borrowed pointers, linear
    // probing, no deletions (expressions live as long as the interner).
    std::vector<Expr*> table;
    size_t mask = 0;
  };

  static bool Matches(const Expr& e, const Key& key);
  static void GrowTable(Shard& shard);

  Shard& ShardFor(uint64_t hash) const { return shards_[(hash >> 60) & shard_mask_]; }

  // unique_ptr<Shard[]>: shards hold a mutex (immovable), and the count is
  // fixed at construction. Mutexes are taken from const readers (NumExprs,
  // Owns) when the interner is concurrent.
  std::unique_ptr<Shard[]> shards_;
  size_t shard_mask_ = 0;  // shard count - 1
  std::atomic<uint64_t> next_id_{0};
  bool concurrent_;
  uint64_t serial_;
};

// One worker's view of an interner: the canonicalizing builders plus the
// worker-private evaluation caches. The default constructor owns a private
// (lock-free) interner — the single-threaded configuration; the reference
// constructor attaches to a shared one.
class ExprContext {
 public:
  using UInterval = overify::UInterval;

  ExprContext();
  explicit ExprContext(ExprInterner& shared);
  // Pointer form for callers that decide at runtime: null owns a private
  // interner, non-null attaches to `shared`.
  explicit ExprContext(ExprInterner* shared);
  ExprContext(const ExprContext&) = delete;
  ExprContext& operator=(const ExprContext&) = delete;

  const Expr* Constant(uint64_t value, unsigned width);
  const Expr* True() { return true_; }
  const Expr* False() { return false_; }
  const Expr* Bool(bool b) { return b ? true_ : false_; }
  const Expr* Symbol(unsigned index);  // width 8

  // May return a trapping-op marker? No: division by zero must be guarded by
  // the caller (the executor forks on the divisor) before building.
  const Expr* Binary(ExprKind kind, const Expr* a, const Expr* b);
  // Any ICmp predicate; canonicalized onto {eq, ult, ule, slt, sle} with
  // negation folded in.
  const Expr* Compare(ICmpPredicate pred, const Expr* a, const Expr* b);
  const Expr* Not(const Expr* e);  // width 1
  const Expr* Select(const Expr* cond, const Expr* a, const Expr* b);
  const Expr* ZExt(const Expr* e, unsigned width);
  const Expr* SExt(const Expr* e, unsigned width);
  const Expr* Trunc(const Expr* e, unsigned width);
  const Expr* Extract(const Expr* e, unsigned offset, unsigned width);
  const Expr* Concat(const Expr* high, const Expr* low);

  // Byte decomposition helpers (little endian). ToBytes writes the
  // ceil(width / 8) <= 8 bytes of `e` (one 0/1 byte for a boolean) to `out`
  // and returns how many; FromBytes concatenates `count` (1..8) bytes.
  static constexpr unsigned kMaxBytes = 8;
  unsigned ToBytes(const Expr* e, const Expr* out[kMaxBytes]);
  const Expr* FromBytes(const Expr* const* bytes, unsigned count);

  // Rebuilds one node with replacement children through the canonicalizing
  // builders, so constant folding and identities re-apply. A binary node
  // whose children folded to a trapping constant pair (division by zero,
  // oversized shift) is interned raw instead — Evaluate defines those as 0,
  // and such nodes only arise inside guarded/contradictory sets. Used by
  // Substitute.
  const Expr* Rebuild(const Expr* src, const Expr* a, const Expr* b, const Expr* c);

  // Substitution over the hash-consed DAG: returns `e` with every symbol in
  // `bound` replaced by the constant byte binding[sym]. Subtrees whose
  // support does not intersect `bound` are returned as-is (one bitmask AND),
  // and rebuilt nodes re-simplify through the builders — the constraint
  // preprocessor's byte-equality elimination (src/symex/preprocess.h).
  const Expr* Substitute(const Expr* e, const std::vector<int16_t>& binding,
                         const SupportSet& bound);

  // Evaluates `e` under a full assignment of its support. `bytes[i]` is the
  // value of Symbol(i). Memoized in the inline slot on each Expr, keyed by
  // the current generation; call NewEvaluation() before each new assignment.
  uint64_t Evaluate(const Expr* e, const std::vector<uint8_t>& bytes);
  void NewEvaluation() { ++eval_generation_; }

  // Unsigned interval abstraction under a *partial* assignment: symbols with
  // assigned[i] contribute their exact byte, the rest contribute [0, 255].
  // Sound over-approximation: the true value always lies in [lo, hi]. The
  // solver prunes a branch as soon as a constraint's interval excludes 1.
  UInterval EvalInterval(const Expr* e, const std::vector<uint8_t>& bytes,
                         const std::vector<bool>& assigned);
  // Same abstraction under per-symbol ranges: symbol i contributes
  // ranges[i] (or [0, 255] beyond the vector). The constraint
  // preprocessor's range-tightening stage evaluates candidates under the
  // facts extracted so far. Shares the interval memo generation.
  UInterval EvalIntervalRanges(const Expr* e, const std::vector<UInterval>& ranges);
  void NewIntervalRound() { ++interval_generation_; }
  // Current interval-memo generation. A caller that knows the generation has
  // not moved since its own last round (and that the symbol ranges it
  // evaluates under are unchanged) may keep evaluating without a new round,
  // sharing memoized subtrees across queries (see
  // ConstraintPreprocessor::RangeOf).
  uint64_t interval_generation() const { return interval_generation_; }

  size_t NumExprs() const { return interner_->NumExprs(); }

  // The interner this context builds into (shared across workers in the
  // scheduler's multi-worker configuration, private otherwise).
  ExprInterner& interner() { return *interner_; }
  const ExprInterner& interner() const { return *interner_; }

  // Fast-path observability (cumulative since construction).
  uint64_t eval_memo_hits() const { return eval_memo_hits_; }
  uint64_t interval_memo_hits() const { return interval_memo_hits_; }
  // Credits memo hits taken by an evaluator that stands in for Evaluate /
  // EvalInterval over its own slots (the core solver's EvalProgram, whose
  // slots stay valid until a byte they depend on changes;
  // src/symex/eval_program.h).
  void AddMemoHits(uint64_t eval_hits, uint64_t interval_hits) {
    eval_memo_hits_ += eval_hits;
    interval_memo_hits_ += interval_hits;
  }

 private:
  using Key = ExprInterner::Key;

  // Per-expression memo slots, indexed by Expr::id() in the
  // context-private tables — the generation-stamped caches behind Evaluate
  // / EvalInterval. Worker-private so memoizing over a shared interner's
  // DAG never races (stamps start at 0, generations at 1: a fresh slot is
  // never valid). Eval and interval slots live in separate flat arrays so
  // each memo's hot loop touches a dense 16/24-byte stride.
  struct EvalSlot {
    uint64_t gen = 0;
    uint64_t value = 0;
  };
  struct IntervalSlot {
    uint64_t gen = 0;
    UInterval value;
  };

  const Expr* Intern(const Key& key);
  const Expr* InternConstant(uint64_t value, unsigned width);
  template <typename Slot>
  static Slot& SlotFor(std::vector<Slot>& slots, const Expr* e);

  // The recursive evaluators are instantiated once per memo mode
  // (kSharedMemos false = inline slots on the Expr, true = id-indexed
  // tables) so the single-owner fast path compiles without the mode branch
  // in its hot recursion. Defined (and only instantiated) in expr.cc.
  template <bool kSharedMemos>
  uint64_t EvaluateImpl(const Expr* e, const std::vector<uint8_t>& bytes);

  // Shared recursive worker behind EvalInterval/EvalIntervalRanges; `sym`
  // maps a symbol index to its interval.
  template <bool kSharedMemos, typename SymFn>
  UInterval EvalIntervalWith(const Expr* e, const SymFn& sym);

  std::unique_ptr<ExprInterner> owned_interner_;  // null when attached
  ExprInterner* interner_;
  // Contexts attached to a concurrent interner keep a lossy direct-mapped
  // cache of recent interns (structural hash -> canonical node). A hit
  // skips the shard lock and table probe entirely; the hash-consing hit
  // rate on the workloads is high enough that most builder calls never
  // touch the shared tables. Empty (and unused) over a private interner,
  // whose lock-free flat table needs no shortcut. Never stale: interners
  // never delete nodes.
  std::vector<const Expr*> intern_cache_;
  // True when this context must not touch the Exprs' inline memo slots
  // (the interner — and therefore the nodes — is shared with other
  // workers); memoization then uses the id-indexed tables below.
  bool shared_memos_ = false;
  // Indexed by Expr::id(), grown lazily. Unused when !shared_memos_.
  std::vector<EvalSlot> eval_memo_;
  std::vector<IntervalSlot> interval_memo_;
  std::vector<const Expr*> symbols_;  // dense by symbol index; null = absent
  // Constants below kSmallConstants at power-of-two widths 1..64, row
  // log2(width): the step builds the same offsets, bytes and flags over
  // and over, and a table read is cheaper than hashing and probing the
  // interner. Filled on first use through the interner, so node creation
  // and Expr::id order are exactly what uncached calls produce. 7 rows of
  // 256 pointers: 14 KB per context.
  static constexpr uint64_t kSmallConstants = 256;
  std::vector<const Expr*> small_constants_;
  const Expr* true_;
  const Expr* false_;

  uint64_t eval_generation_ = 1;
  uint64_t interval_generation_ = 1;
  uint64_t eval_memo_hits_ = 0;
  uint64_t interval_memo_hits_ = 0;

  // Scratch for Substitute (cleared per call; keeps its buckets so
  // steady-state substitution does not allocate).
  std::unordered_map<const Expr*, const Expr*> subst_memo_;
  std::vector<const Expr*> subst_stack_;
};

}  // namespace overify
