#include "src/symex/solver.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "src/support/trace.h"

namespace overify {

namespace {

// Value ordering for the core search: likely-satisfying bytes first (string
// terminators, letters, separators), then everything else. This is the
// solver-side analogue of KLEE trying the all-zero assignment first. The
// per-level candidate lists are this order filtered through the level's
// domain, with the domain endpoints hoisted to the front.
const std::vector<uint8_t>& CandidateOrder() {
  static const std::vector<uint8_t>* kOrder = [] {
    auto* order = new std::vector<uint8_t>();
    const uint8_t preferred[] = {0, 'a', ' ', '0', 'z', 'A', '\n', '\t', 1, 255, '9', '-', '.'};
    std::set<uint8_t> seen;
    for (uint8_t v : preferred) {
      if (seen.insert(v).second) {
        order->push_back(v);
      }
    }
    for (int v = 0; v < 256; ++v) {
      if (seen.insert(static_cast<uint8_t>(v)).second) {
        order->push_back(static_cast<uint8_t>(v));
      }
    }
    return order;
  }();
  return *kOrder;
}

// 256-bit per-symbol domain: bit v set means byte value v is still
// admissible at that decision level.
struct Domain {
  std::array<uint64_t, 4> w;  // as CoreSolver::unary_memo_ stores it

  static Domain Full() { return Domain{{~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}}}; }
  static Domain None() { return Domain{{0, 0, 0, 0}}; }
  bool Test(uint8_t v) const { return (w[v >> 6] >> (v & 63)) & 1; }
  void Set(uint8_t v) { w[v >> 6] |= uint64_t{1} << (v & 63); }
  void Clear(uint8_t v) { w[v >> 6] &= ~(uint64_t{1} << (v & 63)); }
  void IntersectWith(const Domain& o) {
    w[0] &= o.w[0];
    w[1] &= o.w[1];
    w[2] &= o.w[2];
    w[3] &= o.w[3];
  }
  bool Equals(const Domain& o) const {
    return w[0] == o.w[0] && w[1] == o.w[1] && w[2] == o.w[2] && w[3] == o.w[3];
  }
  bool Empty() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  size_t Count() const {
    return static_cast<size_t>(__builtin_popcountll(w[0]) + __builtin_popcountll(w[1]) +
                               __builtin_popcountll(w[2]) + __builtin_popcountll(w[3]));
  }
  // Lowest / highest admissible value; Empty() must be false.
  uint8_t Lo() const {
    for (int i = 0; i < 4; ++i) {
      if (w[i] != 0) {
        return static_cast<uint8_t>(i * 64 + __builtin_ctzll(w[i]));
      }
    }
    return 0;
  }
  uint8_t Hi() const {
    for (int i = 3; i >= 0; --i) {
      if (w[i] != 0) {
        return static_cast<uint8_t>(i * 64 + 63 - __builtin_clzll(w[i]));
      }
    }
    return 0;
  }
  // Intersects with the unsigned interval [lo, hi].
  void ClampTo(uint64_t lo, uint64_t hi) {
    for (uint64_t i = 0; i < 4; ++i) {
      const uint64_t base = i * 64;
      uint64_t keep = ~uint64_t{0};
      if (lo > base) {
        keep &= lo >= base + 64 ? 0 : ~uint64_t{0} << (lo - base);
      }
      if (hi < base + 63) {
        keep &= hi < base ? 0 : ~uint64_t{0} >> (63 - (hi - base));
      }
      w[i] &= keep;
    }
  }
};

// A byte-order fact `order[lower] u< order[upper]` (strict) or `u<=`
// between two decision levels.
struct ByteOrder {
  size_t lower;
  size_t upper;
  unsigned strict;
};

// Bounds propagation over byte-order facts to a fixpoint: the upper byte
// is at least the lower one's minimum (plus one if strict), the lower byte
// at most the upper one's maximum (minus one). Only non-models are cut.
// Returns false when some domain empties (the query is UNSAT).
bool PropagateByteOrders(const std::vector<ByteOrder>& orders, std::vector<Domain>& domain) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ByteOrder& o : orders) {
      Domain& lower = domain[o.lower];
      Domain& upper = domain[o.upper];
      if (lower.Empty() || upper.Empty()) {
        return false;
      }
      const unsigned min_upper = lower.Lo() + o.strict;
      if (upper.Lo() < min_upper) {
        upper.ClampTo(min_upper, 255);
        changed = true;
        if (upper.Empty()) {
          return false;
        }
      }
      if (upper.Hi() < o.strict) {
        return false;
      }
      const unsigned max_lower = upper.Hi() - o.strict;
      if (lower.Hi() > max_lower) {
        lower.ClampTo(0, max_lower);
        changed = true;
        if (lower.Empty()) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

SatResult CoreSolver::CheckSat(ExprContext& ctx, const std::vector<const Expr*>& constraints,
                               std::vector<uint8_t>* model, uint64_t candidate_budget,
                               const QueryControl* control, UnknownCause* cause,
                               const SearchExtras* extras) {
  if (cause != nullptr) {
    *cause = UnknownCause::kNone;
  }
  // Interrupt sources, resolved once per query. The candidate loop polls
  // them every 4096 candidates — cheap against the per-candidate evaluation
  // cost, fine-grained against any realistic deadline, and the reason a
  // single pathological search can no longer overshoot the run deadline by
  // its full candidate budget.
  using Clock = std::chrono::steady_clock;
  const bool has_run_deadline = control != nullptr && control->has_deadline;
  const std::atomic<bool>* cancel = control != nullptr ? control->cancel : nullptr;
  const bool polled = has_run_deadline || cancel != nullptr;

  // Trivial screening and support collection (bitmask union per constraint).
  SupportSet support;
  std::vector<const Expr*> live;
  for (const Expr* c : constraints) {
    if (c->IsConstant()) {
      if (c->constant_value() == 0) {
        return SatResult::kUnsat;
      }
      continue;
    }
    live.push_back(c);
    support.UnionWith(c->Support());
  }
  if (live.empty()) {
    if (model != nullptr) {
      model->clear();
    }
    return SatResult::kSat;
  }
  std::vector<unsigned> order;
  order.reserve(support.Size());
  support.ForEach([&](unsigned sym) { order.push_back(sym); });
  unsigned max_symbol = support.MaxSymbol();
  // Conflict-directed backjumping and unit nogoods use per-level position
  // masks; fall back to chronological, learning-free behaviour for absurdly
  // wide queries. Domain pruning and value ordering apply always.
  const bool use_cbj = order.size() <= 64;

  // Symbol index -> decision level.
  std::vector<int32_t> level_of(max_symbol + 1, -1);
  for (size_t i = 0; i < order.size(); ++i) {
    level_of[order[i]] = static_cast<int32_t>(i);
  }
  // Constraint ci is root ci of the program, and level l stands for symbol
  // order[l]. Its memo hits are credited to the context on every way out,
  // as if the context had evaluated.
  program_.Build(live, level_of);
  struct CreditMemoHits {
    ExprContext& ctx;
    EvalProgram& program;
    ~CreditMemoHits() { ctx.AddMemoHits(program.TakeEvalHits(), program.TakeIntervalHits()); }
  } credit_memo_hits{ctx, program_};

  // Per level: constraints (as indices into `live`) that become fully
  // determined there, constraints that merely touch the prefix (interval
  // pruning), and each constraint's support expressed as a mask of levels.
  // Unary constraints (single-symbol support) are swept into the level's
  // domain below and never enter the search itself.
  std::vector<std::vector<size_t>> ready_at(order.size());
  std::vector<std::vector<size_t>> touched_at(order.size());
  std::vector<uint64_t> level_mask(live.size(), 0);
  std::vector<size_t> unary;  // indices into `live` with single-symbol support
  // Forward-checking geometry (derived-domains mode, below): each non-unary
  // constraint is watched at its second-deepest support level — once the
  // search assigns that level, exactly one support symbol is still free.
  std::vector<size_t> ci_last(live.size(), 0);
  std::vector<std::vector<size_t>> fc_at(order.size());
  for (size_t ci = 0; ci < live.size(); ++ci) {
    if (live[ci]->Support().Size() == 1) {
      unary.push_back(ci);
      continue;
    }
    size_t last = 0;
    size_t first = order.size();
    int64_t penult = -1;
    uint64_t mask = 0;
    live[ci]->Support().ForEach([&](unsigned sym) {
      size_t pos = static_cast<size_t>(level_of[sym]);
      if (first != order.size()) {
        penult = static_cast<int64_t>(last);  // ForEach ascends: previous deepest
      }
      last = std::max(last, pos);
      first = std::min(first, pos);
      if (use_cbj) {
        mask |= uint64_t{1} << pos;
      }
    });
    level_mask[ci] = mask;
    ci_last[ci] = last;
    fc_at[static_cast<size_t>(penult)].push_back(ci);
    ready_at[last].push_back(ci);
    for (size_t i = first; i < last; ++i) {
      touched_at[i].push_back(ci);
    }
  }

  std::vector<uint8_t> assignment(max_symbol + 1, 0);
  uint64_t budget = candidate_budget;

  auto give_up = [&](UnknownCause why) {
    if (cause != nullptr) {
      *cause = why;
    }
    return SatResult::kUnknown;
  };

  // Cooperative deadline/cancel check, shared by every candidate-consuming
  // loop (main enumeration, derive sweep, forward checking). kNone = keep
  // going.
  auto poll_expired = [&]() -> UnknownCause {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return UnknownCause::kCancelled;
    }
    if (has_run_deadline && Clock::now() >= control->deadline) {
      return UnknownCause::kDeadline;
    }
    return UnknownCause::kNone;
  };
  // Spends one candidate of the budget, polling every 4096; kNone = keep
  // going.
  auto spend = [&]() -> UnknownCause {
    if (budget == 0) {
      return UnknownCause::kCandidateBudget;
    }
    --budget;
    ++candidates_tried_;
    if (polled && (budget & 4095) == 0) {
      return poll_expired();
    }
    return UnknownCause::kNone;
  };

  // ---- Per-symbol domains ----
  //
  // domain[l] holds the byte values still admissible at level l, seeded
  // from the caller's range facts, narrowed by a 256-value lane sweep of
  // each unary constraint, and further strengthened mid-search by
  // single-literal nogoods. Everything excised
  // here is provably in no model of the constraint set, so domain pruning
  // never changes a verdict — only the enumeration the search still owes.
  std::vector<Domain> domain(order.size(), Domain::Full());
  if (extras != nullptr && extras->ranges != nullptr) {
    for (size_t l = 0; l < order.size(); ++l) {
      unsigned sym = order[l];
      if (sym < extras->ranges->size()) {
        const UInterval r = (*extras->ranges)[sym];
        if (r.lo > 255) {
          return SatResult::kUnsat;
        }
        if (r.lo > 0 || r.hi < 255) {
          domain[l].ClampTo(r.lo, r.hi);
        }
      }
    }
  }
  // A unary constraint's admissible values are a pure function of its
  // hash-consed Expr: swept once over all 256 values, then memoized across
  // queries (unary_memo_). The sweep is bounded, so it is never charged to
  // the candidate budget — a warm memo cannot change a verdict.
  if (unary_memo_interner_ != ctx.interner().serial()) {
    unary_memo_.clear();
    unary_memo_interner_ = ctx.interner().serial();
  }
  auto unary_level = [&](size_t ci) {
    unsigned sym = 0;
    live[ci]->Support().ForEach([&](unsigned s) { sym = s; });
    return static_cast<size_t>(level_of[sym]);
  };
  std::vector<size_t> unswept;
  for (size_t ci : unary) {
    auto it = unary_memo_.find(live[ci]);
    if (it == unary_memo_.end()) {
      unswept.push_back(ci);
      continue;
    }
    domain[unary_level(ci)].IntersectWith(Domain{it->second});
  }
  if (!unswept.empty()) {
    // The constraint's one symbol is the lane variable.
    std::vector<Domain> admitted(unswept.size(), Domain::None());
    for (size_t k = 0; k < unswept.size(); ++k) {
      program_.Sweep(unswept[k], assignment.data(), Domain::Full().w, admitted[k].w);
      candidates_tried_ += 256;
    }
    if (unary_memo_.size() + unswept.size() > kUnaryMemoCapacity) {
      unary_memo_.clear();
    }
    for (size_t k = 0; k < unswept.size(); ++k) {
      unary_memo_.emplace(live[unswept[k]], admitted[k].w);
      domain[unary_level(unswept[k])].IntersectWith(admitted[k]);
    }
  }
  for (const Domain& d : domain) {
    if (d.Empty()) {
      return SatResult::kUnsat;
    }
  }

  // ---- Value ordering ----
  //
  // Domain endpoints first (range checks make the extremes the likeliest
  // witnesses and the fastest refuters), then the global preference order
  // filtered through the domain. Built once, from the seeded domains (range
  // facts and unary constraints): everything that narrows a domain later
  // only filters these lists, never reorders them. The order is therefore a
  // pure function of the constraint set plus its implied range facts —
  // never of query history or of which pruning fired — and so is the model
  // the search returns (docs/solver.md#determinism).
  //
  // The list is a function of the seeded domain alone, so levels and
  // queries with equal seeded domains share one (value_lists_). listed[l]
  // is the set of values on level l's list.
  if (value_lists_.size() + order.size() > kValueListCapacity) {
    value_lists_.clear();
  }
  std::vector<const std::vector<uint8_t>*> values(order.size());
  std::vector<Domain> listed(domain);
  for (size_t l = 0; l < order.size(); ++l) {
    const Domain& d = domain[l];
    auto [it, fresh] = value_lists_.try_emplace(d.w);
    std::vector<uint8_t>& vals = it->second;
    if (fresh) {
      vals.reserve(d.Count());
      const uint8_t lo = d.Lo();
      const uint8_t hi = d.Hi();
      vals.push_back(lo);
      if (hi != lo) {
        vals.push_back(hi);
      }
      for (uint8_t v : CandidateOrder()) {
        if (v != lo && v != hi && d.Test(v)) {
          vals.push_back(v);
        }
      }
    }
    values[l] = &vals;
  }
  // Drops the values the domains no longer admit, keeping the order, into
  // lists of the query's own.
  std::vector<std::vector<uint8_t>> filtered;
  auto filter_values = [&]() {
    filtered.assign(order.size(), std::vector<uint8_t>{});
    for (size_t l = 0; l < order.size(); ++l) {
      const Domain& d = domain[l];
      for (uint8_t v : *values[l]) {
        if (d.Test(v)) {
          filtered[l].push_back(v);
        }
      }
      values[l] = &filtered[l];
      listed[l] = d;
    }
  };

  // ---- Byte-order bounds ----
  //
  // `x u< y` and `x u<= y` between two bytes (narrowed compares make every
  // byte-order fact of a sort or a comparison look like this) bound each
  // side by the other's domain. Propagating them to a fixpoint before the
  // search spares it the dead low ends of every chained level. The lists
  // above stay as built: the search loop skips what the domains exclude.
  std::vector<ByteOrder> byte_orders;
  for (const Expr* c : live) {
    if ((c->kind() == ExprKind::kUlt || c->kind() == ExprKind::kUle) &&
        c->a()->kind() == ExprKind::kSymbol && c->b()->kind() == ExprKind::kSymbol) {
      byte_orders.push_back(ByteOrder{static_cast<size_t>(level_of[c->a()->symbol_index()]),
                                      static_cast<size_t>(level_of[c->b()->symbol_index()]),
                                      c->kind() == ExprKind::kUlt ? 1u : 0u});
    }
  }
  if (!byte_orders.empty() && !PropagateByteOrders(byte_orders, domain)) {
    return SatResult::kUnsat;
  }

  const uint64_t candidates_at_entry = candidates_tried_;
  std::vector<size_t> candidate_index(order.size(), 0);
  // Levels (strictly below the key) implicated in failures at each level.
  std::vector<uint64_t> conflict_mask(order.size(), 0);

  // ---- Derived domains + forward checking (docs/solver.md#domains) ----
  //
  // Most queries die in a few hundred candidates; for those, plain
  // enumeration with interval pruning is the cheapest thing we can do. A
  // query that burns through kDeriveTrigger candidates has left that regime,
  // and the search switches on two stronger devices, both pure functions of
  // the constraint set plus the standing prefix (so verdict and first model
  // are invariant — they only skip non-models):
  //
  //  * a one-shot abstract sweep that pins each level to each remaining
  //    value (other levels at their domain hulls) and interval-refutes it
  //    against the multi-symbol constraints — exclusions are unconditional
  //    and land in the global domains;
  //  * forward checking: when a constraint's second-deepest support level is
  //    assigned, its one remaining free level is swept concretely, once per
  //    prefix instead of once per candidate. Survivors narrow a scoped
  //    overlay, undone LIFO as the search unwinds; the blame mask behind
  //    each exclusion is kept so exhaustion of the swept level still names
  //    the right backjump target.
  constexpr uint64_t kDeriveTrigger = 4096;
  bool derived = false;
  std::vector<Domain> scoped;      // per-level prefix-conditional exclusions
  std::vector<uint64_t> fc_blame;  // blame masks behind scoped exclusions
  struct ScopedUndo {
    uint32_t level;
    Domain saved;
    uint64_t saved_blame;
  };
  // undo[d]: snapshots of (scoped, fc_blame) taken before the first
  // forward-checking narrow made while level d's candidate stood.
  std::vector<std::vector<ScopedUndo>> undo;
  // Forward-checking sweep memo, one map per constraint. A sweep's outcome
  // is a pure function of the assigned bytes of the constraint's support
  // below its free level — not of the rest of the prefix — and if-converted
  // code (selects whose condition hangs off one early byte) makes the same
  // sweep recur under thousands of unrelated prefixes. Support minus the
  // free level packs into a uint64 key when it spans at most 8 levels;
  // wider constraints sweep uncached. Entries are capped per constraint so
  // a hostile query cannot hoard memory.
  std::vector<std::unordered_map<uint64_t, Domain>> fc_memo;
  auto restore_scoped = [&](size_t d) {
    if (!derived || undo[d].empty()) {
      return;
    }
    for (size_t k = undo[d].size(); k-- > 0;) {
      scoped[undo[d][k].level] = undo[d][k].saved;
      fc_blame[undo[d][k].level] = undo[d][k].saved_blame;
    }
    undo[d].clear();
  };

  auto record_conflict = [&](size_t d) {
    ++conflicts_;
    if (extras != nullptr && extras->metrics != nullptr) {
      extras->metrics->Record(Hist::kCoreConflictDepth, d);
    }
  };

  // Derives a nogood from an evaluation conflict: the failing constraint's
  // assigned support levels plus the value just placed. Only a
  // single-literal nogood is kept: the value fails under every prefix, so
  // it is folded into the domain. Longer nogoods are not stored; a store of
  // them pruned no candidate on any measured workload (docs/solver.md,
  // "Learning and backjumping").
  auto learn_from_conflict = [&](uint64_t blame, size_t depth_now, uint8_t value) {
    if (use_cbj && blame == 0) {
      domain[depth_now].Clear(value);
      ++learned_;
    }
  };

  // The abstract sweep of derived-domains mode. Precondition: no level is
  // assigned (the caller unwinds to the root first), so every exclusion is
  // unconditional. Levels swept later see the tightened hulls of levels
  // swept earlier. Returns kSat to mean "domains derived, carry on"; kUnsat
  // when some level's domain empties; kUnknown (via give_up) on budget or
  // deadline exhaustion.
  auto derive_domains = [&]() -> SatResult {
    std::vector<std::vector<size_t>> multi_at(order.size());
    for (size_t ci = 0; ci < live.size(); ++ci) {
      if (live[ci]->Support().Size() <= 1) {
        continue;
      }
      live[ci]->Support().ForEach([&](unsigned sym) {
        multi_at[static_cast<size_t>(level_of[sym])].push_back(ci);
      });
    }
    std::vector<ExprContext::UInterval> hull(max_symbol + 1,
                                             ExprContext::UInterval{0, 255});
    for (size_t l = 0; l < order.size(); ++l) {
      hull[order[l]] = ExprContext::UInterval{domain[l].Lo(), domain[l].Hi()};
    }
    for (size_t l = 0; l < order.size(); ++l) {
      if (multi_at[l].empty()) {
        continue;
      }
      const unsigned sym = order[l];
      for (unsigned v = 0; v < 256; ++v) {
        if (!domain[l].Test(static_cast<uint8_t>(v))) {
          continue;
        }
        hull[sym] = ExprContext::UInterval{v, v};
        // The context's interval generation moves with the program's: the
        // preprocessor reuses its interval memo only while that generation
        // stands still (ConstraintPreprocessor::RangeOf).
        ctx.NewIntervalRound();
        program_.NewIntervalRound();
        for (size_t ci : multi_at[l]) {
          if (const UnknownCause why = spend(); why != UnknownCause::kNone) {
            return give_up(why);
          }
          if (program_.EvalIntervalRanges(ci, hull).hi == 0) {
            domain[l].Clear(static_cast<uint8_t>(v));
            break;
          }
        }
      }
      if (domain[l].Empty()) {
        return SatResult::kUnsat;
      }
      hull[sym] = ExprContext::UInterval{domain[l].Lo(), domain[l].Hi()};
    }
    return SatResult::kSat;
  };

  size_t depth = 0;
  while (true) {
    if (depth == order.size()) {
      if (model != nullptr) {
        *model = assignment;
      }
      return SatResult::kSat;
    }
    // Derived-domains trigger (once per query): unwind to the root so the
    // sweep sees no assigned levels, derive, filter the value lists through
    // the narrowed domains (never reorder them: that would change which
    // model comes first), and turn on forward checking for the rest of the
    // query. Replaying the unwound prefix costs at most the kDeriveTrigger
    // candidates already spent.
    if (!derived && candidates_tried_ - candidates_at_entry >= kDeriveTrigger) {
      derived = true;
      for (size_t level = 0; level < depth; ++level) {
        candidate_index[level] = 0;
        conflict_mask[level] = 0;
      }
      candidate_index[depth] = 0;
      conflict_mask[depth] = 0;
      depth = 0;
      const SatResult swept = derive_domains();
      if (swept != SatResult::kSat) {
        return swept;
      }
      filter_values();
      scoped.assign(order.size(), Domain::Full());
      fc_blame.assign(order.size(), 0);
      undo.assign(order.size(), std::vector<ScopedUndo>{});
      fc_memo.assign(live.size(), std::unordered_map<uint64_t, Domain>{});
      continue;
    }
    // About to pick the next candidate at this level: whatever forward
    // checking narrowed while the previous candidate stood no longer holds.
    restore_scoped(depth);
    // Mid-search domain clears (single-literal nogoods) excise values the
    // static candidate list still carries; forward checking excises values
    // under the standing prefix. Skip both here — the blame for scoped
    // exclusions is already parked in fc_blame for the exhaustion mask.
    const std::vector<uint8_t>& level_values = *values[depth];
    while (candidate_index[depth] < level_values.size() &&
           (!domain[depth].Test(level_values[candidate_index[depth]]) ||
            (derived && !scoped[depth].Test(level_values[candidate_index[depth]])))) {
      ++candidate_index[depth];
    }
    if (candidate_index[depth] >= level_values.size()) {
      // Level exhausted: the blame mask is a valid nogood over the levels it
      // names — jump to its deepest level (the nogood's second-highest
      // decision level, counting the exhausted level as highest);
      // reassigning anything in between cannot help. Without CBJ (queries
      // wider than 64 symbols) this is plain chronological backtracking,
      // computed directly — level indices past 63 cannot be expressed as
      // bit masks.
      uint64_t mask = use_cbj ? conflict_mask[depth] : 0;
      if (use_cbj && derived) {
        // Values forward checking excised from this level were skipped
        // without a per-value conflict; their blame joins the nogood here.
        mask |= fc_blame[depth];
      }
      candidate_index[depth] = 0;
      conflict_mask[depth] = 0;
      if (!use_cbj) {
        if (depth == 0) {
          return SatResult::kUnsat;
        }
        --depth;
        continue;
      }
      if (mask == 0) {
        return SatResult::kUnsat;
      }
      size_t jump = 63 - static_cast<size_t>(__builtin_clzll(mask));
      if (depth - jump > 1) {
        ++backjumps_;  // non-chronological: at least one level skipped
      }
      if ((mask & (mask - 1)) == 0) {
        // The jump level's value alone admits no completion: a permanent
        // domain clear.
        domain[jump].Clear(assignment[order[jump]]);
        ++learned_;
      }
      // Merge the remaining blame into the jump target (standard CBJ).
      conflict_mask[jump] |= mask & ~(uint64_t{1} << jump);
      // Deepest-first (LIFO) so multiply-narrowed levels settle on their
      // oldest snapshot; undo[depth] itself was restored at the pick point.
      for (size_t level = depth; level > jump; --level) {
        restore_scoped(level);
      }
      for (size_t level = jump + 1; level < depth; ++level) {
        candidate_index[level] = 0;
        conflict_mask[level] = 0;
      }
      depth = jump;
      continue;
    }
    if (const UnknownCause why = spend(); why != UnknownCause::kNone) {
      return give_up(why);
    }
    const uint8_t value = level_values[candidate_index[depth]++];
    assignment[order[depth]] = value;
    program_.Assign(depth);

    // Levels strictly below this one, saturating: depths past 63 only occur
    // with CBJ off (order.size() > 64), where level_mask is all-zero and the
    // blame mask is never consulted — but the shift itself must stay defined.
    const uint64_t below = depth >= 64 ? ~uint64_t{0} : (uint64_t{1} << depth) - 1;
    bool ok = true;
    // Constraints that just became fully determined. Only their nodes at
    // this level are computed; the shallower ones are memoized.
    for (size_t ci : ready_at[depth]) {
      if (program_.Evaluate(ci, assignment.data()) == 0) {
        const uint64_t blame = level_mask[ci] & below;
        conflict_mask[depth] |= blame;
        record_conflict(depth);
        learn_from_conflict(blame, depth, value);
        ok = false;
        break;
      }
    }
    // Interval pruning for partially-determined constraints: a sound
    // over-approximation that already excludes `true` kills every
    // completion of this prefix.
    if (ok && !touched_at[depth].empty()) {
      ctx.NewIntervalRound();  // see derive_domains
      for (size_t ci : touched_at[depth]) {
        const UInterval bound = program_.EvalInterval(ci, assignment.data(), depth);
        if (bound.hi == 0) {
          const uint64_t blame = level_mask[ci] & below;
          conflict_mask[depth] |= blame;
          record_conflict(depth);
          learn_from_conflict(blame, depth, value);
          ok = false;
          break;
        }
      }
    }
    // Forward checking (derived-domains mode): every constraint watched
    // here has exactly one free support symbol left — its deepest level.
    // Sweep that level's remaining values concretely once, under this
    // prefix (one lane sweep, charged per value), instead of letting every
    // deeper prefix rediscover the same refutations. An emptied level is a
    // conflict right now, blamed on the constraint's assigned support plus
    // whatever already narrowed the level (docs/solver.md#domains).
    if (ok && derived && !fc_at[depth].empty()) {
      for (size_t ci : fc_at[depth]) {
        const size_t fl = ci_last[ci];
        // Levels past 63 only occur with CBJ off, where level_mask is
        // all-zero anyway — but the shift must stay defined.
        const uint64_t fl_bit = fl < 64 ? uint64_t{1} << fl : 0;
        // The sweep's outcome depends only on the assigned support bytes.
        // If some assigned level is OUTSIDE the support, the identical
        // sweep recurs as that level enumerates — memoize it over the
        // canonical value list and amortize. If the support covers the
        // whole prefix the key is unique per prefix: sweep only the
        // scoped view (no 256-value canonical pass), and not even that
        // when the free level is next — enumeration there performs the
        // identical evaluations one candidate at a time.
        const int support_levels = __builtin_popcountll(level_mask[ci]);
        const bool recurs = use_cbj && static_cast<size_t>(support_levels - 1) < depth + 1;
        const bool memoize = recurs && support_levels - 1 <= 8;
        if (!memoize && fl == depth + 1) {
          continue;
        }
        if (memoize) {
          // Key: assigned support bytes, packed ascending by level. The
          // packing is unambiguous because the map is per-constraint.
          uint64_t key = 0;
          uint64_t rest = level_mask[ci] & ~fl_bit;
          while (rest != 0) {
            const uint32_t lvl = static_cast<uint32_t>(__builtin_ctzll(rest));
            rest &= rest - 1;
            key = (key << 8) | assignment[order[lvl]];
          }
          Domain viable_set = Domain::None();
          auto it = fc_memo[ci].find(key);
          if (it != fc_memo[ci].end()) {
            viable_set = it->second;
            // A hit replaces the whole sweep; charge one candidate so the
            // budget still bounds total work.
            if (budget == 0) {
              return give_up(UnknownCause::kCandidateBudget);
            }
            --budget;
            ++candidates_tried_;
          } else {
            // Canonical sweep over the static value list (not the current
            // scoped view) so the result is context-free and cacheable.
            // One candidate per listed value.
            program_.Sweep(ci, assignment.data(), listed[fl].w, viable_set.w);
            for (size_t k = 0; k < values[fl]->size(); ++k) {
              if (const UnknownCause why = spend(); why != UnknownCause::kNone) {
                return give_up(why);
              }
            }
            if (fc_memo[ci].size() < 4096) {
              fc_memo[ci].emplace(key, viable_set);
            }
          }
          Domain narrowed = scoped[fl];
          narrowed.IntersectWith(viable_set);
          if (!narrowed.Equals(scoped[fl])) {
            undo[depth].push_back(
                ScopedUndo{static_cast<uint32_t>(fl), scoped[fl], fc_blame[fl]});
            scoped[fl] = narrowed;
            fc_blame[fl] |= level_mask[ci] & ~fl_bit;
          }
        } else {
          // Unique-key constraint with intermediate levels between here
          // and the free one: sweep just the currently viable values so
          // an empty level is caught before those levels multiply it.
          Domain viable = listed[fl];
          viable.IntersectWith(domain[fl]);
          viable.IntersectWith(scoped[fl]);
          Domain admitted = Domain::None();
          program_.Sweep(ci, assignment.data(), viable.w, admitted.w);
          bool snapshotted = false;
          for (uint8_t w : *values[fl]) {
            if (!viable.Test(w)) {
              continue;
            }
            if (const UnknownCause why = spend(); why != UnknownCause::kNone) {
              return give_up(why);
            }
            if (!admitted.Test(w)) {
              if (!snapshotted) {
                snapshotted = true;
                undo[depth].push_back(
                    ScopedUndo{static_cast<uint32_t>(fl), scoped[fl], fc_blame[fl]});
              }
              scoped[fl].Clear(w);
              fc_blame[fl] |= level_mask[ci] & ~fl_bit;
            }
          }
        }
        Domain remaining = domain[fl];
        remaining.IntersectWith(scoped[fl]);
        if (remaining.Empty()) {
          const uint64_t blame = (level_mask[ci] | fc_blame[fl]) & below;
          conflict_mask[depth] |= blame;
          record_conflict(depth);
          learn_from_conflict(blame, depth, value);
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      ++depth;
    }
  }
}

namespace {

// Fixpoint of "constraints transitively sharing support with the seed".
// The common shape — at most 64 constraints, all symbols below 64 — runs
// with a taken-bitmask and SupportSet mask ANDs: no allocation at all.
void FilterIndependentInto(const std::vector<const Expr*>& constraints, const Expr* seed,
                           std::vector<const Expr*>& out) {
  out.clear();
  const size_t n = constraints.size();
  SupportSet reachable = seed->Support();
  if (n <= 64) {
    uint64_t taken = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        if ((taken >> i) & 1) {
          continue;
        }
        const SupportSet& support = constraints[i]->Support();
        if (reachable.Intersects(support)) {
          taken |= uint64_t{1} << i;
          reachable.UnionWith(support);
          changed = true;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if ((taken >> i) & 1) {
        out.push_back(constraints[i]);
      }
    }
    return;
  }
  std::vector<bool> taken(n, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (taken[i]) {
        continue;
      }
      const SupportSet& support = constraints[i]->Support();
      if (reachable.Intersects(support)) {
        taken[i] = true;
        reachable.UnionWith(support);
        changed = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (taken[i]) {
      out.push_back(constraints[i]);
    }
  }
}

}  // namespace

std::vector<const Expr*> FilterIndependent(const std::vector<const Expr*>& constraints,
                                           const Expr* seed) {
  std::vector<const Expr*> filtered;
  FilterIndependentInto(constraints, seed, filtered);
  return filtered;
}

namespace {

struct SetHash {
  uint64_t key;          // cache index
  uint64_t fingerprint;  // independent confirmation hash
};

// Order-sensitive 64-bit hashes of the canonical (hash-sorted, deduped)
// constraint set. The key folds the structural hash stored on each Expr;
// the fingerprint is the portable content fingerprint
// (src/symex/expr_hash.h), computed structurally with De Bruijn symbol
// numbering. Both are pure functions of the set's structure — the
// fingerprint used to fold Expr::id() (interner creation order), which made
// identical sets from different runs confirm under different fingerprints
// and silently defeated every cross-run cache hit.
SetHash HashConstraintSet(const std::vector<const Expr*>& canonical,
                          PortableHashCache& portable) {
  uint64_t h = HashMix64(0x9e3779b97f4a7c15ULL ^ canonical.size());
  for (const Expr* c : canonical) {
    h = HashMix64(h ^ c->hash());
  }
  return SetHash{h, PortableSetFingerprint(canonical, portable)};
}

}  // namespace

// ---- PrefixCache ----

const PrefixCache::Entry* PrefixCache::FindExact(uint64_t set_hash,
                                                 uint64_t fingerprint) const {
  auto it = entries_.find(set_hash);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    return nullptr;
  }
  return &it->second;
}

void PrefixCache::Insert(uint64_t set_hash, uint64_t fingerprint, SatResult result,
                         const std::vector<uint8_t>& model) {
  OVERIFY_ASSERT(result != SatResult::kUnknown, "only definite verdicts are cached");
  auto existing = entries_.find(set_hash);
  if (existing != entries_.end()) {
    // Same 128-bit identity (a re-query after a spurious miss): replace in
    // place. A matching set_hash with a different fingerprint is a 64-bit
    // collision between two distinct sets — drop the resident entry AND
    // skip this insert, so both sets degrade to cache misses instead of one
    // ever being served the other's verdict.
    if (existing->second.fingerprint != fingerprint) {
      entries_.erase(existing);
      ++collisions_;
      return;
    }
    existing->second = Entry{set_hash, fingerprint, result, model};
    return;
  }
  while (entries_.size() >= capacity_ && !fifo_.empty()) {
    const uint64_t oldest = fifo_.front();
    fifo_.pop_front();
    evictions_ += entries_.erase(oldest);
  }
  entries_.emplace(set_hash, Entry{set_hash, fingerprint, result, model});
  fifo_.push_back(set_hash);
}

void PrefixCache::InsertPersisted(uint64_t set_hash, uint64_t fingerprint, SatResult result,
                                  const std::vector<uint8_t>& model) {
  Insert(set_hash, fingerprint, result, model);
  auto it = entries_.find(set_hash);
  if (it == entries_.end()) {
    return;  // collided with a resident entry; both dropped
  }
  it->second.persisted = true;
  it->second.unvalidated = result == SatResult::kSat;
}

// ---- SolverChain ----

void SolverChain::SyncCoreCounters() const {
  MetricsShard& m = *metrics_;
  m.Set(Counter::kSolverCoreCandidates, core_.candidates_tried());
  m.Set(Counter::kSolverCoreConflicts, core_.conflicts());
  m.Set(Counter::kSolverCoreLearned, core_.learned());
  m.Set(Counter::kSolverCoreBackjumps, core_.backjumps());
}

void SolverChain::SyncMetrics() const {
  MetricsShard& m = *metrics_;
  SyncCoreCounters();
  m.Set(Counter::kSolverEvalMemoHits, ctx_.eval_memo_hits());
  m.Set(Counter::kSolverIntervalMemoHits, ctx_.interval_memo_hits());
  m.Set(Counter::kSolverCexEvictions, cache_.evictions());
  m.Set(Counter::kPrefixCollisions, cache_.collisions());
  const PreprocessStats& pp = preprocessor_.stats();
  m.Set(Counter::kPreprocessBindings, pp.bindings);
  m.Set(Counter::kPreprocessSubstitutions, pp.substitutions);
  m.Set(Counter::kPreprocessTautologies, pp.tautologies);
  m.Set(Counter::kPreprocessContradictions, pp.contradictions);
}

void SolverChain::SeedPersistedEntry(uint64_t set_hash, uint64_t fingerprint,
                                     SatResult result, const std::vector<uint8_t>& model) {
  if (result == SatResult::kUnknown) {
    return;  // never cached live, never seeded from a store
  }
  cache_.InsertPersisted(set_hash, fingerprint, result, model);
  metrics_->Inc(Counter::kPersistSeeded);
}

namespace {

// Canonical constraint order: by structural hash, creation id breaking the
// (vanishingly rare) hash tie. Hash order is context-independent, so the
// core search — whose conflict-directed backjumping is sensitive to
// constraint order — behaves identically for the same logical set in every
// worker's ExprContext (docs/scheduler.md, determinism).
bool CanonicalConstraintOrder(const Expr* a, const Expr* b) {
  if (a->hash() != b->hash()) {
    return a->hash() < b->hash();
  }
  return a->id() < b->id();
}

}  // namespace

// Drops trivially-true entries, dedupes, and sorts into canonical order.
// Returns false if the set is trivially unsat.
bool SolverChain::Canonicalize(const std::vector<const Expr*>& filtered,
                               std::vector<const Expr*>& canonical) {
  canonical.clear();
  for (const Expr* c : filtered) {
    if (c->IsTrue()) {
      continue;
    }
    if (c->IsFalse()) {
      return false;
    }
    canonical.push_back(c);
  }
  std::sort(canonical.begin(), canonical.end(), CanonicalConstraintOrder);
  canonical.erase(std::unique(canonical.begin(), canonical.end()), canonical.end());
  return true;
}

SatResult SolverChain::Unknown(UnknownCause cause) {
  last_unknown_cause_ = cause;
  switch (cause) {
    case UnknownCause::kCandidateBudget:
      metrics_->Inc(Counter::kSolverUnknownBudget);
      break;
    case UnknownCause::kDeadline:
      metrics_->Inc(Counter::kSolverUnknownDeadline);
      break;
    case UnknownCause::kCancelled:
      metrics_->Inc(Counter::kSolverUnknownCancelled);
      break;
    case UnknownCause::kInjected:
      metrics_->Inc(Counter::kSolverUnknownInjected);
      break;
    case UnknownCause::kNone:
      break;
  }
  return SatResult::kUnknown;
}

SatResult SolverChain::Solve(const std::vector<const Expr*>& filtered,
                             std::vector<uint8_t>* model, const PathPrefix& prefix) {
  std::vector<const Expr*>& canonical = canonical_scratch_;
  if (!Canonicalize(filtered, canonical)) {
    return SatResult::kUnsat;
  }

  // Injected solver failure: the whole query gives up, after trivial
  // screening (so the site models a real solver timing out on real work)
  // but before any cache interaction (kUnknown must never be cached).
  if (control_.faults != nullptr && control_.faults->Fire(FaultSite::kSolverUnknown)) {
    if (trace_ != nullptr) {
      trace_->Instant(TraceKind::kFaultFired, MetricsNowNs(),
                      static_cast<uint64_t>(FaultSite::kSolverUnknown));
    }
    return Unknown(UnknownCause::kInjected);
  }
  // Injected cache failure: every lookup this query would do misses. The
  // verdict still comes from the core search, so results are unchanged —
  // only slower — which is exactly what the exhausted-run identity contract
  // demands of this site.
  const bool skip_cache =
      control_.faults != nullptr && control_.faults->Fire(FaultSite::kPrefixCacheLookup);
  if (skip_cache && trace_ != nullptr) {
    trace_->Instant(TraceKind::kFaultFired, MetricsNowNs(),
                    static_cast<uint64_t>(FaultSite::kPrefixCacheLookup));
  }

  // The cache-lookup span covers both reuse tiers (exact lookup, recent-model
  // reuse) and closes with the hit class that answered — kMiss when the
  // query fell through to the core search. It is a sub-span of the
  // solver-query span and is timed only when tracing:
  // lookups are tens of nanoseconds, so paying two clock reads per query in
  // metrics-only mode would cost more than it measures (the hit *counters*
  // are always exact; docs/observability.md spells out the gate).
  const bool timed = Timed();
  const bool traced = trace_ != nullptr;
  const uint64_t lookup_t0 = traced ? MetricsNowNs() : 0;
  auto lookup_done = [&](CacheHitClass hit) {
    if (!traced) {
      return;
    }
    const uint64_t t1 = MetricsNowNs();
    metrics_->Record(Hist::kCacheLookupNs, t1 - lookup_t0);
    trace_->Span(TraceKind::kCacheLookup, lookup_t0, t1, static_cast<uint64_t>(hit));
  };

  // Needed model width and the query-validation predicate. Hoisted above
  // the lookup tiers because persisted entries (seeded from an on-disk
  // store) are never trusted to be SAT witnesses until their model has been
  // re-validated against live constraints (docs/daemon.md#trust-model).
  size_t needed = 0;
  for (const Expr* c : canonical) {
    const SupportSet& support = c->Support();
    if (!support.Empty()) {
      needed = std::max(needed, static_cast<size_t>(support.MaxSymbol()) + 1);
    }
  }
  auto satisfies = [&](const std::vector<uint8_t>& candidate) {
    ctx_.NewEvaluation();
    for (const Expr* c : canonical) {
      if (ctx_.Evaluate(c, candidate) == 0) {
        return false;
      }
    }
    return true;
  };

  // Exact counterexample-cache lookup (one hash of the constraint set).
  const SetHash cache_key = HashConstraintSet(canonical, portable_hashes_);
  if (!skip_cache) {
    if (const PrefixCache::Entry* entry =
            cache_.FindExact(cache_key.key, cache_key.fingerprint)) {
      bool usable = true;
      if (entry->unvalidated) {
        // Persisted SAT model meeting its first live query: the entry's set
        // IS this query's set (128-bit identity), so satisfying the query
        // validates the whole entry. UNSAT entries are seeded validated —
        // the verdict is implied by identity plus the store checksum.
        std::vector<uint8_t> candidate = entry->model;
        if (candidate.size() < needed) {
          candidate.resize(needed, 0);
        }
        if (satisfies(candidate)) {
          entry->unvalidated = false;
          metrics_->Inc(Counter::kPersistValidations);
        } else {
          metrics_->Inc(Counter::kPersistRejects);
          cache_.RemoveBySetHash(cache_key.key);
          usable = false;
        }
      }
      if (usable) {
        metrics_->Inc(Counter::kSolverCacheHits);
        if (entry->persisted) {
          metrics_->Inc(Counter::kPersistHits);
        }
        lookup_done(CacheHitClass::kExact);
        if (model != nullptr) {
          *model = entry->model;
        }
        return entry->result;
      }
    }
  }

  // Model reuse: a recent core model, zero-padded to the query's width, may
  // already satisfy this set. A path's depth-k+1 query usually adds one
  // constraint to its depth-k set, so the model that answered depth k
  // often answers it too.
  std::vector<uint8_t> padded;
  for (auto it = recent_models_.rbegin(); it != recent_models_.rend(); ++it) {
    const std::vector<uint8_t>* candidate = &*it;
    if (candidate->size() < needed) {
      padded.assign(needed, 0);
      std::copy(it->begin(), it->end(), padded.begin());
      candidate = &padded;
    }
    if (satisfies(*candidate)) {
      metrics_->Inc(Counter::kSolverReuseHits);
      lookup_done(CacheHitClass::kReuse);
      cache_.Insert(cache_key.key, cache_key.fingerprint, SatResult::kSat, *candidate);
      if (model != nullptr) {
        *model = *candidate;
      }
      return SatResult::kSat;
    }
  }

  // Core search.
  lookup_done(CacheHitClass::kMiss);
  metrics_->Inc(Counter::kSolverCoreQueries);
  std::vector<uint8_t> core_model;
  UnknownCause core_cause = UnknownCause::kNone;
  const uint64_t candidates_before = core_.candidates_tried();
  const uint64_t core_t0 = timed ? MetricsNowNs() : 0;
  CoreSolver::SearchExtras extras;
  if (!prefix.range.empty()) {
    extras.ranges = &prefix.range;
  }
  extras.metrics = metrics_;
  SatResult result = core_.CheckSat(ctx_, canonical, &core_model, control_.query_candidates,
                                    &control_, &core_cause, &extras);
  if (timed) {
    const uint64_t t1 = MetricsNowNs();
    metrics_->Record(Hist::kCoreSearchNs, t1 - core_t0);
    if (trace_ != nullptr) {
      trace_->Span(TraceKind::kCoreSearch, core_t0, t1, static_cast<uint64_t>(result),
                   core_.candidates_tried() - candidates_before);
    }
  }
  SyncCoreCounters();
  if (result == SatResult::kUnknown) {
    // Never cached: a degraded verdict must not poison later exact answers
    // (PrefixCache::Insert asserts the same invariant).
    return Unknown(core_cause);
  }
  cache_.Insert(cache_key.key, cache_key.fingerprint, result, core_model);
  if (result == SatResult::kSat) {
    recent_models_.push_back(core_model);
    if (recent_models_.size() > kRecentModels) {
      recent_models_.erase(recent_models_.begin());
    }
    if (model != nullptr) {
      *model = core_model;
    }
  }
  return result;
}

PathPrefix* SolverChain::EffectivePrefix(PathPrefix* prefix,
                                         const std::vector<const Expr*>& constraints) {
  if (prefix == nullptr) {
    // Handle-less callers routinely re-query one path with varying
    // conditions; reuse the scratch summary while the constraint sequence
    // is unchanged (preprocessing is a pure function of it), rebuild
    // otherwise.
    if (scratch_constraints_ != constraints) {
      scratch_prefix_.Clear();
      scratch_constraints_ = constraints;
    }
    prefix = &scratch_prefix_;
  }
  // The preprocess span covers incremental summary extension; recorded only
  // when new constraints were actually consumed, so steady-state re-queries
  // of an up-to-date prefix stay span-free. Like the cache-lookup span it
  // is trace-only: in metrics mode the extension is usually a no-op check
  // far cheaper than a clock-read pair.
  const size_t consumed_before = prefix->consumed;
  const bool traced = trace_ != nullptr;
  const uint64_t t0 = traced ? MetricsNowNs() : 0;
  const bool ok = preprocessor_.Extend(*prefix, constraints);
  if (traced && prefix->consumed > consumed_before) {
    const uint64_t t1 = MetricsNowNs();
    metrics_->Record(Hist::kPreprocessNs, t1 - t0);
    trace_->Span(TraceKind::kPreprocess, t0, t1,
                 static_cast<uint64_t>(prefix->consumed - consumed_before));
  }
  if (!ok) {
    // Run deadline expired mid-extension. The summary still covers exactly
    // prefix.consumed leading constraints (a valid shorter prefix), so it
    // stays pure; the query itself gives up.
    return nullptr;
  }
  return prefix;
}

void SolverChain::AssemblePreprocessed(const PathPrefix& prefix,
                                       std::vector<const Expr*>& out) {
  out.clear();
  out.reserve(prefix.definitions.size() + prefix.simplified.size());
  out.insert(out.end(), prefix.definitions.begin(), prefix.definitions.end());
  out.insert(out.end(), prefix.simplified.begin(), prefix.simplified.end());
}

// The query entry points below wrap their *Impl bodies in the solver-query
// span: one histogram record plus (when tracing) one trace event, gated on
// Timed() so an untimed chain takes zero clock reads.
void SolverChain::FinishQuery(uint64_t t0, SatResult result) {
  const uint64_t t1 = MetricsNowNs();
  metrics_->Record(Hist::kSolverQueryNs, t1 - t0);
  if (trace_ != nullptr) {
    trace_->Span(TraceKind::kSolverQuery, t0, t1, static_cast<uint64_t>(result),
                 static_cast<uint64_t>(result == SatResult::kUnknown ? last_unknown_cause_
                                                                     : UnknownCause::kNone));
  }
}

SatResult SolverChain::CheckSat(const std::vector<const Expr*>& constraints,
                                std::vector<uint8_t>* model, PathPrefix* prefix) {
  metrics_->Inc(Counter::kSolverQueries);
  if (!Timed()) {
    return CheckSatImpl(constraints, model, prefix);
  }
  const uint64_t t0 = MetricsNowNs();
  SatResult result = CheckSatImpl(constraints, model, prefix);
  FinishQuery(t0, result);
  return result;
}

SatResult SolverChain::CheckSatImpl(const std::vector<const Expr*>& constraints,
                                    std::vector<uint8_t>* model, PathPrefix* prefix) {
  PathPrefix* p = EffectivePrefix(prefix, constraints);
  if (p == nullptr) {
    return Unknown(UnknownCause::kDeadline);
  }
  if (p->contradiction) {
    return SatResult::kUnsat;
  }
  AssemblePreprocessed(*p, preprocessed_scratch_);
  return Solve(preprocessed_scratch_, model, *p);
}

SatResult SolverChain::CheckSatCanonical(const std::vector<const Expr*>& constraints,
                                         std::vector<uint8_t>* model) {
  metrics_->Inc(Counter::kSolverQueries);
  if (!Timed()) {
    return CheckSatCanonicalImpl(constraints, model);
  }
  const uint64_t t0 = MetricsNowNs();
  SatResult result = CheckSatCanonicalImpl(constraints, model);
  FinishQuery(t0, result);
  return result;
}

SatResult SolverChain::CheckSatCanonicalImpl(const std::vector<const Expr*>& constraints,
                                             std::vector<uint8_t>* model) {
  std::vector<const Expr*>& canonical = canonical_scratch_;
  if (!Canonicalize(constraints, canonical)) {
    return SatResult::kUnsat;
  }
  // Witness queries draw the injected-unknown site too: a dropped witness
  // must degrade the run to non-exhausted (the engine discards unwitnessed
  // reports), not produce an unconfirmed bug.
  if (control_.faults != nullptr && control_.faults->Fire(FaultSite::kSolverUnknown)) {
    if (trace_ != nullptr) {
      trace_->Instant(TraceKind::kFaultFired, MetricsNowNs(),
                      static_cast<uint64_t>(FaultSite::kSolverUnknown));
    }
    return Unknown(UnknownCause::kInjected);
  }
  metrics_->Inc(Counter::kSolverCoreQueries);
  UnknownCause core_cause = UnknownCause::kNone;
  const uint64_t candidates_before = core_.candidates_tried();
  const bool timed = Timed();
  const uint64_t core_t0 = timed ? MetricsNowNs() : 0;
  // No range facts: the model must be a pure function of the constraint
  // set. Learning is fine — it only skips non-models, so the first model in
  // the fixed value order is unchanged.
  CoreSolver::SearchExtras extras;
  extras.metrics = metrics_;
  SatResult result = core_.CheckSat(ctx_, canonical, model, control_.query_candidates,
                                    &control_, &core_cause, &extras);
  if (timed) {
    const uint64_t t1 = MetricsNowNs();
    metrics_->Record(Hist::kCoreSearchNs, t1 - core_t0);
    if (trace_ != nullptr) {
      trace_->Span(TraceKind::kCoreSearch, core_t0, t1, static_cast<uint64_t>(result),
                   core_.candidates_tried() - candidates_before);
    }
  }
  SyncCoreCounters();
  if (result == SatResult::kUnknown) {
    return Unknown(core_cause);
  }
  return result;
}

SatResult SolverChain::MayBeTrue(const std::vector<const Expr*>& constraints, const Expr* cond,
                                 std::vector<uint8_t>* model, PathPrefix* prefix) {
  metrics_->Inc(Counter::kSolverQueries);
  if (!Timed()) {
    return MayBeTrueImpl(constraints, cond, model, prefix);
  }
  const uint64_t t0 = MetricsNowNs();
  SatResult result = MayBeTrueImpl(constraints, cond, model, prefix);
  FinishQuery(t0, result);
  return result;
}

SatResult SolverChain::MayBeTrueImpl(const std::vector<const Expr*>& constraints,
                                     const Expr* cond, std::vector<uint8_t>* model,
                                     PathPrefix* prefix) {
  if (cond->IsTrue()) {
    // The path constraints are satisfiable by invariant.
    return SatResult::kSat;
  }
  if (cond->IsFalse()) {
    return SatResult::kUnsat;
  }
  PathPrefix* p = EffectivePrefix(prefix, constraints);
  if (p == nullptr) {
    return Unknown(UnknownCause::kDeadline);
  }
  if (p->contradiction) {
    // The path itself is infeasible; nothing can additionally hold.
    return SatResult::kUnsat;
  }
  // Substitution can settle the branch outright (the condition folds to a
  // constant once bound bytes are rewritten in)... A SAT shortcut means the
  // path implies `cond`, so the caller's path model already satisfies it and
  // nothing is written.
  const Expr* simplified = preprocessor_.Apply(*p, cond);
  if (simplified->IsTrue()) {
    metrics_->Inc(Counter::kPresolveShortcuts);
    return SatResult::kSat;  // path satisfiable by invariant
  }
  if (simplified->IsFalse()) {
    metrics_->Inc(Counter::kPresolveShortcuts);
    return SatResult::kUnsat;
  }
  // ...and so can the range facts: an interval of {1,1} means every point
  // of the (over-approximated) feasible region takes the branch, {0,0}
  // means none does.
  UInterval bound = preprocessor_.RangeOf(*p, simplified);
  if (bound.hi == 0) {
    metrics_->Inc(Counter::kPresolveShortcuts);
    return SatResult::kUnsat;
  }
  if (bound.lo >= 1) {
    metrics_->Inc(Counter::kPresolveShortcuts);
    return SatResult::kSat;
  }
  AssemblePreprocessed(*p, preprocessed_scratch_);
  FilterIndependentInto(preprocessed_scratch_, simplified, filtered_scratch_);
  metrics_->Add(Counter::kSolverIndependenceDrops, preprocessed_scratch_.size() - filtered_scratch_.size());
  filtered_scratch_.push_back(simplified);
  // The prefix's per-symbol range facts ride along for domain pruning:
  // every fact about a symbol the filtered set mentions is implied by the
  // filtered set itself (any range-bearing constraint on such a symbol
  // shares its support and survives FilterIndependent), and the core never
  // consults facts about symbols outside its search order.
  return SolveComponent(model, *p);
}

SatResult SolverChain::SolveComponent(std::vector<uint8_t>* model, const PathPrefix& prefix) {
  if (model == nullptr) {
    return Solve(filtered_scratch_, nullptr, prefix);
  }
  SatResult result = Solve(filtered_scratch_, &component_model_, prefix);
  if (result != SatResult::kSat) {
    return result;
  }
  // Merge: only the component's symbols take the solver's values. The
  // component shares no symbol with the constraints it dropped, so the
  // caller's other bytes still satisfy those, and the preprocessed set has
  // the same models as the path constraints.
  SupportSet component;
  for (const Expr* c : filtered_scratch_) {
    component.UnionWith(c->Support());
  }
  if (!component.Empty() && component.MaxSymbol() >= model->size()) {
    model->resize(component.MaxSymbol() + 1, 0);
  }
  component.ForEach([&](unsigned sym) {
    (*model)[sym] = sym < component_model_.size() ? component_model_[sym] : 0;
  });
  return result;
}

}  // namespace overify
