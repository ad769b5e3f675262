// CDCL machinery in the core backtracking solver (src/symex/solver.cc,
// docs/solver.md): unit nogoods folded into the domains, conflict-directed
// backjumping, and caller-supplied domain facts.
//
// The load-bearing property throughout is docs/solver.md#determinism:
// pruning may only ever skip NON-models, so the verdict and the model are
// the first model in the fixed (level, value) order. The randomized suites
// check both against an exhaustive reference; CMakeLists labels this binary
// "tier1;solver" so the solver CI job can run it alone.
#include <gtest/gtest.h>

#include <bitset>
#include <vector>

#include "src/driver/compiler.h"
#include "src/support/rng.h"
#include "src/symex/solver.h"
#include "src/testing/diff_harness.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

class CdclTest : public ::testing::Test {
 protected:
  ExprContext ctx;

  const Expr* Sym(unsigned i) { return ctx.Symbol(i); }
  const Expr* C(uint64_t v, unsigned w = 8) { return ctx.Constant(v, w); }
  const Expr* W(unsigned i) { return ctx.ZExt(Sym(i), 32); }

  // True iff `bytes` satisfies every constraint.
  bool Satisfies(const std::vector<const Expr*>& constraints,
                 const std::vector<uint8_t>& bytes) {
    ctx.NewEvaluation();
    for (const Expr* c : constraints) {
      if (ctx.Evaluate(c, bytes) == 0) {
        return false;
      }
    }
    return true;
  }

  // The first model in the documented search order, by brute force over two
  // byte symbols: each symbol in the support runs through DocumentedOrder
  // of its seeded domain — the values its unary constraints admit — with
  // symbol 0 outermost; a symbol outside the support stays 0. Empty when
  // the set has no model.
  std::vector<uint8_t> DocumentedFirstModel(const std::vector<const Expr*>& constraints);
};

// Random constraints over two byte symbols, weighted toward the shapes the
// core search's pruning layers act on: unary bounds (domain sweep), byte
// equalities, and non-unary arithmetic relations (conflicts and backjumps).
const Expr* RandomConstraint2(ExprContext& ctx, Rng& rng) {
  auto sym = [&] { return ctx.Symbol(static_cast<unsigned>(rng.NextBelow(2))); };
  auto wide = [&](const Expr* e) { return ctx.ZExt(e, 32); };
  auto byte = [&] { return ctx.Constant(rng.NextBelow(256), 8); };
  switch (rng.NextBelow(6)) {
    case 0:
      return ctx.Compare(ICmpPredicate::kEq, sym(), byte());
    case 1:
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kULE, sym(),
                         byte());
    case 2:
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kUGT : ICmpPredicate::kUGE, sym(),
                         byte());
    case 3: {  // sum / xor relation (support spans both symbols)
      const Expr* lhs = ctx.Binary(rng.NextBool() ? ExprKind::kAdd : ExprKind::kXor,
                                   wide(ctx.Symbol(0)), wide(ctx.Symbol(1)));
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kEq : ICmpPredicate::kULE, lhs,
                         ctx.Constant(rng.NextBelow(520), 32));
    }
    case 4: {  // product relation (conflict-heavy)
      const Expr* lhs =
          ctx.Binary(ExprKind::kMul, wide(ctx.Symbol(0)), wide(ctx.Symbol(1)));
      return ctx.Compare(ICmpPredicate::kEq, lhs, ctx.Constant(rng.NextBelow(1024), 32));
    }
    default:
      return ctx.Not(ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kEq,
                                 sym(), byte()));
  }
}

// ---- Soundness against an exhaustive reference.

// The CDCL core's verdict must match brute-force enumeration of all 256^2
// assignments, and every SAT model must actually satisfy the original set.
TEST_F(CdclTest, RandomizedVerdictsMatchExhaustiveReference) {
  Rng rng(0xcdc1cdc1);
  for (int round = 0; round < 120; ++round) {
    std::vector<const Expr*> constraints;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(RandomConstraint2(ctx, rng));
    }

    bool reference_sat = false;
    std::vector<uint8_t> bytes(2);
    for (unsigned a = 0; a < 256 && !reference_sat; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        bytes[0] = static_cast<uint8_t>(a);
        bytes[1] = static_cast<uint8_t>(b);
        if (Satisfies(constraints, bytes)) {
          reference_sat = true;
          break;
        }
      }
    }

    CoreSolver core;
    std::vector<uint8_t> model;
    SatResult got = core.CheckSat(ctx, constraints, &model);
    ASSERT_NE(got, SatResult::kUnknown) << "round " << round;
    EXPECT_EQ(got == SatResult::kSat, reference_sat) << "round " << round;
    if (got == SatResult::kSat) {
      model.resize(2, 0);
      EXPECT_TRUE(Satisfies(constraints, model)) << "round " << round;
    }
  }
}

// ---- docs/solver.md#determinism: results are a pure function of the set.

// The documented value order of a level whose seeded domain is `domain`:
// its lowest and highest values, then the global preference order
// (docs/solver.md#determinism), restricted to the domain.
std::vector<uint8_t> DocumentedOrder(const std::bitset<256>& domain) {
  std::vector<uint8_t> order;
  if (domain.none()) {
    return order;
  }
  unsigned lo = 0;
  unsigned hi = 255;
  while (!domain[lo]) {
    ++lo;
  }
  while (!domain[hi]) {
    --hi;
  }
  order.push_back(static_cast<uint8_t>(lo));
  if (hi != lo) {
    order.push_back(static_cast<uint8_t>(hi));
  }
  const uint8_t preferred[] = {0, 'a', ' ', '0', 'z', 'A', '\n', '\t', 1, 255, '9', '-', '.'};
  std::vector<bool> seen(256, false);
  seen[lo] = seen[hi] = true;
  auto add = [&](uint8_t v) {
    if (!seen[v] && domain[v]) {
      order.push_back(v);
    }
    seen[v] = true;
  };
  for (uint8_t v : preferred) {
    add(v);
  }
  for (unsigned v = 0; v < 256; ++v) {
    add(static_cast<uint8_t>(v));
  }
  return order;
}

std::vector<uint8_t> CdclTest::DocumentedFirstModel(const std::vector<const Expr*>& constraints) {
  std::vector<uint8_t> orders[2];
  for (unsigned sym = 0; sym < 2; ++sym) {
    bool in_support = false;
    std::bitset<256> domain;
    domain.set();
    for (const Expr* c : constraints) {
      if (!c->Support().Contains(sym)) {
        continue;
      }
      in_support = true;
      if (c->Support().Size() != 1) {
        continue;
      }
      for (unsigned v = 0; v < 256; ++v) {
        std::vector<uint8_t> bytes(2, 0);
        bytes[sym] = static_cast<uint8_t>(v);
        if (!Satisfies({c}, bytes)) {
          domain.reset(v);
        }
      }
    }
    orders[sym] = in_support ? DocumentedOrder(domain) : std::vector<uint8_t>{0};
  }
  for (uint8_t s0 : orders[0]) {
    for (uint8_t s1 : orders[1]) {
      if (Satisfies(constraints, {s0, s1})) {
        return {s0, s1};
      }
    }
  }
  return {};
}

// The core returns exactly the reference's verdict and first model: every
// pruning device — unary sweeps, unit nogoods, backjumping, interval
// pruning — only skips assignments that cannot be models.
TEST_F(CdclTest, RandomizedModelsAreTheDocumentedFirstModel) {
  Rng rng(0xab1e5eed);
  size_t sat = 0;
  for (int round = 0; round < 80; ++round) {
    std::vector<const Expr*> constraints;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(RandomConstraint2(ctx, rng));
    }
    const std::vector<uint8_t> reference = DocumentedFirstModel(constraints);

    CoreSolver core;
    std::vector<uint8_t> model;
    const SatResult got = core.CheckSat(ctx, constraints, &model);
    ASSERT_EQ(got, reference.empty() ? SatResult::kUnsat : SatResult::kSat) << "round " << round;
    if (got == SatResult::kSat) {
      model.resize(2, 0);
      EXPECT_EQ(model, reference) << "round " << round;
      ++sat;
    }
  }
  EXPECT_GT(sat, 0u);
  EXPECT_LT(sat, 80u);
}

// A query long enough to switch on derived domains, whose narrowing must
// only filter the value lists, never hoist the narrowed endpoints to the
// front (which returned (191, 146)): the core agrees with a reference
// enumeration in the documented order.
TEST_F(CdclTest, DerivedDomainsKeepTheDocumentedFirstModel) {
  const std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kMul, W(0), W(1)), C(27886, 32)),
      ctx.Compare(ICmpPredicate::kULE, Sym(0), C(192)),
      ctx.Compare(ICmpPredicate::kULE, ctx.Binary(ExprKind::kXor, W(0), W(1)), C(199, 32)),
  };
  const std::vector<uint8_t> reference = DocumentedFirstModel(constraints);
  ASSERT_EQ(reference, (std::vector<uint8_t>{146, 191}));

  CoreSolver core;
  std::vector<uint8_t> model;
  ASSERT_EQ(core.CheckSat(ctx, constraints, &model), SatResult::kSat);
  EXPECT_EQ(model, reference);
  // One unary sweep (256) plus the derived-domains trigger (4096).
  EXPECT_GE(core.candidates_tried(), 256u + 4096u) << "derived domains never switched on";
}

// ---- The unary-domain memo keeps the core history-free.

// One reused core (warm memo) and a fresh core per query (cold memo) must
// answer a stream of queries identically, verdicts and models, under the
// default budget and under budgets tight enough to give up on some
// queries. Queries draw from a small pool of constraints, so unary ones
// recur and the reused core meets them warm. The stream switches interners
// midway: memo entries are keyed by Expr pointers, which a later interner
// may reuse for other expressions.
TEST(UnaryMemoTest, ReusedCoreAnswersLikeAFreshOne) {
  for (uint64_t budget : {uint64_t{1} << 22, uint64_t{300}, uint64_t{700}}) {
    CoreSolver reused;
    uint64_t unknowns = 0;
    Rng rng(0x3e3a0 + budget);
    for (int epoch = 0; epoch < 2; ++epoch) {
      ExprContext ctx;
      std::vector<const Expr*> pool;
      for (int i = 0; i < 16; ++i) {
        pool.push_back(RandomConstraint2(ctx, rng));
      }
      for (int round = 0; round < 150; ++round) {
        std::vector<const Expr*> constraints;
        const size_t n = 1 + rng.NextBelow(4);
        for (size_t i = 0; i < n; ++i) {
          constraints.push_back(pool[rng.NextBelow(pool.size())]);
        }
        CoreSolver fresh;
        std::vector<uint8_t> warm_model, cold_model;
        const SatResult warm = reused.CheckSat(ctx, constraints, &warm_model, budget);
        const SatResult cold = fresh.CheckSat(ctx, constraints, &cold_model, budget);
        ASSERT_EQ(warm, cold) << "budget " << budget << " epoch " << epoch << " round "
                              << round;
        if (warm == SatResult::kSat) {
          EXPECT_EQ(warm_model, cold_model)
              << "budget " << budget << " epoch " << epoch << " round " << round;
        }
        unknowns += warm == SatResult::kUnknown ? 1 : 0;
      }
    }
    if (budget < 1000) {
      EXPECT_GT(unknowns, 0u) << "budget " << budget << " never bound";
    }
  }
}

// ---- Backjumping.

// s0 >= 200, s1 unconstrained, s2 == s0 with s2 < 100: every s2 value
// conflicts through constraints whose support is {s0, s2} only, so
// exhausting the s2 level must jump straight over the s1 level back to s0
// (a non-chronological jump, counted once per skipped-level unwind).
TEST_F(CdclTest, BackjumpSkipsAnUnconstrainedMiddleLevel) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kUGE, Sym(0), C(200)),
      ctx.Compare(ICmpPredicate::kULE, Sym(1), C(255)),  // keeps s1 in support
      ctx.Compare(ICmpPredicate::kEq, Sym(2), Sym(0)),
      ctx.Compare(ICmpPredicate::kULT, Sym(2), C(100)),
  };
  CoreSolver core;
  EXPECT_EQ(core.CheckSat(ctx, constraints, nullptr), SatResult::kUnsat);
  EXPECT_GT(core.conflicts(), 0u);
  EXPECT_GT(core.backjumps(), 0u);
}

// ---- Golden search counters: the search's exact behaviour.

// 4-6 byte symbols, each bounded by a unary constraint (the domain sweep
// keeps the enumeration small), tied by product / sum / xor relations over
// arbitrary symbol pairs: conflicts carry multi-level blame masks, so
// backjumps and unit nogoods both fire.
std::vector<const Expr*> GoldenQuery(ExprContext& ctx, Rng& rng) {
  const unsigned n = 4 + static_cast<unsigned>(rng.NextBelow(3));
  auto wide = [&](unsigned i) { return ctx.ZExt(ctx.Symbol(i), 32); };
  std::vector<const Expr*> q;
  for (unsigned i = 0; i < n; ++i) {
    q.push_back(ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(i),
                            ctx.Constant(6 + rng.NextBelow(8), 8)));
  }
  const unsigned relations = 2 + static_cast<unsigned>(rng.NextBelow(2));
  for (unsigned r = 0; r < relations; ++r) {
    const unsigned a = static_cast<unsigned>(rng.NextBelow(n));
    const unsigned b = static_cast<unsigned>((a + 1 + rng.NextBelow(n - 1)) % n);
    const unsigned c = static_cast<unsigned>(rng.NextBelow(n));
    const Expr* lhs = nullptr;
    switch (rng.NextBelow(3)) {
      case 0:
        lhs = ctx.Binary(ExprKind::kAdd, ctx.Binary(ExprKind::kMul, wide(a), wide(b)), wide(c));
        break;
      case 1:
        lhs = ctx.Binary(ExprKind::kXor, ctx.Binary(ExprKind::kAdd, wide(a), wide(b)), wide(c));
        break;
      default:
        lhs = ctx.Binary(ExprKind::kAdd, ctx.Binary(ExprKind::kXor, wide(a), wide(b)),
                         ctx.Binary(ExprKind::kMul, wide(c), wide((c + 1) % n)));
        break;
    }
    q.push_back(ctx.Compare(ICmpPredicate::kEq, lhs, ctx.Constant(rng.NextBelow(64), 32)));
  }
  return q;
}

// Every counter below moves if the search ever tries values in another
// order, blames a conflict on other levels, or keeps other nogoods. One
// solver answers all six queries, so its buffers are reused across queries
// too, and the unary-domain memo spares the repeated bounds their sweeps
// (candidates only: the memo is never charged to a budget and changes no
// result).
TEST_F(CdclTest, GoldenSearchCounters) {
  const SatResult verdicts[] = {SatResult::kUnsat, SatResult::kUnsat, SatResult::kUnsat,
                                SatResult::kUnsat, SatResult::kSat, SatResult::kUnsat};
  const std::vector<uint8_t> sat_model = {0, 0, 0, 7, 10};
  Rng rng(6);
  CoreSolver core;
  for (size_t i = 0; i < 6; ++i) {
    const std::vector<const Expr*> query = GoldenQuery(ctx, rng);
    std::vector<uint8_t> model;
    ASSERT_EQ(core.CheckSat(ctx, query, &model), verdicts[i]) << "query " << i;
    if (verdicts[i] == SatResult::kSat) {
      EXPECT_EQ(model, sat_model);
    }
  }
  EXPECT_EQ(core.candidates_tried(), 29512u);
  EXPECT_EQ(core.conflicts(), 11743u);
  EXPECT_EQ(core.learned(), 56u);
  EXPECT_EQ(core.backjumps(), 12u);
}

// ---- Caller-supplied domain facts (docs/solver.md#domains).

// Range facts from SearchExtras excise values from the per-level domains
// before any candidate is evaluated. The constraint here is non-unary, so
// the in-core unary sweep cannot discover the bounds on its own — the
// candidate-count gap isolates the caller-fact path. (In production the
// preprocessor only passes facts implied by the constraint set; this test
// supplies them directly and checks the mechanics.)
TEST_F(CdclTest, CallerRangeFactsNarrowTheSearchDomains) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAdd, W(0), W(1)), C(210, 32)),
  };
  std::vector<UInterval> ranges = {{100, 110}, {100, 110}};
  CoreSolver::SearchExtras extras;
  extras.ranges = &ranges;

  CoreSolver narrowed, blind;
  std::vector<uint8_t> model;
  ASSERT_EQ(narrowed.CheckSat(ctx, constraints, &model, 1 << 22, nullptr, nullptr, &extras),
            SatResult::kSat);
  model.resize(2, 0);
  EXPECT_TRUE(Satisfies(constraints, model));
  EXPECT_GE(model[0], 100);
  EXPECT_LE(model[0], 110);

  ASSERT_EQ(blind.CheckSat(ctx, constraints, nullptr), SatResult::kSat);
  EXPECT_LT(narrowed.candidates_tried(), blind.candidates_tried());
}

// The unary-constraint sweep narrows domains before the search proper:
// with s0 < 10 the product enumeration is bounded by the narrowed domain,
// nowhere near the naive 256 x 256.
TEST_F(CdclTest, UnaryConstraintSweepNarrowsDomainsBeforeSearch) {
  std::vector<const Expr*> constraints = {
      ctx.Compare(ICmpPredicate::kULT, Sym(0), C(10)),
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAdd, W(0), W(1)), C(264, 32)),
  };
  CoreSolver core;
  std::vector<uint8_t> model;
  ASSERT_EQ(core.CheckSat(ctx, constraints, &model), SatResult::kSat);
  model.resize(2, 0);
  EXPECT_TRUE(Satisfies(constraints, model));
  EXPECT_LT(core.candidates_tried(), 600u) << "unary sweep failed to narrow s0";
}

// ---- Engine-level determinism.

// 1-vs-4-worker runs must be bit-identical: which queries reach a worker's
// core is schedule-dependent, so this holds only because pruning cannot
// change verdicts and bug-report models come from CheckSatCanonical (no
// ranges). The full lattice sweeps this axis suite-wide; this is the
// focused solver-level slice.
TEST(CdclEngineTest, WorkersAgreeBitIdenticalWithLearningEnabled) {
  difftest::DiffOptions options;
  options.levels = {OptLevel::kOverify};
  options.jobs = {1, 4};
  options.limits.max_seconds = 60;
  difftest::DiffReport report = difftest::RunDifferential("cdcl_workers", R"(
    int umain(unsigned char *in, int n) {
      int d = in[0] - 'a';
      if (in[1] == 'q') { return in[2] / d; }   /* d == 0 when in[0] == 'a' */
      return 0;
    }
  )",
                                                          3, options);
  EXPECT_TRUE(report.ok) << report.diff;
  ASSERT_EQ(report.cells.size(), 2u);
  for (const auto& cell : report.cells) {
    ASSERT_FALSE(cell.signature.bugs.empty()) << cell.cell.Name();
    EXPECT_TRUE(cell.signature.bugs.front().confirmed) << cell.cell.Name();
  }
}

// ---- The core-search hot spots of the suite.

// The three programs that once took 85% of the -OVERIFY suite's core
// candidates (2.0M of 2.3M): sort_chars's byte-order chains, comm_lite's
// `a == b` next to `a != b`, and cksum_wide's per-query unary sweeps. Their
// path counts are pinned, and their core candidates bounded well above
// today's 5k / 7.5k / 40k and far below the old 822k / 406k / 731k, so a
// lost narrowing compare, byte-order bound or unary memo fails here instead
// of only in the end-to-end counter gate.
TEST(CoreHotSpotTest, OverifySuiteHotSpotsStayCheap) {
  struct HotSpot {
    const char* name;
    unsigned sym_bytes;
    uint64_t paths;
  };
  const HotSpot hot_spots[] = {
      {"sort_chars", 5, 154}, {"comm_lite", 6, 22}, {"cksum_wide", 72, 145}};
  for (const HotSpot& spot : hot_spots) {
    const Workload* workload = FindWorkload(spot.name);
    ASSERT_NE(workload, nullptr) << spot.name;
    CompileResult compiled = Compiler().Compile(workload->source, OptLevel::kOverify, spot.name);
    SymexLimits limits;
    limits.max_paths = 30000;
    const SymexResult result = Analyze(compiled, "umain", spot.sym_bytes, limits);
    EXPECT_TRUE(result.exhausted) << spot.name;
    EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), spot.paths) << spot.name;
    EXPECT_LE(result.metrics.Get(Counter::kSolverCoreCandidates), 50000u) << spot.name;
  }
}

// ---- Evaluation cost per candidate.

// cksum_wide's query shape: a 72-byte running 16-bit sum and a parity
// constraint over all of it. The evaluation program memoizes each node
// until a byte it depends on changes (docs/solver.md, "The evaluation
// program"), so placing a value at the deepest level recomputes that
// level's few nodes and not the 200-node sum below them.
class RunningSumCostTest : public CdclTest {
 protected:
  // `unary(b)` constrains every byte; the parity constraint wants an odd
  // sum.
  template <typename Unary>
  std::vector<const Expr*> Query(Unary unary) {
    std::vector<const Expr*> constraints;
    const Expr* sum = C(0, 32);
    for (unsigned i = 0; i < 72; ++i) {
      constraints.push_back(unary(Sym(i)));
      sum = ctx.Binary(ExprKind::kAnd, ctx.Binary(ExprKind::kAdd, sum, W(i)), C(0xFFFF, 32));
    }
    constraints.push_back(ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAnd, sum, C(1, 32)),
                                      C(1, 32)));
    return constraints;
  }
};

TEST_F(RunningSumCostTest, SatisfiableSumKeepsItsModel) {
  // Every byte nonzero: the first model in value order is 71 ones and the
  // first odd-making preferred value, ' ' (the unary sweeps take 72 * 256
  // of the candidates).
  const auto constraints =
      Query([&](const Expr* b) { return ctx.Compare(ICmpPredicate::kNe, b, C(0)); });
  CoreSolver core;
  std::vector<uint8_t> model;
  ASSERT_EQ(core.CheckSat(ctx, constraints, &model), SatResult::kSat);
  std::vector<uint8_t> want(72, 1);
  want[71] = ' ';
  EXPECT_EQ(model, want);
  EXPECT_EQ(core.candidates_tried(), 18507u);
  EXPECT_EQ(core.conflicts(), 3u);
}

TEST_F(RunningSumCostTest, ReadyAtEvaluationIsConstantPerCandidate) {
  // Every byte even: no odd sum exists, intervals cannot tell, and the
  // search spends its budget nearly all at the deepest level, where the
  // parity constraint becomes ready.
  const auto constraints = Query([&](const Expr* b) {
    return ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAnd, b, C(1)), C(0));
  });
  CoreSolver core;
  std::vector<uint8_t> model;
  constexpr uint64_t kBudget = 20000;
  EXPECT_EQ(core.CheckSat(ctx, constraints, &model, kBudget), SatResult::kUnknown);
  EXPECT_EQ(core.candidates_tried(), 72u * 256 + kBudget);
  EXPECT_EQ(core.conflicts(), 10560u);
  // A whole-sum evaluation per candidate would be about 200 computes.
  EXPECT_LT(core.eval_work().computes, 4 * kBudget);
}

// ---- Queries only the preprocessor's byte binding settles.

// seq_range at -O3 parses "<lo>:<hi>" with two inlined atoi calls over 5
// symbolic bytes. These are its two branch queries "is the clamped hi below
// lo?" on paths where strchr found the ':' at in[2], lo has one digit, and
// hi has two digits (or one). Posed to the core over the raw path
// constraints, each uses up the default 4.19M-candidate per-query budget.
// The chain settles both: the byte binding in[2] == ':' substitutes symbol
// 2 out of every other constraint, the binding then forms its own
// independent component, and the core searches the other four bytes
// (docs/solver.md, "What the preprocessor settles").
class SeqRangeQueryTest : public CdclTest {
 protected:
  struct Query {
    std::vector<const Expr*> path;
    const Expr* cond;
  };

  const Expr* Eq(const Expr* a, const Expr* b) { return ctx.Compare(ICmpPredicate::kEq, a, b); }
  const Expr* Ne(const Expr* a, const Expr* b) { return ctx.Compare(ICmpPredicate::kNe, a, b); }
  const Expr* I32(uint64_t v) { return C(v, 32); }
  const Expr* I64(uint64_t v) { return C(v, 64); }
  const Expr* IsDigit(const Expr* c) {
    return ctx.Binary(ExprKind::kAnd, ctx.Compare(ICmpPredicate::kSLE, I32('0'), c),
                      ctx.Compare(ICmpPredicate::kSLE, c, I32('9')));
  }
  // atoi's sign skip at `c`: the digits start one byte later after a '+'.
  const Expr* SignSkip(const Expr* c) { return ctx.Select(Eq(c, I32('+')), I64(1), I64(0)); }
  const Expr* Add(const Expr* a, const Expr* b) { return ctx.Binary(ExprKind::kAdd, a, b); }
  const Expr* Sub(const Expr* a, const Expr* b) { return ctx.Binary(ExprKind::kSub, a, b); }

  Query Build(bool two_digit_hi) {
    // strchr: in[0] and in[1] are neither NUL nor ':', in[2] is ':'.
    const Expr* in0_set = Ne(Sym(0), C(0));
    const Expr* in0_sep = Ne(Sym(0), C(':'));
    const Expr* in1_set = Ne(Sym(1), C(0));
    const Expr* in1_sep = Ne(Sym(1), C(':'));
    const Expr* in2_set = Ne(Sym(2), C(0));
    const Expr* in2_sep = Eq(Sym(2), C(':'));
    // atoi(in): no leading blank or '-', one digit after the optional '+'.
    const Expr* c0 = ctx.SExt(Sym(0), 32);
    const Expr* lo_sign = SignSkip(c0);
    const Expr* lo_start = ctx.Compare(ICmpPredicate::kULE, lo_sign, I64(5));
    const Expr* lo_digit = ctx.ZExt(ctx.Select(Eq(lo_sign, I64(1)), Sym(1), Sym(0)), 32);
    const Expr* lo_next_index = Add(lo_sign, I64(1));
    const Expr* lo_next = ctx.Compare(ICmpPredicate::kULE, lo_next_index, I64(5));
    const Expr* lo_end = ctx.Not(IsDigit(
        ctx.ZExt(ctx.Select(Eq(lo_next_index, I64(2)), Sym(2), Sym(1)), 32)));
    // atoi(in + 3): likewise, with the terminating NUL at in[5].
    const Expr* c3 = ctx.SExt(Sym(3), 32);
    const Expr* hi_sign = SignSkip(c3);
    const Expr* hi_index = Add(hi_sign, I64(3));
    const Expr* hi_start = ctx.Compare(ICmpPredicate::kULE, hi_index, I64(5));
    const Expr* hi_digit0 = ctx.ZExt(ctx.Select(Eq(hi_index, I64(4)), Sym(4), Sym(3)), 32);
    const Expr* hi_step = Add(hi_sign, I64(1));
    const Expr* hi_index1 = Add(hi_step, I64(3));
    const Expr* hi_next = ctx.Compare(ICmpPredicate::kULE, hi_index1, I64(5));
    const Expr* hi_digit1 = ctx.ZExt(ctx.Select(Eq(hi_index1, I64(5)), C(0), Sym(4)), 32);
    const Expr* hi_more = IsDigit(hi_digit1);

    Query q;
    q.path = {in0_set,      in0_sep,      in0_sep,      in1_set,      in1_sep,
              in1_sep,      in2_set,      in2_sep,      Ne(c0, I32(' ')), Ne(c0, I32(' ')),
              Ne(c0, I32('\t')), Ne(c0, I32('\t')), Ne(c0, I32('-')), Ne(c0, I32('-')),
              lo_start,     IsDigit(lo_digit), lo_start, lo_next,     lo_end,
              lo_end,       Ne(c3, I32(' ')), Ne(c3, I32(' ')), Ne(c3, I32('\t')),
              Ne(c3, I32('\t')), Ne(c3, I32('-')), Ne(c3, I32('-')), hi_start,
              IsDigit(hi_digit0), hi_start, hi_next};
    const Expr* lo = Sub(lo_digit, I32('0'));
    const Expr* hi = Sub(hi_digit0, I32('0'));
    if (two_digit_hi) {
      const Expr* hi_index2 = Add(Add(hi_step, I64(1)), I64(3));
      q.path.insert(q.path.end(),
                    {hi_more, hi_next, ctx.Compare(ICmpPredicate::kULE, hi_index2, I64(5))});
      hi = Add(ctx.Binary(ExprKind::kMul, hi, I32(10)), Sub(hi_digit1, I32('0')));
    } else {
      q.path.insert(q.path.end(), {ctx.Not(hi_more), ctx.Not(hi_more)});
    }
    // if (hi - lo > 9) hi = lo + 9; then the loop's first test, negated.
    const Expr* clamped = ctx.Select(ctx.Compare(ICmpPredicate::kSLT, I32(9), Sub(hi, lo)),
                                     Add(lo, I32(9)), hi);
    q.cond = ctx.Compare(ICmpPredicate::kSLT, clamped, lo);
    return q;
  }
};

TEST_F(SeqRangeQueryTest, ChainDecidesBothWithinTheDefaultBudget) {
  for (bool two_digit_hi : {true, false}) {
    SCOPED_TRACE(two_digit_hi ? "lo:hh" : "lo:h");
    const Query q = Build(two_digit_hi);
    // The fact that settles the query: the separator's byte binding.
    ConstraintPreprocessor preprocessor(ctx);
    PathPrefix prefix;
    ASSERT_TRUE(preprocessor.Extend(prefix, q.path));
    ASSERT_GT(prefix.binding.size(), 2u);
    EXPECT_EQ(prefix.binding[2], ':');

    SolverChain chain(ctx);
    QueryControl control;
    control.query_candidates = SymexLimits{}.query_candidates;
    chain.set_control(control);
    std::vector<uint8_t> model;
    ASSERT_EQ(chain.CheckSat(q.path, &model), SatResult::kSat);
    ASSERT_EQ(chain.MayBeTrue(q.path, q.cond, &model), SatResult::kSat);
    std::vector<const Expr*> all = q.path;
    all.push_back(q.cond);
    EXPECT_TRUE(Satisfies(all, model));
    // About 100k (two digits) and 83k (one digit) candidates today, for
    // both queries together.
    EXPECT_LT(chain.metrics().Get(Counter::kSolverCoreCandidates), 200000u);
  }
}

// ---- Canary (registered separately in CMakeLists: label `solver` only).

// The solver-hostile workload that motivated the CDCL core: factor at its
// full default width runs trial-division srem queries whose UNSAT cores
// span several bytes. The run must exhaust within a core-candidate bound
// equal to today's count (1,545,809), so a regression in unit nogoods,
// backjumping or domain seeding fails on a counter on any host, long
// before the full lattice job notices; the wall ceiling is only a safety
// net. A Release build exhausts in about 1 s and learns about 2k unit
// nogoods; the core-search assertions keep a cheaper pipeline from turning
// this into a test that never reaches the learning core.
TEST(CdclCanaryTest, FactorStyleDivisionAtFullWidthExhausts) {
  const Workload* workload = FindWorkload("factor");
  ASSERT_NE(workload, nullptr);
  difftest::DiffOptions options;
  options.levels = {OptLevel::kOverify};
  options.jobs = {1};
  options.limits.max_paths = 400000;
  options.limits.max_seconds = 300;  // safety net; Release exhausts far under
  difftest::DiffReport report = difftest::RunDifferential(*workload, /*sym_bytes=*/0, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.exhausted) << cell.cell.Name();
    EXPECT_GT(cell.metrics.Get(Counter::kSolverCoreConflicts), 0u) << cell.cell.Name();
    EXPECT_LE(cell.metrics.Get(Counter::kSolverCoreCandidates), 1545809u) << cell.cell.Name();
    EXPECT_GT(cell.metrics.Get(Counter::kSolverCoreLearned), 0u) << cell.cell.Name();
  }
}

}  // namespace
}  // namespace overify
