// CDCL machinery in the core backtracking solver (src/symex/solver.cc,
// docs/solver.md): in-query clause learning, conflict-directed
// backjumping, and caller-supplied domain facts.
//
// The load-bearing property throughout is docs/solver.md#determinism:
// learning may only ever skip NON-models, so the verdict and the first
// model in the fixed (level, value) order are invariant across learning
// on/off and clause-store sizes. The randomized suites check that
// invariance directly and against an exhaustive reference; CMakeLists
// labels this binary "tier1;solver" so the solver CI job can run it alone.
#include <gtest/gtest.h>

#include <vector>

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
};

// Random constraints over two byte symbols, weighted toward the shapes the
// core search's pruning layers act on: unary bounds (domain sweep), byte
// equalities, and non-unary arithmetic relations (clause learning fodder).
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

// Learning on and off must return the same verdict AND the same model —
// clause pruning only skips assignments that cannot be models, so the
// first model in the fixed search order is reached either way.
TEST_F(CdclTest, LearningToggleKeepsVerdictAndCanonicalModel) {
  Rng rng(0xab1e5eed);
  for (int round = 0; round < 80; ++round) {
    std::vector<const Expr*> constraints;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(RandomConstraint2(ctx, rng));
    }

    CoreSolver with, without;
    CdclConfig off;
    off.learning = false;
    without.set_config(off);
    std::vector<uint8_t> model_with, model_without;
    SatResult a = with.CheckSat(ctx, constraints, &model_with);
    SatResult b = without.CheckSat(ctx, constraints, &model_without);
    ASSERT_EQ(a, b) << "round " << round;
    if (a == SatResult::kSat) {
      EXPECT_EQ(model_with, model_without) << "round " << round;
    }
  }
}

// The clause-store size is a performance knob only: every capacity,
// including ones small enough to compact every few adds, returns the
// default config's verdict and model.
TEST_F(CdclTest, ClauseCapacityIsResultInvariant) {
  Rng rng(0x1b9f00d5);
  const size_t capacities[] = {4, 16, 64, 512};
  for (int round = 0; round < 40; ++round) {
    std::vector<const Expr*> constraints;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(RandomConstraint2(ctx, rng));
    }

    CoreSolver reference;
    std::vector<uint8_t> expected_model;
    SatResult expected = reference.CheckSat(ctx, constraints, &expected_model);
    for (size_t capacity : capacities) {
      CdclConfig config;
      config.clause_capacity = capacity;
      CoreSolver solver;
      solver.set_config(config);
      std::vector<uint8_t> model;
      ASSERT_EQ(solver.CheckSat(ctx, constraints, &model), expected)
          << "round " << round << " capacity " << capacity;
      if (expected == SatResult::kSat) {
        EXPECT_EQ(model, expected_model) << "round " << round << " capacity " << capacity;
      }
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

// ---- Golden search counters: the clause store's exact behaviour.

// 4-6 byte symbols, each bounded by a unary constraint (the domain sweep
// keeps the enumeration small), tied by product / sum / xor relations over
// arbitrary symbol pairs: conflicts learn multi-literal clauses whose
// deepest literals spread over many (level, value) buckets.
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

// Which stored clause fires first decides whose hit count grows and the
// blame mask it contributes, and hit counts decide what compaction keeps,
// so every counter below moves if the store ever consults clauses in a
// different order or compacts them in a different one. Capacities 4 and 8
// compact every few adds. One solver per configuration answers all six
// queries, so the store's buffers are reused across queries too.
TEST_F(CdclTest, GoldenSearchCountersAcrossClauseCapacities) {
  struct Golden {
    size_t capacity;
    uint64_t candidates, conflicts, learned, learned_hits, backjumps;
  };
  const Golden goldens[] = {
      {512, 31451, 12588, 8535, 5561, 4},
      {4, 30792, 11743, 13158, 0, 12},
      {8, 30792, 11743, 13158, 0, 12},
  };
  // Verdicts and the one model: identical at every capacity.
  const SatResult verdicts[] = {SatResult::kUnsat, SatResult::kUnsat, SatResult::kUnsat,
                                SatResult::kUnsat, SatResult::kSat, SatResult::kUnsat};
  const std::vector<uint8_t> sat_model = {0, 0, 0, 7, 10};
  Rng rng(6);
  std::vector<std::vector<const Expr*>> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(GoldenQuery(ctx, rng));
  }
  for (const Golden& g : goldens) {
    CdclConfig config;
    config.clause_capacity = g.capacity;
    CoreSolver core;
    core.set_config(config);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<uint8_t> model;
      ASSERT_EQ(core.CheckSat(ctx, queries[i], &model), verdicts[i])
          << "capacity " << g.capacity << " query " << i;
      if (verdicts[i] == SatResult::kSat) {
        EXPECT_EQ(model, sat_model) << "capacity " << g.capacity;
      }
    }
    EXPECT_EQ(core.candidates_tried(), g.candidates) << "capacity " << g.capacity;
    EXPECT_EQ(core.conflicts(), g.conflicts) << "capacity " << g.capacity;
    EXPECT_EQ(core.learned(), g.learned) << "capacity " << g.capacity;
    EXPECT_EQ(core.learned_hits(), g.learned_hits) << "capacity " << g.capacity;
    EXPECT_EQ(core.backjumps(), g.backjumps) << "capacity " << g.capacity;
  }
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

// ---- Learning through the chain.

// A chain with learning on and one with it off return the same verdicts
// and the same model, and only the learning chain stores clauses.
TEST_F(CdclTest, ChainLearningToggleKeepsVerdicts) {
  const Expr* product =
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kMul, W(0), W(1)), C(391, 32));
  const Expr* cap = ctx.Compare(ICmpPredicate::kULT, Sym(0), C(17));  // kills 17 * 23

  SolverChain learning(ctx), frozen(ctx);
  frozen.set_learning(false);

  std::vector<const Expr*> q1 = {product};
  std::vector<const Expr*> q2 = {product, cap};
  std::vector<uint8_t> m1, m2;
  ASSERT_EQ(learning.CheckSat(q1, &m1), SatResult::kSat);
  ASSERT_EQ(frozen.CheckSat(q1, &m2), SatResult::kSat);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(learning.CheckSat(q2, nullptr), SatResult::kUnsat);
  EXPECT_EQ(frozen.CheckSat(q2, nullptr), SatResult::kUnsat);

  EXPECT_GT(learning.metrics().Get(Counter::kSolverCoreConflicts), 0u);
  EXPECT_GT(learning.metrics().Get(Counter::kSolverCoreLearned), 0u);
  EXPECT_EQ(frozen.metrics().Get(Counter::kSolverCoreLearned), 0u);
}

// ---- Engine-level determinism with learning enabled.

// 1-vs-4-worker runs must be bit-identical with learning on: which queries
// reach a worker's core is schedule-dependent, so this holds only because
// pruning cannot change verdicts and bug-report models come from
// CheckSatCanonical (no ranges). The full lattice
// sweeps this axis suite-wide; this is the focused solver-level slice.
TEST(CdclEngineTest, WorkersAgreeBitIdenticalWithLearningEnabled) {
  difftest::DiffOptions options;
  options.levels = {OptLevel::kOverify};
  options.jobs = {1, 4};
  options.preprocess = {true};
  options.learning = {true};
  options.strategies = {SearchStrategy::kDfs};
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

// ---- Canary (registered separately in CMakeLists: label `solver` only).

// The solver-hostile workload that motivated the CDCL core: factor at its
// full default width runs trial-division srem queries whose UNSAT cores
// span several bytes. The run must exhaust under a wall ceiling — a
// regression in learning, backjumping or domain seeding shows up here
// as a blown deadline long before the full lattice job notices. Since
// -OVERIFY keeps atoi's sign branch (no select-indexed digit loads), a
// Release build exhausts in about 1 s and still learns about 1.1M clauses;
// the core-search assertions keep a cheaper pipeline from turning this into
// a test that never reaches the learning core.
TEST(CdclCanaryTest, FactorStyleDivisionAtFullWidthExhausts) {
  const Workload* workload = FindWorkload("factor");
  ASSERT_NE(workload, nullptr);
  difftest::DiffOptions options;
  options.levels = {OptLevel::kOverify};
  options.jobs = {1};
  options.preprocess = {true};
  options.learning = {true};
  options.strategies = {SearchStrategy::kDfs};
  options.limits.max_paths = 400000;
  options.limits.max_seconds = 300;  // wall ceiling; Release exhausts far under
  difftest::DiffReport report = difftest::RunDifferential(*workload, /*sym_bytes=*/0, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.exhausted) << cell.cell.Name();
    EXPECT_GT(cell.metrics.Get(Counter::kSolverCoreConflicts), 0u) << cell.cell.Name();
    EXPECT_GT(cell.metrics.Get(Counter::kSolverCoreLearned), 0u) << cell.cell.Name();
  }
}

}  // namespace
}  // namespace overify
