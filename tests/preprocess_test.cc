// The constraint-preprocessing pipeline and the prefix-aware counterexample
// cache (src/symex/preprocess.h, docs/engine.md):
//  - property tests that preprocessing preserves satisfiability and model
//    validity against the unpreprocessed solver on randomized constraint
//    sets,
//  - regression tests that prefix-cache hits never change verdicts or bug
//    reports.
#include <gtest/gtest.h>

#include "src/driver/compiler.h"
#include "src/frontend/codegen.h"
#include "src/support/rng.h"
#include "src/symex/executor.h"
#include "src/symex/solver.h"

namespace overify {
namespace {

// ---- Substitution over hash-consed nodes.

TEST(SubstituteTest, ReplacesBoundSymbolsAndRefolds) {
  ExprContext ctx;
  std::vector<int16_t> binding = {7, -1};
  SupportSet bound;
  bound.Add(0);

  // s0 + s1 with s0 := 7 folds the constant to the canonical (right) side.
  const Expr* sum = ctx.Binary(ExprKind::kAdd, ctx.ZExt(ctx.Symbol(0), 32),
                               ctx.ZExt(ctx.Symbol(1), 32));
  const Expr* substituted = ctx.Substitute(sum, binding, bound);
  EXPECT_EQ(substituted,
            ctx.Binary(ExprKind::kAdd, ctx.ZExt(ctx.Symbol(1), 32), ctx.Constant(7, 32)));

  // A constraint entirely over bound symbols folds to a constant.
  const Expr* cmp =
      ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(0), ctx.Constant(10, 8));
  EXPECT_TRUE(ctx.Substitute(cmp, binding, bound)->IsTrue());

  // Subtrees disjoint from the bound set pass through untouched.
  const Expr* other = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(1), ctx.Constant(3, 8));
  EXPECT_EQ(ctx.Substitute(other, binding, bound), other);
}

TEST(SubstituteTest, GuardsTrappingConstantFolds) {
  // Substituting a zero divisor must not crash the builder; the raw node is
  // interned and Evaluate defines it as 0 (the enclosing constraint set is
  // contradictory or guarded in real runs).
  ExprContext ctx;
  std::vector<int16_t> binding = {0};
  SupportSet bound;
  bound.Add(0);
  const Expr* div = ctx.Binary(ExprKind::kUDiv, ctx.Constant(8, 8), ctx.Symbol(0));
  const Expr* substituted = ctx.Substitute(div, binding, bound);
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(substituted, {0}), 0u);
}

// ---- Negation canonicalization feeding the range extractor.

TEST(NotCanonicalizationTest, ComparisonDualsRoundTrip) {
  ExprContext ctx;
  const Expr* ult = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(0), ctx.Symbol(1));
  const Expr* not_ult = ctx.Not(ult);
  EXPECT_EQ(not_ult->kind(), ExprKind::kUle);  // ¬(a < b) == b <= a
  EXPECT_EQ(ctx.Not(not_ult), ult);
  const Expr* sle = ctx.Compare(ICmpPredicate::kSLE, ctx.Symbol(0), ctx.Symbol(1));
  EXPECT_EQ(ctx.Not(sle)->kind(), ExprKind::kSlt);
  EXPECT_EQ(ctx.Not(ctx.Not(sle)), sle);
}

// comm_lite's two shapes, built the way the engine builds them: the word
// compare `a - b == 0` on one path and `sext a != sext b` on the next. The
// narrowing compares make them `a == b` and its pointer complement, so the
// engine's path-membership scan settles the second branch without a query
// (the core would refute the pair by enumerating all 65,536 byte pairs).
TEST(NotCanonicalizationTest, CommLiteShapesAreComplements) {
  ExprContext ctx;
  const Expr* a = ctx.Symbol(0);
  const Expr* b = ctx.Symbol(1);
  const Expr* equal = ctx.Compare(
      ICmpPredicate::kEq, ctx.Binary(ExprKind::kSub, ctx.ZExt(a, 32), ctx.ZExt(b, 32)),
      ctx.Constant(0, 32));
  const Expr* differ = ctx.Compare(ICmpPredicate::kNe, ctx.SExt(a, 32), ctx.SExt(b, 32));
  EXPECT_EQ(equal, ctx.Compare(ICmpPredicate::kEq, a, b));
  EXPECT_EQ(differ, ctx.Not(equal));
}

// ---- Randomized equivalence: preprocessed chain vs. raw core solver.

// Random constraints over a handful of byte symbols, biased toward the
// shapes the preprocessor rewrites (equalities and bounds) but including
// arbitrary arithmetic comparisons.
const Expr* RandomConstraint(ExprContext& ctx, Rng& rng, unsigned num_syms) {
  auto sym = [&] { return ctx.Symbol(static_cast<unsigned>(rng.NextBelow(num_syms))); };
  auto byte = [&] { return ctx.Constant(rng.NextBelow(256), 8); };
  switch (rng.NextBelow(6)) {
    case 0:  // byte equality (substitution fodder)
      return ctx.Compare(ICmpPredicate::kEq, sym(), byte());
    case 1:  // upper bound (range fodder)
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kULE, sym(),
                         byte());
    case 2:  // lower bound
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kUGT : ICmpPredicate::kUGE, sym(),
                         byte());
    case 3:  // symbol-symbol comparison
      return ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kEq, sym(),
                         sym());
    case 4: {  // arithmetic relation over widened bytes
      const Expr* a = ctx.ZExt(sym(), 32);
      const Expr* b = ctx.ZExt(sym(), 32);
      const Expr* lhs = ctx.Binary(rng.NextBool() ? ExprKind::kAdd : ExprKind::kXor, a, b);
      return ctx.Compare(ICmpPredicate::kULE, lhs, ctx.Constant(rng.NextBelow(600), 32));
    }
    default: {  // negated form of a simple comparison
      const Expr* inner =
          ctx.Compare(rng.NextBool() ? ICmpPredicate::kULT : ICmpPredicate::kEq, sym(),
                      byte());
      return ctx.Not(inner);
    }
  }
}

TEST(PreprocessPropertyTest, PreservesSatisfiabilityAndModels) {
  Rng rng(0xfeedbead);
  const unsigned kNumSyms = 4;
  for (int round = 0; round < 300; ++round) {
    ExprContext ctx;
    std::vector<const Expr*> constraints;
    const size_t n = 1 + rng.NextBelow(7);
    for (size_t i = 0; i < n; ++i) {
      constraints.push_back(RandomConstraint(ctx, rng, kNumSyms));
    }

    // Ground truth: the raw core solver on the untouched set. Random
    // multi-symbol UNSAT sets can exhaust the candidate budget; only
    // definite verdicts are comparable.
    CoreSolver core;
    SatResult expected = core.CheckSat(ctx, constraints, nullptr);
    if (expected == SatResult::kUnknown) {
      continue;
    }

    // Preprocessed chain, with and without a reusable per-path handle.
    SolverChain chain(ctx);
    std::vector<uint8_t> model;
    PathPrefix handle;
    ASSERT_EQ(chain.CheckSat(constraints, &model, &handle), expected)
        << "round " << round;
    ASSERT_EQ(chain.CheckSat(constraints, nullptr, nullptr), expected)
        << "round " << round << " (one-shot)";
    if (expected == SatResult::kSat) {
      // The model must satisfy every ORIGINAL constraint.
      model.resize(kNumSyms, 0);
      ctx.NewEvaluation();
      for (const Expr* c : constraints) {
        EXPECT_NE(ctx.Evaluate(c, model), 0u) << "round " << round;
      }
    }
  }
}

TEST(PreprocessPropertyTest, IncrementalPrefixMatchesFromScratch) {
  // Growing a constraint sequence one element at a time through a reused
  // handle must answer exactly like a fresh chain at every length — the
  // determinism contract behind work-steal handle invalidation.
  Rng rng(0xabad1dea);
  const unsigned kNumSyms = 4;
  for (int round = 0; round < 60; ++round) {
    ExprContext ctx;
    SolverChain incremental(ctx);
    PathPrefix handle;
    std::vector<const Expr*> constraints;
    for (size_t len = 1; len <= 6; ++len) {
      constraints.push_back(RandomConstraint(ctx, rng, kNumSyms));
      SolverChain fresh(ctx);
      SatResult a = incremental.CheckSat(constraints, nullptr, &handle);
      SatResult b = fresh.CheckSat(constraints, nullptr, nullptr);
      ASSERT_EQ(a, b) << "round " << round << " len " << len;
      if (a == SatResult::kUnsat) {
        break;  // a dead path never grows in the engine
      }
    }
  }
}

TEST(PreprocessPropertyTest, MayBeTrueAgreesWithUnpreprocessedChain) {
  Rng rng(0x5eed5eed);
  const unsigned kNumSyms = 4;
  for (int round = 0; round < 200; ++round) {
    ExprContext ctx;
    std::vector<const Expr*> path;
    const size_t n = rng.NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      path.push_back(RandomConstraint(ctx, rng, kNumSyms));
    }
    // MayBeTrue's contract assumes a satisfiable path.
    CoreSolver core;
    if (core.CheckSat(ctx, path, nullptr) != SatResult::kSat) {
      continue;
    }
    const Expr* cond = RandomConstraint(ctx, rng, kNumSyms);
    SolverChain with(ctx);
    SolverChain without(ctx);
    without.set_preprocessing(false);
    EXPECT_EQ(with.MayBeTrue(path, cond, nullptr), without.MayBeTrue(path, cond, nullptr))
        << "round " << round;
  }
}

// ---- Prefix-cache behavior.

TEST(PrefixCacheTest, SubsetSupersetAndExtensionHits) {
  ExprContext ctx;
  SolverChain chain(ctx);
  auto ult = [&](unsigned s, uint64_t c) {
    return ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(s), ctx.Constant(c, 8));
  };
  // Symbol-symbol constraints are opaque to the range extractor, so these
  // exercise the cache rather than the presolver.
  const Expr* rel01 = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(0), ctx.Symbol(1));
  const Expr* rel10 = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(1), ctx.Symbol(0));
  const Expr* rel12 = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(1), ctx.Symbol(2));

  // UNSAT set cached; a superset query must be answered from the subset.
  std::vector<const Expr*> pair = {rel01, rel10};
  ASSERT_EQ(chain.CheckSat(pair, nullptr), SatResult::kUnsat);
  std::vector<const Expr*> wider = {rel01, rel10, ult(3, 100)};
  EXPECT_EQ(chain.CheckSat(wider, nullptr), SatResult::kUnsat);
  EXPECT_GE(chain.metrics().Get(Counter::kPrefixSubsetHits), 1u);

  // SAT prefix cached; the depth-k+1 extension reuses/extends its model.
  std::vector<const Expr*> grow = {rel01};
  std::vector<uint8_t> model;
  ASSERT_EQ(chain.CheckSat(grow, &model, nullptr), SatResult::kSat);
  uint64_t core_before = chain.metrics().Get(Counter::kSolverCoreQueries);
  grow.push_back(rel12);
  ASSERT_EQ(chain.CheckSat(grow, &model, nullptr), SatResult::kSat);
  EXPECT_GE(chain.metrics().Get(Counter::kPrefixModelHits) +
                chain.metrics().Get(Counter::kPrefixSupersetHits) +
                chain.metrics().Get(Counter::kSolverCoreQueries) - core_before,
            1u);
  // SAT superset cached ({rel01, rel12}); its subset is answered with the
  // superset's model without a core search.
  core_before = chain.metrics().Get(Counter::kSolverCoreQueries);
  std::vector<const Expr*> sub = {rel12};
  ASSERT_EQ(chain.CheckSat(sub, &model, nullptr), SatResult::kSat);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverCoreQueries), core_before);
  EXPECT_GE(chain.metrics().Get(Counter::kPrefixSupersetHits), 1u);
  ctx.NewEvaluation();
  EXPECT_NE(ctx.Evaluate(rel12, model), 0u);
}

// ---- Regression: prefix-cache hits never change bug reports.

std::unique_ptr<Module> CompileOrDie(const std::string& source) {
  DiagnosticEngine diags;
  auto m = CompileMiniC(source, "preprocess_test", diags);
  EXPECT_NE(m, nullptr) << diags.ToString();
  return m;
}

void ExpectSameOutcome(const SymexResult& a, const SymexResult& b, const std::string& label) {
  EXPECT_EQ(a.exhausted, b.exhausted) << label;
  for (Counter c : {Counter::kPathsCompleted, Counter::kPathsInfeasible, Counter::kPathsBug}) {
    EXPECT_EQ(a.metrics.Get(c), b.metrics.Get(c)) << label << " " << CounterName(c);
  }
  ASSERT_EQ(a.bugs.size(), b.bugs.size()) << label;
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].kind, b.bugs[i].kind) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].site, b.bugs[i].site) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].message, b.bugs[i].message) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].example_input, b.bugs[i].example_input) << label << " bug " << i;
  }
}

TEST(PreprocessRegressionTest, BugReportsIdenticalWithAndWithoutPreprocessing) {
  const char* kPrograms[] = {
      // Division guarded behind byte equalities (substitution territory).
      R"(
        int umain(unsigned char *in, int n) {
          int d = in[0] - 'a';
          if (in[1] == 'q') { return in[2] / d; }
          return 0;
        }
      )",
      // Bounds bug reached through range-constrained loop walking.
      R"(
        int umain(unsigned char *in, int n) {
          unsigned char buf[4];
          int i = 0;
          for (; in[i]; i++) {
            buf[i] = in[i];
          }
          if (in[0] == 'd') { return 10 / (in[1] - 'x'); }
          __check(in[2] != '!', "bang rejected");
          return buf[0] + i;
        }
      )",
      // Deep comparisons: every branch is a range fact.
      R"(
        int umain(unsigned char *in, int n) {
          int score = 0;
          if (in[0] > 'm') { score += 1; }
          if (in[0] > 'p') { score += 2; }
          if (in[0] < 'c') { score += 4; }
          if (in[1] >= '0' && in[1] <= '9') { score += 8; }
          if (in[0] == in[2]) { score += 16; }
          return score;
        }
      )",
  };
  SymexLimits limits;
  for (const char* source : kPrograms) {
    auto m = CompileOrDie(source);
    SymexOptions on;
    SymexOptions off;
    off.solver_preprocess = false;
    SymexResult with = SymbolicExecutor(*m, on).Run("umain", 3, limits);
    SymexResult without = SymbolicExecutor(*m, off).Run("umain", 3, limits);
    EXPECT_TRUE(with.exhausted);
    ExpectSameOutcome(with, without, source);
    // Rerunning with preprocessing (warm caches inside a fresh executor,
    // same module) must also be stable.
    SymexResult again = SymbolicExecutor(*m, on).Run("umain", 3, limits);
    ExpectSameOutcome(with, again, "rerun");
  }
}

}  // namespace
}  // namespace overify
