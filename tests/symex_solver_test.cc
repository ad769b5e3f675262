// Tests for the core solver and the KLEE-style solver chain.
#include <gtest/gtest.h>

#include "src/support/fault.h"
#include "src/symex/solver.h"

namespace overify {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  ExprContext ctx;
  CoreSolver core;

  const Expr* Sym(unsigned i) { return ctx.Symbol(i); }
  const Expr* C(uint64_t v, unsigned w = 8) { return ctx.Constant(v, w); }

  SatResult Check(const std::vector<const Expr*>& cs, std::vector<uint8_t>* model = nullptr) {
    return core.CheckSat(ctx, cs, model);
  }
};

TEST_F(SolverTest, EmptyIsSat) { EXPECT_EQ(Check({}), SatResult::kSat); }

TEST_F(SolverTest, ConstantConstraints) {
  EXPECT_EQ(Check({ctx.True()}), SatResult::kSat);
  EXPECT_EQ(Check({ctx.False()}), SatResult::kUnsat);
}

TEST_F(SolverTest, SingleByteEquality) {
  std::vector<uint8_t> model;
  EXPECT_EQ(Check({ctx.Compare(ICmpPredicate::kEq, Sym(0), C('x'))}, &model), SatResult::kSat);
  ASSERT_GE(model.size(), 1u);
  EXPECT_EQ(model[0], 'x');
}

TEST_F(SolverTest, ContradictionIsUnsat) {
  auto eq1 = ctx.Compare(ICmpPredicate::kEq, Sym(0), C(1));
  auto eq2 = ctx.Compare(ICmpPredicate::kEq, Sym(0), C(2));
  EXPECT_EQ(Check({eq1, eq2}), SatResult::kUnsat);
}

TEST_F(SolverTest, RangeConstraints) {
  // 'a' <= s0 <= 'f'
  auto lo = ctx.Compare(ICmpPredicate::kULE, C('a'), Sym(0));
  auto hi = ctx.Compare(ICmpPredicate::kULE, Sym(0), C('f'));
  std::vector<uint8_t> model;
  EXPECT_EQ(Check({lo, hi}, &model), SatResult::kSat);
  EXPECT_GE(model[0], 'a');
  EXPECT_LE(model[0], 'f');
  // Empty range is unsat.
  auto hi2 = ctx.Compare(ICmpPredicate::kULT, Sym(0), C('a'));
  EXPECT_EQ(Check({lo, hi2}), SatResult::kUnsat);
}

TEST_F(SolverTest, MultiByteRelations) {
  // s0 + s1 == 100 (in 32 bits), s0 == 2 * s1.
  auto w0 = ctx.ZExt(Sym(0), 32);
  auto w1 = ctx.ZExt(Sym(1), 32);
  auto sum = ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAdd, w0, w1), C(99, 32));
  auto rel = ctx.Compare(ICmpPredicate::kEq, w0,
                         ctx.Binary(ExprKind::kMul, w1, C(2, 32)));
  std::vector<uint8_t> model;
  ASSERT_EQ(Check({sum, rel}, &model), SatResult::kSat);
  EXPECT_EQ(static_cast<int>(model[0]) + model[1], 99);
  EXPECT_EQ(model[0], 2 * model[1]);
}

TEST_F(SolverTest, SignedConstraints) {
  // As a signed char, s0 < -100.
  auto sx = ctx.SExt(Sym(0), 32);
  auto cond = ctx.Compare(ICmpPredicate::kSLT, sx, C(static_cast<uint64_t>(-100), 32));
  std::vector<uint8_t> model;
  ASSERT_EQ(Check({cond}, &model), SatResult::kSat);
  EXPECT_LT(static_cast<int8_t>(model[0]), -100);
}

TEST_F(SolverTest, SelectConstraints) {
  // (s0 == 0 ? s1 : s2) == 7 with s0 != 0 forces s2 == 7.
  auto is_zero = ctx.Compare(ICmpPredicate::kEq, Sym(0), C(0));
  auto sel = ctx.Select(is_zero, Sym(1), Sym(2));
  auto eq7 = ctx.Compare(ICmpPredicate::kEq, sel, C(7));
  auto nonzero = ctx.Not(is_zero);
  std::vector<uint8_t> model;
  ASSERT_EQ(Check({eq7, nonzero}, &model), SatResult::kSat);
  EXPECT_NE(model[0], 0);
  EXPECT_EQ(model[2], 7);
}

TEST(IndependenceTest, FiltersUnrelatedConstraints) {
  ExprContext ctx;
  auto c01 = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Symbol(1));
  auto c12 = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(1), ctx.Symbol(2));
  auto c34 = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(3), ctx.Symbol(4));
  auto c5 = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(5), ctx.Constant(1, 8));

  // Seed touching symbol 0 should pull in c01 and (transitively) c12.
  auto seed = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(9, 8));
  auto filtered = FilterIndependent({c01, c12, c34, c5}, seed);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0], c01);
  EXPECT_EQ(filtered[1], c12);
}

TEST(SolverChainTest, CachesRepeatedQueries) {
  ExprContext ctx;
  SolverChain chain(ctx);
  auto cond = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant('a', 8));
  std::vector<const Expr*> path;
  EXPECT_EQ(chain.MayBeTrue(path, cond, nullptr), SatResult::kSat);
  uint64_t core_before = chain.metrics().Get(Counter::kSolverCoreQueries);
  EXPECT_EQ(chain.MayBeTrue(path, cond, nullptr), SatResult::kSat);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverCoreQueries), core_before);  // served by cache
  EXPECT_GE(chain.metrics().Get(Counter::kSolverCacheHits), 1u);
}

TEST(SolverChainTest, IndependenceKeepsQueriesSmall) {
  ExprContext ctx;
  SolverChain chain(ctx);
  // Ten unrelated constraints on symbols 10..19.
  std::vector<const Expr*> path;
  for (unsigned i = 10; i < 20; ++i) {
    path.push_back(ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(i), ctx.Constant(100, 8)));
  }
  auto cond = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(5, 8));
  EXPECT_EQ(chain.MayBeTrue(path, cond, nullptr), SatResult::kSat);
  EXPECT_GE(chain.metrics().Get(Counter::kSolverIndependenceDrops), 10u);
}

TEST(SolverChainTest, ModelReuseAcrossSimilarQueries) {
  ExprContext ctx;
  SolverChain chain(ctx);
  std::vector<const Expr*> path = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant('x', 8))};
  // First query solves; the second (weaker) must not reach the core search —
  // the preprocessor substitutes the byte binding and settles it outright
  // (with preprocessing disabled it would be a cache/reuse hit instead).
  EXPECT_EQ(chain.CheckSat(path, nullptr), SatResult::kSat);
  uint64_t core_before = chain.metrics().Get(Counter::kSolverCoreQueries);
  auto weaker = ctx.Compare(ICmpPredicate::kUGT, ctx.Symbol(0), ctx.Constant(3, 8));
  EXPECT_EQ(chain.MayBeTrue(path, weaker, nullptr), SatResult::kSat);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverCoreQueries), core_before);
  const MetricsShard& m = chain.metrics();
  EXPECT_GE(m.Get(Counter::kSolverReuseHits) + m.Get(Counter::kSolverCacheHits) +
                m.Get(Counter::kPresolveShortcuts),
            1u);
}

TEST(SolverChainTest, CexCacheIsBoundedAndEvicts) {
  // Push well past the cache capacity (4096 entries) with distinct
  // constraint sets; the FIFO eviction counter must move and verdicts must
  // stay correct for re-queried (evicted) sets.
  ExprContext ctx;
  SolverChain chain(ctx);
  auto query = [&](unsigned x, unsigned y) {
    std::vector<const Expr*> cs = {
        ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(x, 8)),
        ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(1), ctx.Constant(y, 8))};
    return chain.CheckSat(cs, nullptr);
  };
  for (unsigned x = 0; x < 66; ++x) {
    for (unsigned y = 0; y < 66; ++y) {
      EXPECT_EQ(query(x, y), SatResult::kSat);
    }
  }
  EXPECT_GE(chain.metrics().Get(Counter::kSolverCexEvictions), 1u);
  // The earliest entries are long evicted; answers are still right.
  EXPECT_EQ(query(0, 0), SatResult::kSat);
}

TEST(SolverChainTest, StatsExposeFastPathCounters) {
  ExprContext ctx;
  SolverChain chain(ctx);
  std::vector<const Expr*> path = {
      ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(0), ctx.Symbol(1))};
  auto cond = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(3, 8));
  EXPECT_EQ(chain.MayBeTrue(path, cond, nullptr), SatResult::kSat);
  // The query reached the core, and the core's own counters reached the
  // shard.
  const MetricsShard& m = chain.metrics();
  EXPECT_EQ(m.Get(Counter::kSolverCoreQueries), 1u);
  EXPECT_GT(m.Get(Counter::kSolverCoreCandidates), 0u);
  EXPECT_EQ(m.Get(Counter::kSolverCexEvictions), 0u);
}

TEST(SolverChainTest, UnsatDetected) {
  ExprContext ctx;
  SolverChain chain(ctx);
  std::vector<const Expr*> path = {
      ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(1, 8))};
  auto conflicting = ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(2, 8));
  EXPECT_EQ(chain.MayBeTrue(path, conflicting, nullptr), SatResult::kUnsat);
}

// ---- kUnknown hygiene: a degraded verdict is never cached and never
// poisons a later exact answer (docs/robustness.md).

// An UNSAT pair over X = s0 ^ s1 (widened): xor defeats byte-binding
// substitution and interval presolving, so the query must reach the core
// search and enumerate — decidable within the default budget (64Ki
// candidates) but not within a tiny one.
std::vector<const Expr*> XorContradiction(ExprContext& ctx) {
  const Expr* x = ctx.Binary(ExprKind::kXor, ctx.ZExt(ctx.Symbol(0), 32),
                             ctx.ZExt(ctx.Symbol(1), 32));
  return {ctx.Compare(ICmpPredicate::kEq, x, ctx.Constant(7, 32)),
          ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kXor, x, ctx.Constant(1, 32)),
                      ctx.Constant(7, 32))};
}

TEST(SolverChainUnknownTest, BudgetUnknownIsAttributedAndNeverCached) {
  ExprContext ctx;
  SolverChain chain(ctx);
  std::vector<const Expr*> constraints = XorContradiction(ctx);

  QueryControl tiny;
  tiny.query_candidates = 16;
  chain.set_control(tiny);
  EXPECT_EQ(chain.CheckSat(constraints, nullptr), SatResult::kUnknown);
  EXPECT_EQ(chain.last_unknown_cause(), UnknownCause::kCandidateBudget);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverUnknownBudget), 1u);
  uint64_t core_after_first = chain.metrics().Get(Counter::kSolverCoreQueries);
  EXPECT_GE(core_after_first, 1u);

  // Re-asking under the same tiny budget must hit the core again — if the
  // kUnknown had been cached, this would be a cache hit with no new core
  // query (and PrefixCache::Insert asserts against such an entry ever
  // existing).
  EXPECT_EQ(chain.CheckSat(constraints, nullptr), SatResult::kUnknown);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverUnknownBudget), 2u);
  EXPECT_GT(chain.metrics().Get(Counter::kSolverCoreQueries), core_after_first);

  // With the budget restored the exact verdict comes through untainted.
  chain.set_control(QueryControl{});
  EXPECT_EQ(chain.CheckSat(constraints, nullptr), SatResult::kUnsat);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverUnknownBudget), 2u);
}

TEST(SolverChainUnknownTest, InjectedUnknownIsAttributedAndRecoverable) {
  ExprContext ctx;
  SolverChain chain(ctx);
  // SAT query that still reaches the core (xor resists presolving).
  std::vector<const Expr*> constraints = {ctx.Compare(
      ICmpPredicate::kEq,
      ctx.Binary(ExprKind::kXor, ctx.ZExt(ctx.Symbol(0), 32), ctx.ZExt(ctx.Symbol(1), 32)),
      ctx.Constant(7, 32))};

  FaultConfig config;
  config.seed = 0x1234;
  config.period = 1;  // fire on every draw
  config.sites = 1u << static_cast<unsigned>(FaultSite::kSolverUnknown);
  FaultInjector injector(config, 0);
  QueryControl control;
  control.faults = &injector;
  chain.set_control(control);

  EXPECT_EQ(chain.CheckSat(constraints, nullptr), SatResult::kUnknown);
  EXPECT_EQ(chain.last_unknown_cause(), UnknownCause::kInjected);
  EXPECT_EQ(chain.metrics().Get(Counter::kSolverUnknownInjected), 1u);

  chain.set_control(QueryControl{});
  std::vector<uint8_t> model;
  EXPECT_EQ(chain.CheckSat(constraints, &model), SatResult::kSat);
  ASSERT_GE(model.size(), 2u);
  EXPECT_EQ((model[0] ^ model[1]) & 0xff, 7);
}

TEST(SolverChainUnknownTest, InjectedCacheMissesLeaveVerdictsUnchanged) {
  // Two chains, same queries: one with every cache lookup injected to
  // miss, one clean. Verdicts and models must match query for query.
  ExprContext ctx_a;
  SolverChain clean(ctx_a);
  ExprContext ctx_b;
  SolverChain faulted(ctx_b);

  FaultConfig config;
  config.seed = 0x1234;
  config.period = 1;
  config.sites = 1u << static_cast<unsigned>(FaultSite::kPrefixCacheLookup);
  FaultInjector injector(config, 0);
  QueryControl control;
  control.faults = &injector;
  faulted.set_control(control);

  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<uint8_t> model_clean;
    std::vector<uint8_t> model_faulted;
    SatResult sat_clean =
        clean.CheckSat(XorContradiction(ctx_a), &model_clean);
    SatResult sat_faulted =
        faulted.CheckSat(XorContradiction(ctx_b), &model_faulted);
    EXPECT_EQ(sat_clean, sat_faulted) << "repeat " << repeat;
    EXPECT_EQ(model_clean, model_faulted) << "repeat " << repeat;
  }
  // The clean chain got to reuse its cache; the faulted one paid the core
  // search every time. Same answers, different work — completeness of the
  // cache is a performance property, never a soundness one.
  EXPECT_GE(faulted.metrics().Get(Counter::kSolverCoreQueries),
            clean.metrics().Get(Counter::kSolverCoreQueries));
}

}  // namespace
}  // namespace overify
