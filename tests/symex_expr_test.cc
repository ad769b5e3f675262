// Tests for the symbolic expression DAG and its canonicalizing builder.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/ir/constant.h"
#include "src/support/rng.h"
#include "src/symex/eval_program.h"
#include "src/symex/expr.h"

namespace overify {
namespace {

TEST(ExprTest, ConstantsInterned) {
  ExprContext ctx;
  EXPECT_EQ(ctx.Constant(5, 32), ctx.Constant(5, 32));
  EXPECT_NE(ctx.Constant(5, 32), ctx.Constant(5, 64));
  EXPECT_EQ(ctx.Constant(0x1FF, 8), ctx.Constant(0xFF, 8));  // truncation
  EXPECT_TRUE(ctx.True()->IsTrue());
  EXPECT_TRUE(ctx.False()->IsFalse());
}

// ---- Small-constant table: Constant() answers small values at power-of-two
// widths from a per-context table filled through the interner. It must be
// invisible: the same nodes, node count and creation ids as interning every
// constant.

ExprInterner::Key ConstantKey(uint64_t value, unsigned width) {
  ExprInterner::Key key;
  key.kind = ExprKind::kConstant;
  key.width = width;
  key.constant = TruncateToWidth(value, width);
  return key;
}

TEST(SmallConstantTableTest, ConstantReturnsTheInternersNodeAtEveryWidth) {
  for (bool shared : {false, true}) {
    ExprInterner interner(/*concurrent=*/true);
    ExprContext ctx(shared ? &interner : nullptr);
    for (unsigned width = 1; width <= 64; ++width) {
      for (uint64_t value = 0; value <= 300; ++value) {
        const Expr* e = ctx.Constant(value, width);
        ASSERT_EQ(e, ctx.interner().Intern(ConstantKey(value, width)))
            << "shared=" << shared << " width=" << width << " value=" << value;
        ASSERT_EQ(ctx.Constant(value, width), e);
        ASSERT_EQ(e->constant_value(), TruncateToWidth(value, width));
      }
    }
  }
}

TEST(SmallConstantTableTest, NodeCountAndIdOrderMatchUncachedInterning) {
  for (bool shared : {false, true}) {
    ExprInterner interner_a(/*concurrent=*/true);
    ExprInterner interner_b(/*concurrent=*/true);
    ExprContext cached(shared ? &interner_a : nullptr);
    ExprContext bypass(shared ? &interner_b : nullptr);
    // Repeats, small and large values, table and non-table widths, and
    // symbols in between, so first uses and table hits interleave with
    // fresh nodes.
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
      unsigned width = 1 + static_cast<unsigned>(rng.NextBelow(64));
      uint64_t value = rng.NextBelow(4) == 0 ? rng.Next() : rng.NextBelow(300);
      if (rng.NextBelow(8) == 0) {
        unsigned sym = static_cast<unsigned>(rng.NextBelow(16));
        ASSERT_EQ(cached.Symbol(sym)->id(), bypass.Symbol(sym)->id());
        continue;
      }
      const Expr* a = cached.Constant(value, width);
      const Expr* b = bypass.interner().Intern(ConstantKey(value, width));
      ASSERT_EQ(a->id(), b->id()) << "step " << i << " shared=" << shared;
      ASSERT_EQ(a->hash(), b->hash());
    }
    EXPECT_EQ(cached.NumExprs(), bypass.NumExprs()) << "shared=" << shared;
  }
}

TEST(ExprTest, SymbolsHaveSupport) {
  ExprContext ctx;
  const Expr* s0 = ctx.Symbol(0);
  const Expr* s3 = ctx.Symbol(3);
  EXPECT_EQ(s0, ctx.Symbol(0));
  EXPECT_EQ(s0->width(), 8u);
  const Expr* sum = ctx.Binary(ExprKind::kAdd, s0, s3);
  EXPECT_EQ(sum->Support().ToSet(), (std::set<unsigned>{0, 3}));
}

TEST(ExprTest, SupportOverflowBeyondMaskWidth) {
  // Symbol indices >= 64 spill from the bitmask word into the sorted
  // overflow vector; set algebra must agree across the boundary.
  ExprContext ctx;
  const Expr* lo = ctx.Symbol(3);
  const Expr* hi = ctx.Symbol(100);
  const Expr* sum = ctx.Binary(ExprKind::kAdd, lo, hi);
  EXPECT_EQ(sum->Support().ToSet(), (std::set<unsigned>{3, 100}));
  EXPECT_EQ(sum->Support().MaxSymbol(), 100u);
  EXPECT_TRUE(sum->Support().Contains(100));
  EXPECT_FALSE(sum->Support().Contains(64));
  EXPECT_TRUE(sum->Support().Intersects(hi->Support()));
  EXPECT_FALSE(lo->Support().Intersects(hi->Support()));
}

TEST(ExprTest, StructuralHashIsStableAndInterned) {
  ExprContext ctx;
  const Expr* a = ctx.Binary(ExprKind::kAdd, ctx.Symbol(0), ctx.Constant(5, 8));
  const Expr* b = ctx.Binary(ExprKind::kAdd, ctx.Symbol(0), ctx.Constant(5, 8));
  EXPECT_EQ(a, b);  // hash-consed: same pointer
  EXPECT_NE(a->hash(), 0u);
  EXPECT_EQ(a->hash(), b->hash());
}

TEST(ExprTest, ConstantFoldingMatchesFoldKernel) {
  ExprContext ctx;
  const Expr* a = ctx.Constant(200, 8);
  const Expr* b = ctx.Constant(100, 8);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, a, b)->constant_value(), 44u);  // wraps mod 256
  EXPECT_EQ(ctx.Binary(ExprKind::kMul, a, b)->constant_value(), TruncateToWidth(20000, 8));
  EXPECT_TRUE(ctx.Compare(ICmpPredicate::kULT, b, a)->IsTrue());
  EXPECT_TRUE(ctx.Compare(ICmpPredicate::kSLT, a, b)->IsTrue());  // 200 is -56 signed
}

TEST(ExprTest, IdentitiesSimplify) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* zero = ctx.Constant(0, 8);
  const Expr* ones = ctx.Constant(0xFF, 8);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, x, zero), x);
  EXPECT_EQ(ctx.Binary(ExprKind::kMul, x, ctx.Constant(1, 8)), x);
  EXPECT_EQ(ctx.Binary(ExprKind::kMul, x, zero), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kAnd, x, ones), x);
  EXPECT_EQ(ctx.Binary(ExprKind::kAnd, x, zero), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kXor, x, x), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kSub, x, x), zero);
  EXPECT_EQ(ctx.Binary(ExprKind::kOr, x, x), x);
}

TEST(ExprTest, CommutativeCanonicalization) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, x, y), ctx.Binary(ExprKind::kAdd, y, x));
  const Expr* c = ctx.Constant(7, 8);
  EXPECT_EQ(ctx.Binary(ExprKind::kAdd, c, x), ctx.Binary(ExprKind::kAdd, x, c));
}

TEST(ExprTest, ComparePredicatesCanonicalized) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* c = ctx.Constant(10, 8);
  // x > c becomes c < x; x != c becomes Not(x == c).
  const Expr* gt = ctx.Compare(ICmpPredicate::kUGT, x, c);
  EXPECT_EQ(gt->kind(), ExprKind::kUlt);
  EXPECT_EQ(gt->a(), c);
  const Expr* ne = ctx.Compare(ICmpPredicate::kNe, x, c);
  EXPECT_EQ(ne->kind(), ExprKind::kXor);  // Not is Xor(e, true)
  EXPECT_EQ(ctx.Not(ne), ctx.Compare(ICmpPredicate::kEq, x, c));
}

TEST(ExprTest, SelectSimplifications) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  const Expr* cond = ctx.Compare(ICmpPredicate::kEq, x, ctx.Constant(0, 8));
  EXPECT_EQ(ctx.Select(ctx.True(), x, y), x);
  EXPECT_EQ(ctx.Select(ctx.False(), x, y), y);
  EXPECT_EQ(ctx.Select(cond, x, x), x);
  EXPECT_EQ(ctx.Select(cond, ctx.True(), ctx.False()), cond);
  EXPECT_EQ(ctx.Select(cond, ctx.False(), ctx.True()), ctx.Not(cond));
}

TEST(ExprTest, ExtractConcatRoundTrip) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  // Concat(y, x): y is the high byte.
  const Expr* pair = ctx.Concat(y, x);
  EXPECT_EQ(pair->width(), 16u);
  EXPECT_EQ(ctx.Extract(pair, 0, 8), x);
  EXPECT_EQ(ctx.Extract(pair, 8, 8), y);
  // Extract of extract composes.
  const Expr* wide = ctx.ZExt(x, 32);
  EXPECT_EQ(ctx.Extract(wide, 0, 8), x);
  EXPECT_EQ(ctx.Extract(wide, 16, 8), ctx.Constant(0, 8));
}

TEST(ExprTest, ByteRoundTrip) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* wide = ctx.ZExt(x, 32);
  const Expr* bytes[ExprContext::kMaxBytes];
  ASSERT_EQ(ctx.ToBytes(wide, bytes), 4u);
  EXPECT_EQ(ctx.FromBytes(bytes, 4), wide);
  // A 32-bit constant round-trips too.
  ASSERT_EQ(ctx.ToBytes(ctx.Constant(0xDEADBEEF, 32), bytes), 4u);
  EXPECT_EQ(ctx.FromBytes(bytes, 4)->constant_value(), 0xDEADBEEFu);
  // A boolean is one 0/1 byte.
  ASSERT_EQ(ctx.ToBytes(ctx.True(), bytes), 1u);
  EXPECT_EQ(bytes[0], ctx.Constant(1, 8));
}

TEST(ExprTest, CastsFold) {
  ExprContext ctx;
  EXPECT_EQ(ctx.ZExt(ctx.Constant(0xFF, 8), 32)->constant_value(), 0xFFu);
  EXPECT_EQ(ctx.SExt(ctx.Constant(0xFF, 8), 32)->constant_value(), 0xFFFFFFFFu);
  EXPECT_EQ(ctx.Trunc(ctx.Constant(0x1234, 32), 8)->constant_value(), 0x34u);
  const Expr* x = ctx.Symbol(0);
  EXPECT_EQ(ctx.ZExt(ctx.ZExt(x, 16), 32), ctx.ZExt(x, 32));
  EXPECT_EQ(ctx.Trunc(ctx.ZExt(x, 32), 8), x);
}

TEST(ExprTest, EvaluateAgreesWithStructure) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  // (zext(x,32) * 3 + zext(y,32)) < 100 ?
  const Expr* e = ctx.Compare(
      ICmpPredicate::kULT,
      ctx.Binary(ExprKind::kAdd,
                 ctx.Binary(ExprKind::kMul, ctx.ZExt(x, 32), ctx.Constant(3, 32)),
                 ctx.ZExt(y, 32)),
      ctx.Constant(100, 32));
  std::vector<uint8_t> bytes = {30, 9};  // 30*3+9 = 99 < 100
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(e, bytes), 1u);
  bytes = {30, 10};  // 100 < 100 is false
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(e, bytes), 0u);
}

TEST(ExprTest, EvaluateSignedOps) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* sx = ctx.SExt(x, 32);
  const Expr* neg = ctx.Compare(ICmpPredicate::kSLT, sx, ctx.Constant(0, 32));
  std::vector<uint8_t> bytes = {0x80};  // -128 as signed char
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(neg, bytes), 1u);
  bytes = {0x7F};
  ctx.NewEvaluation();
  EXPECT_EQ(ctx.Evaluate(neg, bytes), 0u);
}

// ---- Narrowing compares: exact on every byte pair.

// Every compare of two same-width extensions, and `x - y ==/!= 0`, is built
// at the narrow width (no 32-bit operand survives), and the narrow compare
// agrees with C++ on the unnarrowed 32-bit form for all 65,536 byte pairs.
TEST(NarrowingCompareTest, RewritesAreExactOnAllBytePairs) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(1);
  const Expr* zx = ctx.ZExt(x, 32);
  const Expr* zy = ctx.ZExt(y, 32);
  const Expr* sx = ctx.SExt(x, 32);
  const Expr* sy = ctx.SExt(y, 32);
  const Expr* diff = ctx.Binary(ExprKind::kSub, zx, zy);
  const Expr* zero = ctx.Constant(0, 32);
  struct Rewrite {
    const char* name;
    const Expr* built;
    bool (*wide)(uint32_t zx, uint32_t zy, int32_t sx, int32_t sy);
  };
  const Rewrite rewrites[] = {
      {"eq zext", ctx.Compare(ICmpPredicate::kEq, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a == b; }},
      {"ne zext", ctx.Compare(ICmpPredicate::kNe, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a != b; }},
      {"ult zext", ctx.Compare(ICmpPredicate::kULT, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a < b; }},
      {"ule zext", ctx.Compare(ICmpPredicate::kULE, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a <= b; }},
      {"slt zext", ctx.Compare(ICmpPredicate::kSLT, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) {
         return static_cast<int32_t>(a) < static_cast<int32_t>(b);
       }},
      {"sle zext", ctx.Compare(ICmpPredicate::kSLE, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) {
         return static_cast<int32_t>(a) <= static_cast<int32_t>(b);
       }},
      {"sgt zext", ctx.Compare(ICmpPredicate::kSGT, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) {
         return static_cast<int32_t>(a) > static_cast<int32_t>(b);
       }},
      {"sge zext", ctx.Compare(ICmpPredicate::kSGE, zx, zy),
       [](uint32_t a, uint32_t b, int32_t, int32_t) {
         return static_cast<int32_t>(a) >= static_cast<int32_t>(b);
       }},
      {"eq sext", ctx.Compare(ICmpPredicate::kEq, sx, sy),
       [](uint32_t, uint32_t, int32_t a, int32_t b) { return a == b; }},
      {"ne sext", ctx.Compare(ICmpPredicate::kNe, sx, sy),
       [](uint32_t, uint32_t, int32_t a, int32_t b) { return a != b; }},
      {"slt sext", ctx.Compare(ICmpPredicate::kSLT, sx, sy),
       [](uint32_t, uint32_t, int32_t a, int32_t b) { return a < b; }},
      {"sle sext", ctx.Compare(ICmpPredicate::kSLE, sx, sy),
       [](uint32_t, uint32_t, int32_t a, int32_t b) { return a <= b; }},
      {"sgt sext", ctx.Compare(ICmpPredicate::kSGT, sx, sy),
       [](uint32_t, uint32_t, int32_t a, int32_t b) { return a > b; }},
      {"sge sext", ctx.Compare(ICmpPredicate::kSGE, sx, sy),
       [](uint32_t, uint32_t, int32_t a, int32_t b) { return a >= b; }},
      {"eq sub zero", ctx.Compare(ICmpPredicate::kEq, diff, zero),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a - b == 0; }},
      {"ne sub zero", ctx.Compare(ICmpPredicate::kNe, diff, zero),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a - b != 0; }},
      {"eq zero sub", ctx.Compare(ICmpPredicate::kEq, zero, diff),
       [](uint32_t a, uint32_t b, int32_t, int32_t) { return a - b == 0; }},
  };
  for (const Rewrite& rewrite : rewrites) {
    // Narrowed: the compare (under a Not, for the negated predicates) reads
    // the bytes themselves.
    const Expr* cmp = rewrite.built->kind() == ExprKind::kXor ? rewrite.built->a()
                                                              : rewrite.built;
    EXPECT_EQ(cmp->a()->width(), 8u) << rewrite.name;
    EXPECT_EQ(cmp->b()->width(), 8u) << rewrite.name;
    std::vector<uint8_t> bytes(2);
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        bytes[0] = static_cast<uint8_t>(a);
        bytes[1] = static_cast<uint8_t>(b);
        const bool expected = rewrite.wide(a, b, static_cast<int8_t>(a), static_cast<int8_t>(b));
        ctx.NewEvaluation();
        ASSERT_EQ(ctx.Evaluate(rewrite.built, bytes), expected ? 1u : 0u)
            << rewrite.name << " at (" << a << ", " << b << ")";
      }
    }
  }
}

// ---- The sharded, lock-striped interner shared across contexts.

TEST(SharedInternerTest, RacingContextsConvergeOnOneCanonicalNode) {
  ExprInterner interner(/*concurrent=*/true);
  constexpr int kThreads = 4;
  std::vector<const Expr*> roots(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&interner, &roots, t] {
      // Each worker builds the identical DAG through its own context view;
      // hash-consing in the shared tables must give every thread the same
      // pointers despite the races.
      ExprContext ctx(interner);
      const Expr* acc = ctx.Constant(0, 32);
      for (unsigned i = 0; i < 200; ++i) {
        const Expr* term = ctx.Binary(ExprKind::kMul, ctx.ZExt(ctx.Symbol(i % 8), 32),
                                      ctx.Constant(i + 1, 32));
        acc = ctx.Binary(ExprKind::kAdd, acc, term);
      }
      roots[t] = acc;
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(roots[0], roots[t]) << "thread " << t;
  }
  EXPECT_TRUE(interner.Owns(roots[0]));
}

TEST(SharedInternerTest, OwnsRejectsForeignNodes) {
  ExprInterner interner(/*concurrent=*/true);
  ExprContext view(interner);
  const Expr* inside = view.Constant(7, 32);
  EXPECT_TRUE(interner.Owns(inside));
  ExprContext private_ctx;
  EXPECT_FALSE(interner.Owns(private_ctx.Constant(123456, 32)));
}

TEST(SharedInternerTest, PerContextMemosEvaluateTheSharedDagIndependently) {
  ExprInterner interner(/*concurrent=*/true);
  ExprContext a(interner);
  const Expr* sum = a.Binary(ExprKind::kAdd, a.ZExt(a.Symbol(0), 32),
                             a.ZExt(a.Symbol(1), 32));
  // Two views evaluate the same node under different assignments; their
  // generation-stamped memo tables must not bleed into each other (with
  // inline slots on the shared Expr they would).
  ExprContext b(interner);
  std::vector<uint8_t> x{10, 20};
  std::vector<uint8_t> y{1, 2};
  a.NewEvaluation();
  b.NewEvaluation();
  EXPECT_EQ(a.Evaluate(sum, x), 30u);
  EXPECT_EQ(b.Evaluate(sum, y), 3u);
  EXPECT_EQ(a.Evaluate(sum, x), 30u);  // memoized, still correct
}

// ---- The core solver's evaluation program (src/symex/eval_program.h).

// Random well-typed DAGs over a few byte symbols, built mostly through the
// canonicalizing builders plus raw interning for the shapes the builders
// never produce themselves: kTrunc nodes, and division, remainder and
// shifts whose constant operands trap (Rebuild interns those raw too).
class RandomDag {
 public:
  static constexpr unsigned kWidths[] = {1, 8, 16, 32, 64};

  RandomDag(ExprContext& ctx, uint64_t seed, unsigned symbols = 5) : ctx_(ctx), rng_(seed) {
    for (unsigned s = 0; s < symbols; ++s) {
      Add(ctx_.Symbol(s));
    }
    for (unsigned w : kWidths) {
      const uint64_t mask = TruncateToWidth(~uint64_t{0}, w);
      for (uint64_t v : {uint64_t{0}, uint64_t{1}, mask, uint64_t{1} << (w - 1), rng_.Next()}) {
        Add(ctx_.Constant(v, w));
      }
    }
    for (int step = 0; step < 160; ++step) {
      Grow();
    }
  }

  // `n` random non-constant nodes, any width.
  std::vector<const Expr*> Roots(size_t n) {
    std::vector<const Expr*> roots;
    while (roots.size() < n) {
      const Expr* e = Pick(kWidths[rng_.NextBelow(5)]);
      if (!e->IsConstant()) {
        roots.push_back(e);
      }
    }
    return roots;
  }

 private:
  void Add(const Expr* e) { pool_[e->width()].push_back(e); }

  // Mostly recent nodes, so chains (select of select of ...) grow deep.
  const Expr* Pick(unsigned width) {
    std::vector<const Expr*>& p = pool_[width];
    if (rng_.NextBelow(2) == 0) {
      return p[p.size() - 1 - rng_.NextBelow(std::min<size_t>(p.size(), 4))];
    }
    return p[rng_.NextBelow(p.size())];
  }

  const Expr* Raw(ExprKind kind, unsigned width, const Expr* a, const Expr* b = nullptr,
                  unsigned offset = 0) {
    ExprInterner::Key key;
    key.kind = kind;
    key.width = width;
    key.a = a;
    key.b = b;
    key.extract_offset = offset;
    return ctx_.interner().Intern(key);
  }

  void Grow() {
    const unsigned w = kWidths[rng_.NextBelow(5)];
    switch (rng_.NextBelow(8)) {
      case 0:
      case 1: {  // binary arithmetic, kAdd .. kAShr
        const auto kind = static_cast<ExprKind>(static_cast<unsigned>(ExprKind::kAdd) +
                                                rng_.NextBelow(13));
        const Expr* a = Pick(w);
        const Expr* b = Pick(w);
        if (rng_.NextBelow(4) == 0) {
          // Divisor 0 or a shift amount >= width, raw.
          b = ctx_.Constant(rng_.NextBool() ? 0 : w + rng_.NextBelow(3), w);
          Add(Raw(kind, w, a, b));
        } else if (a->IsConstant() && b->IsConstant()) {
          Add(Raw(kind, w, a, b));
        } else {
          Add(ctx_.Binary(kind, a, b));
        }
        break;
      }
      case 2: {  // every predicate, canonicalized onto the five kinds
        const auto pred = static_cast<ICmpPredicate>(rng_.NextBelow(10));
        Add(ctx_.Compare(pred, Pick(w), Pick(w)));
        break;
      }
      case 3:
        Add(ctx_.Select(Pick(1), Pick(w), Pick(w)));
        break;
      case 4: {  // widening casts
        const unsigned from = kWidths[rng_.NextBelow(4)];
        const unsigned to = kWidths[1 + rng_.NextBelow(4)];
        if (to > from) {
          Add(rng_.NextBool() ? ctx_.ZExt(Pick(from), to) : ctx_.SExt(Pick(from), to));
        }
        break;
      }
      case 5: {  // narrowing: trunc (raw) or an extract at any offset
        const unsigned from = kWidths[1 + rng_.NextBelow(4)];
        const unsigned to = kWidths[rng_.NextBelow(4)];
        if (to < from) {
          const Expr* a = Pick(from);
          if (a->IsConstant()) {
            break;
          }
          const unsigned offset = static_cast<unsigned>(rng_.NextBelow(from - to + 1));
          Add(rng_.NextBool() ? Raw(ExprKind::kTrunc, to, a) : ctx_.Extract(a, offset, to));
        }
        break;
      }
      default: {  // concat of two equal halves, and of a bit onto a byte
        if (w == 1) {
          Add(ctx_.Concat(Pick(1), Pick(8)));  // width 9
        } else if (w > 8) {
          Add(ctx_.Concat(Pick(w / 2), Pick(w / 2)));
        }
        break;
      }
    }
  }

  ExprContext& ctx_;
  Rng rng_;
  std::map<unsigned, std::vector<const Expr*>> pool_;
};

void CollectKinds(const Expr* e, std::set<ExprKind>& kinds, std::set<const Expr*>& seen) {
  if (!seen.insert(e).second) {
    return;
  }
  kinds.insert(e->kind());
  for (const Expr* child : {e->a(), e->b(), e->c()}) {
    if (child != nullptr) {
      CollectKinds(child, kinds, seen);
    }
  }
}

// One random DAG's roots under a random symbol-to-level order, driven
// through DFS-shaped sequences the way CheckSat drives its program: assign
// the next level, try another value at the current one, backtrack, backjump,
// sweep a free level (lane-wise, and by transient scalar assignment), and
// interval rounds under per-symbol ranges. Every answer of the stamped
// program must equal a fresh ExprContext evaluation.
class ProgramDriver {
 public:
  ProgramDriver(ExprContext& ctx, const std::vector<const Expr*>& roots, unsigned symbols,
                Rng& rng)
      : ctx_(ctx), roots_(roots), rng_(rng), bytes_(symbols), level_of_(symbols) {
    for (unsigned s = 0; s < symbols; ++s) {
      order_.push_back(s);
    }
    for (unsigned i = symbols; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.NextBelow(i)]);
    }
    for (unsigned l = 0; l < symbols; ++l) {
      level_of_[order_[l]] = static_cast<int32_t>(l);
    }
    for (const Expr* root : roots_) {
      int level = -1;
      int below = -1;  // deepest support level but one
      root->Support().ForEach([&](unsigned sym) {
        const int l = level_of_[sym];
        below = std::max(below, std::min(level, l));
        level = std::max(level, l);
      });
      root_level_.push_back(level);
      below_level_.push_back(below);
    }
    for (uint8_t& b : bytes_) {
      b = static_cast<uint8_t>(rng_.Next());
    }
    program_.Build(roots_, level_of_);
  }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const int levels = static_cast<int>(order_.size());
      switch (rng_.NextBelow(9)) {
        case 0:
        case 1:  // the next level
          if (depth_ + 1 < levels) {
            Place(++depth_);
          }
          break;
        case 2:  // the next value at this level
          if (depth_ >= 0) {
            Place(depth_);
          }
          break;
        case 3:  // backtrack: the level is left, its byte stays
          if (depth_ >= 0) {
            --depth_;
          }
          break;
        case 4:  // backjump, then the next value there
          if (depth_ >= 1) {
            depth_ = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(depth_)));
            Place(depth_);
          }
          break;
        case 5:
          CheckSweeps();
          break;
        case 6:
          CheckTransientSweep();
          break;
        case 7:
          CheckRanges();
          break;
        default:
          break;
      }
      CheckValues();
    }
  }

 private:
  uint8_t RandomByte() {
    const uint8_t corner[] = {0, 1, 0x7f, 0x80, 0xff};
    return rng_.NextBool() ? corner[rng_.NextBelow(5)] : static_cast<uint8_t>(rng_.Next());
  }

  void Place(int level) {
    bytes_[order_[level]] = RandomByte();
    program_.Assign(static_cast<size_t>(level));
  }

  uint64_t Fresh(size_t i, const std::vector<uint8_t>& bytes) {
    ctx_.NewEvaluation();
    return ctx_.Evaluate(roots_[i], bytes);
  }

  // Concrete values of the roots wholly at assigned levels, and intervals
  // of every root at the current depth.
  void CheckValues() {
    for (size_t i = 0; i < roots_.size(); ++i) {
      if (root_level_[i] <= depth_) {
        ASSERT_EQ(program_.Evaluate(i, bytes_.data()), Fresh(i, bytes_))
            << "root " << i << " depth " << depth_;
      }
    }
    if (depth_ < 0) {
      return;
    }
    std::vector<bool> assigned(bytes_.size());
    for (int l = 0; l <= depth_; ++l) {
      assigned[order_[l]] = true;
    }
    for (size_t i = 0; i < roots_.size(); ++i) {
      ctx_.NewIntervalRound();
      const UInterval want = ctx_.EvalInterval(roots_[i], bytes_, assigned);
      const UInterval got = program_.EvalInterval(i, bytes_.data(), static_cast<size_t>(depth_));
      ASSERT_EQ(got.lo, want.lo) << "root " << i << " depth " << depth_;
      ASSERT_EQ(got.hi, want.hi) << "root " << i << " depth " << depth_;
    }
  }

  // A root whose support is assigned but for its deepest level, which is
  // free — forward checking's sweep shape.
  bool FreeAtOneLevel(size_t i) const { return root_level_[i] > depth_ && below_level_[i] <= depth_; }

  void CheckSweeps() {
    for (size_t i = 0; i < roots_.size(); ++i) {
      if (!FreeAtOneLevel(i)) {
        continue;
      }
      std::array<uint64_t, 4> want = {rng_.Next(), rng_.Next(), 0, ~uint64_t{0}};
      std::swap(want[rng_.NextBelow(4)], want[rng_.NextBelow(4)]);
      std::array<uint64_t, 4> admitted{};
      program_.Sweep(i, bytes_.data(), want, admitted);
      std::vector<uint8_t> bytes = bytes_;
      for (unsigned v = 0; v < 256; ++v) {
        bytes[order_[root_level_[i]]] = static_cast<uint8_t>(v);
        const bool wanted = (want[v / 64] >> (v % 64)) & 1;
        const bool expect = wanted && Fresh(i, bytes) != 0;
        ASSERT_EQ(((admitted[v / 64] >> (v % 64)) & 1) != 0, expect)
            << "root " << i << " value " << v << " depth " << depth_;
      }
    }
  }

  // The free level assigned value by value and evaluated as a scalar; it
  // stays stamped but deeper than the search.
  void CheckTransientSweep() {
    for (size_t i = 0; i < roots_.size(); ++i) {
      if (!FreeAtOneLevel(i)) {
        continue;
      }
      for (int k = 0; k < 4; ++k) {
        Place(root_level_[i]);
        ASSERT_EQ(program_.Evaluate(i, bytes_.data()), Fresh(i, bytes_)) << "root " << i;
      }
      return;
    }
  }

  void CheckRanges() {
    // Per-symbol ranges, one symbol short so the [0, 255] default shows.
    std::vector<UInterval> ranges(bytes_.size() - 1);
    for (UInterval& r : ranges) {
      const uint64_t a = rng_.NextBelow(256);
      const uint64_t b = rng_.NextBool() ? a : rng_.NextBelow(256);
      r = UInterval{std::min(a, b), std::max(a, b)};
    }
    program_.NewIntervalRound();
    for (size_t i = 0; i < roots_.size(); ++i) {
      ctx_.NewIntervalRound();
      const UInterval want = ctx_.EvalIntervalRanges(roots_[i], ranges);
      const UInterval got = program_.EvalIntervalRanges(i, ranges);
      ASSERT_EQ(got.lo, want.lo) << "root " << i;
      ASSERT_EQ(got.hi, want.hi) << "root " << i;
    }
  }

  ExprContext& ctx_;
  const std::vector<const Expr*>& roots_;
  Rng& rng_;
  std::vector<uint8_t> bytes_;
  std::vector<int32_t> level_of_;
  std::vector<unsigned> order_;
  std::vector<int> root_level_;
  std::vector<int> below_level_;
  int depth_ = -1;
  EvalProgram program_;
};

TEST(EvalProgramTest, MatchesContextEvaluationOnRandomDags) {
  std::set<ExprKind> kinds;
  std::set<unsigned> widths;
  for (bool shared : {false, true}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      ExprInterner interner(/*concurrent=*/true);
      ExprContext ctx(shared ? &interner : nullptr);
      RandomDag dag(ctx, seed);
      const std::vector<const Expr*> roots = dag.Roots(12);
      std::set<const Expr*> seen;
      for (const Expr* root : roots) {
        CollectKinds(root, kinds, seen);
      }
      for (const Expr* e : seen) {
        widths.insert(e->width());
      }
      Rng rng(seed * 7919);
      SCOPED_TRACE(testing::Message() << (shared ? "shared" : "private") << " seed " << seed);
      ProgramDriver(ctx, roots, 5, rng).Run(160);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  EXPECT_EQ(kinds.size(), 26u) << "the DAGs must cover every ExprKind";
  EXPECT_TRUE(widths.count(1) && widths.count(64)) << "widths 1 to 64";
}

TEST(EvalProgramTest, UnarySweepsMatchScalarEvaluation) {
  // Every root over one symbol: the sweep with nothing assigned is the
  // core's unary sweep. Roots over constants alone (raw trapping folds)
  // give one value for every lane.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ExprContext ctx;
    RandomDag dag(ctx, seed, /*symbols=*/1);
    const std::vector<const Expr*> roots = dag.Roots(12);
    EvalProgram program;
    program.Build(roots, {0});
    for (size_t i = 0; i < roots.size(); ++i) {
      std::array<uint64_t, 4> admitted{};
      const uint8_t unused = 0;
      program.Sweep(i, &unused, {~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}},
                    admitted);
      for (unsigned v = 0; v < 256; ++v) {
        ctx.NewEvaluation();
        const bool expect = ctx.Evaluate(roots[i], {static_cast<uint8_t>(v)}) != 0;
        ASSERT_EQ(((admitted[v / 64] >> (v % 64)) & 1) != 0, expect)
            << "seed " << seed << " root " << i << " value " << v;
      }
    }
  }
}

TEST(EvalProgramTest, RebuildReplacesTheProgramAndKeepsMemosFresh) {
  // One program reused across queries, as CoreSolver holds it: a rebuild
  // over other roots must not read the previous query's slots.
  ExprContext ctx;
  EvalProgram program;
  const Expr* x = ctx.ZExt(ctx.Symbol(0), 32);
  const Expr* y = ctx.ZExt(ctx.Symbol(1), 32);
  const std::vector<uint8_t> bytes = {6, 7};
  program.Build({ctx.Binary(ExprKind::kMul, x, y)}, {0, 1});
  EXPECT_EQ(program.Evaluate(0, bytes.data()), 42u);
  program.Build({ctx.Binary(ExprKind::kAdd, x, y), ctx.Binary(ExprKind::kMul, x, y)}, {0, 1});
  EXPECT_EQ(program.Evaluate(0, bytes.data()), 13u);
  EXPECT_EQ(program.Evaluate(1, bytes.data()), 42u);
  EXPECT_EQ(program.TakeEvalHits(), 2u);  // the product re-reads both zexts
  EXPECT_EQ(program.Evaluate(1, bytes.data()), 42u);
  EXPECT_EQ(program.TakeEvalHits(), 1u);
}

TEST(EvalProgramTest, AssignRecomputesOnlyTheNodesAtOrPastTheLevel) {
  // A running sum over four levels: a new value at the deepest level
  // recomputes that level's add alone, one at level 1 everything from there.
  ExprContext ctx;
  const Expr* sum = ctx.ZExt(ctx.Symbol(0), 32);
  for (unsigned s = 1; s < 4; ++s) {
    sum = ctx.Binary(ExprKind::kAdd, sum, ctx.ZExt(ctx.Symbol(s), 32));
  }
  EvalProgram program;
  program.Build({sum}, {0, 1, 2, 3});
  std::vector<uint8_t> bytes = {1, 2, 3, 4};
  EXPECT_EQ(program.Evaluate(0, bytes.data()), 10u);
  const uint64_t cold = program.work().computes;
  EXPECT_EQ(cold, 7u);  // four zexts and three adds
  bytes[3] = 40;
  program.Assign(3);
  EXPECT_EQ(program.Evaluate(0, bytes.data()), 46u);
  EXPECT_EQ(program.work().computes - cold, 2u);  // zext b3 and the last add
  bytes[1] = 20;
  program.Assign(1);
  program.Assign(2);
  program.Assign(3);
  EXPECT_EQ(program.Evaluate(0, bytes.data()), 64u);
  EXPECT_EQ(program.work().computes - cold, 2u + 6u);
}

}  // namespace
}  // namespace overify
