// Tests for scalar/local passes: mem2reg, instcombine, dce, simplifycfg,
// cse, runtime checks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/path_count.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/passes/cse.h"
#include "src/passes/dce.h"
#include "src/passes/instcombine.h"
#include "src/passes/mem2reg.h"
#include "src/passes/runtime_checks.h"
#include "src/passes/simplify_cfg.h"

namespace overify {
namespace {

size_t CountOpcode(Function& fn, Opcode opcode) {
  size_t count = 0;
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (inst->opcode() == opcode) {
        ++count;
      }
    }
  }
  return count;
}

void ExpectValid(Module& m) {
  auto errors = VerifyModule(m);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

TEST(Mem2RegTest, PromotesScalarsAndInsertsPhis) {
  auto m = ParseModuleOrDie(R"(
    func @max(%a: i32, %b: i32) -> i32 {
    entry:
      %r = alloca i32
      %c = icmp sgt %a, %b
      br %c, label %t, label %f
    t:
      store %a, %r
      br label %done
    f:
      store %b, %r
      br label %done
    done:
      %v = load %r
      ret %v
    }
  )");
  Function* f = m->GetFunction("max");
  EXPECT_TRUE(Mem2RegPass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kAlloca), 0u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kLoad), 0u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kStore), 0u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kPhi), 1u);
}

TEST(Mem2RegTest, LoopCarriedVariable) {
  auto m = ParseModuleOrDie(R"(
    func @sum(%n: i32) -> i32 {
    entry:
      %acc = alloca i32
      %i = alloca i32
      store i32 0, %acc
      store i32 0, %i
      br label %header
    header:
      %iv = load %i
      %c = icmp slt %iv, %n
      br %c, label %body, label %exit
    body:
      %av = load %acc
      %a2 = add %av, %iv
      store %a2, %acc
      %i2 = add %iv, i32 1
      store %i2, %i
      br label %header
    exit:
      %r = load %acc
      ret %r
    }
  )");
  Function* f = m->GetFunction("sum");
  EXPECT_TRUE(Mem2RegPass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kAlloca), 0u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kPhi), 2u);  // acc and i at the header
}

TEST(Mem2RegTest, SkipsEscapingAlloca) {
  auto m = ParseModuleOrDie(R"(
    declare @ext(i32*) -> void
    func @f() -> i32 {
    entry:
      %a = alloca i32
      store i32 1, %a
      call @ext(%a)
      %v = load %a
      ret %v
    }
  )");
  Function* f = m->GetFunction("f");
  Mem2RegPass().RunOnFunction(*f);
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kAlloca), 1u);  // must stay
}

TEST(Mem2RegTest, LoadBeforeStoreBecomesUndef) {
  auto m = ParseModuleOrDie(R"(
    func @f() -> i32 {
    entry:
      %a = alloca i32
      %v = load %a
      ret %v
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(Mem2RegPass().RunOnFunction(*f));
  ExpectValid(*m);
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  EXPECT_TRUE(Isa<UndefValue>(ret->value()));
}

TEST(InstCombineTest, ConstantFolding) {
  auto m = ParseModuleOrDie(R"(
    func @f() -> i32 {
    entry:
      %a = add i32 2, i32 3
      %b = mul %a, i32 4
      %c = sub %b, i32 20
      ret %c
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(InstCombinePass().RunOnFunction(*f));
  DcePass().RunOnFunction(*f);
  ExpectValid(*m);
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  auto* c = DynCast<ConstantInt>(ret->value());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(f->entry()->size(), 1u);  // everything folded away
}

TEST(InstCombineTest, PaperExampleSelfSubtraction) {
  // §3: "x = input(); y = x; x -= y" must become x == 0.
  auto m = ParseModuleOrDie(R"(
    func @f(%input: i32) -> i32 {
    entry:
      %x = sub %input, %input
      ret %x
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(InstCombinePass().RunOnFunction(*f));
  ExpectValid(*m);
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  auto* c = DynCast<ConstantInt>(ret->value());
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->IsZero());
}

TEST(InstCombineTest, AlgebraicIdentities) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      %a = add %x, i32 0
      %b = mul %a, i32 1
      %c = or %b, i32 0
      %d = and %c, i32 -1
      %e = xor %d, i32 0
      ret %e
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(InstCombinePass().RunOnFunction(*f));
  ExpectValid(*m);
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  EXPECT_EQ(ret->value(), f->Arg(0));
}

TEST(InstCombineTest, ReassociatesConstantChains) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      %a = add %x, i32 5
      %b = add %a, i32 7
      ret %b
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(InstCombinePass().RunOnFunction(*f));
  DcePass().RunOnFunction(*f);
  ExpectValid(*m);
  // Expect a single add of 12.
  EXPECT_EQ(CountOpcode(*f, Opcode::kAdd), 1u);
  std::string text = PrintFunction(*f);
  EXPECT_NE(text.find("add %x, i32 12"), std::string::npos);
}

TEST(InstCombineTest, ICmpSimplifications) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32, %b: i1) -> i1 {
    entry:
      %self = icmp slt %x, %x
      %zext = zext %b to i32
      %narrow = icmp ne %zext, i32 0
      %both = and %self, %narrow
      ret %both
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(InstCombinePass().RunOnFunction(*f));
  DcePass().RunOnFunction(*f);
  ExpectValid(*m);
  // icmp slt x,x -> false; icmp ne (zext b),0 -> b; and false, b -> false.
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  auto* c = DynCast<ConstantInt>(ret->value());
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->IsZero());
}

TEST(InstCombineTest, SelectSimplifications) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %x: i32) -> i32 {
    entry:
      %same = select %c, %x, %x
      %konst = select i1 1, %same, i32 9
      ret %konst
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(InstCombinePass().RunOnFunction(*f));
  ExpectValid(*m);
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  EXPECT_EQ(ret->value(), f->Arg(1));
}

TEST(DceTest, RemovesDeadChainsAndCycles) {
  auto m = ParseModuleOrDie(R"(
    func @f(%n: i32) -> i32 {
    entry:
      %dead1 = add %n, i32 1
      %dead2 = mul %dead1, i32 2
      br label %loop
    loop:
      %dead_phi = phi i32 [ i32 0, %entry ], [ %dead_next, %loop ]
      %dead_next = add %dead_phi, i32 1
      %live = phi i32 [ i32 0, %entry ], [ %live_next, %loop ]
      %live_next = add %live, i32 2
      %c = icmp slt %live_next, %n
      br %c, label %loop, label %exit
    exit:
      ret %live
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(DcePass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kPhi), 1u);   // dead phi cycle removed
  EXPECT_EQ(CountOpcode(*f, Opcode::kMul), 0u);
}

TEST(DceTest, KeepsSideEffects) {
  auto m = ParseModuleOrDie(R"(
    declare @ext(i32) -> i32
    func @f(%x: i32) -> i32 {
    entry:
      %unused = call @ext(%x)
      %a = alloca i32
      store %x, %a
      ret %x
    }
  )");
  Function* f = m->GetFunction("f");
  DcePass().RunOnFunction(*f);
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kCall), 1u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kStore), 1u);
}

TEST(SimplifyCfgTest, FoldsConstantBranches) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      br i1 1, label %live, label %dead
    live:
      ret %x
    dead:
      %y = add %x, i32 1
      ret %y
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(SimplifyCfgPass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(f->NumBlocks(), 1u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kAdd), 0u);
}

TEST(SimplifyCfgTest, MergesChains) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      br label %mid
    mid:
      %a = add %x, i32 1
      br label %tail
    tail:
      ret %a
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(SimplifyCfgPass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(f->NumBlocks(), 1u);
}

TEST(SimplifyCfgTest, MergesALongChainInOnePassRun) {
  // A 64-block straight chain, laid out back to front: one run of the pass
  // merges all of it into the entry block.
  constexpr int kBlocks = 64;
  std::string blocks;
  for (int i = 1; i < kBlocks; ++i) {
    std::string block = "b" + std::to_string(i) + ":\n  %v" + std::to_string(i) + " = add %v" +
                        std::to_string(i - 1) + ", i32 1\n";
    block += i + 1 < kBlocks ? "  br label %b" + std::to_string(i + 1) + "\n"
                             : "  ret %v" + std::to_string(i) + "\n";
    blocks += block;
  }
  auto m = ParseModuleOrDie("func @f(%x: i32) -> i32 {\nentry:\n  %v0 = add %x, i32 1\n"
                            "  br label %b1\n" + blocks + "}\n");
  Function* f = m->GetFunction("f");
  std::vector<BasicBlock*> layout = f->BlockList();
  for (size_t i = layout.size() - 1; i > 0; --i) {
    f->MoveBlockToEnd(layout[i]);
  }
  PassManager pm;
  pm.Add(std::make_unique<SimplifyCfgPass>());
  EXPECT_TRUE(pm.Run(*m));
  ExpectValid(*m);
  EXPECT_EQ(f->NumBlocks(), 1u);
  EXPECT_EQ(f->InstructionCount(), static_cast<size_t>(kBlocks) + 1);
  EXPECT_EQ(pm.metrics().Get(Counter::kSimplifyCfgBlocksMerged), 63u);
}

TEST(SimplifyCfgTest, ForwardsEmptyBlocksWithPhiFixup) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1) -> i32 {
    entry:
      br %c, label %hop, label %other
    hop:
      br label %join
    other:
      br label %join
    join:
      %r = phi i32 [ i32 1, %hop ], [ i32 2, %other ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(SimplifyCfgPass().RunOnFunction(*f));
  ExpectValid(*m);
  // `hop` forwards (entry joins directly); `other` must stay because entry
  // then already reaches join and the phi needs distinct values per edge.
  EXPECT_EQ(f->NumBlocks(), 3u);
  Instruction* phi = nullptr;
  for (BasicBlock& bb : *f) {
    for (auto& inst : bb) {
      if (inst->opcode() == Opcode::kPhi) {
        phi = inst.get();
      }
    }
  }
  ASSERT_NE(phi, nullptr);
  EXPECT_EQ(Cast<PhiInst>(phi)->NumIncoming(), 2u);
}

TEST(CseTest, EliminatesRedundantExpressions) {
  auto m = ParseModuleOrDie(R"(
    func @f(%a: i32, %b: i32) -> i32 {
    entry:
      %x = add %a, %b
      %y = add %a, %b
      %z = add %b, %a
      %s1 = add %x, %y
      %s2 = add %s1, %z
      ret %s2
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(CsePass().RunOnFunction(*f));
  ExpectValid(*m);
  // x, y, z collapse into one (commutative canonicalization included).
  EXPECT_EQ(CountOpcode(*f, Opcode::kAdd), 3u);
}

TEST(CseTest, DominatorScopedAcrossBlocks) {
  auto m = ParseModuleOrDie(R"(
    func @f(%a: i32, %c: i1) -> i32 {
    entry:
      %x = mul %a, %a
      br %c, label %t, label %e
    t:
      %y = mul %a, %a
      ret %y
    e:
      %z = mul %a, %a
      ret %z
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(CsePass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kMul), 1u);
}

TEST(CseTest, SiblingBlocksDoNotShare) {
  auto m = ParseModuleOrDie(R"(
    func @f(%a: i32, %c: i1) -> i32 {
    entry:
      br %c, label %t, label %e
    t:
      %y = mul %a, %a
      ret %y
    e:
      %z = mul %a, %a
      ret %z
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_FALSE(CsePass().RunOnFunction(*f));
  EXPECT_EQ(CountOpcode(*f, Opcode::kMul), 2u);
}

TEST(CseTest, LoadEliminationRespectsStores) {
  auto m = ParseModuleOrDie(R"(
    func @f(%p: i32*, %q: i32*) -> i32 {
    entry:
      %v1 = load %p
      %v2 = load %p
      store i32 5, %q
      %v3 = load %p
      %s1 = add %v1, %v2
      %s2 = add %s1, %v3
      ret %s2
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(CsePass().RunOnFunction(*f));
  ExpectValid(*m);
  // v2 folds into v1; v3 must stay (q may alias p).
  EXPECT_EQ(CountOpcode(*f, Opcode::kLoad), 2u);
}

TEST(CseTest, StoreForwardsToLoad) {
  auto m = ParseModuleOrDie(R"(
    func @f(%p: i32*, %x: i32) -> i32 {
    entry:
      store %x, %p
      %v = load %p
      ret %v
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(CsePass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kLoad), 0u);
  auto* ret = Cast<RetInst>(f->entry()->Terminator());
  EXPECT_EQ(ret->value(), f->Arg(1));
}

TEST(RuntimeChecksTest, GuardsDivisionAndShift) {
  auto m = ParseModuleOrDie(R"(
    func @f(%a: i32, %b: i32) -> i32 {
    entry:
      %q = sdiv %a, %b
      %s = shl %q, %b
      %safe = udiv %a, i32 8
      ret %s
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(RuntimeCheckPass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kCheck), 2u);  // div by %b, shift by %b; const div skipped
}

TEST(RuntimeChecksTest, ElidesWhenRangeProvesSafe) {
  auto m = ParseModuleOrDie(R"(
    func @f(%a: i32, %b: i32) -> i32 {
    entry:
      %masked = and %b, i32 7
      %nonzero = or %masked, i32 1
      %q = sdiv %a, %nonzero
      %s = shl %q, %masked
      ret %s
    }
  )");
  Function* f = m->GetFunction("f");
  // nonzero in [1,7]: no div check; masked in [0,7] < 32: no shift check.
  EXPECT_FALSE(RuntimeCheckPass().RunOnFunction(*f));
  EXPECT_EQ(CountOpcode(*f, Opcode::kCheck), 0u);
}

TEST(RuntimeChecksTest, GuardsVariableArrayIndex) {
  auto m = ParseModuleOrDie(R"(
    global @tab : [4 x i8] const = [1, 2, 3, 4]
    func @f(%i: i64) -> i8 {
    entry:
      %p = gep [4 x i8], @tab, i64 0, %i
      %v = load %p
      ret %v
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(RuntimeCheckPass().RunOnFunction(*f));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*f, Opcode::kCheck), 1u);
}

}  // namespace
}  // namespace overify
