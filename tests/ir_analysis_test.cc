// Tests for CFG utilities, dominators, loop info and cloning.
#include <gtest/gtest.h>

#include "src/ir/cfg.h"
#include "src/ir/cloning.h"
#include "src/ir/dominators.h"
#include "src/ir/loop_info.h"
#include "src/ir/parser.h"
#include "src/ir/verifier.h"

namespace overify {
namespace {

BasicBlock* FindBlock(Function* f, const std::string& name) {
  for (BasicBlock& bb : *f) {
    if (bb.name() == name) {
      return &bb;
    }
  }
  return nullptr;
}

const char* kDiamond = R"(
  func @d(%c: i1) -> i32 {
  entry:
    br %c, label %left, label %right
  left:
    br label %join
  right:
    br label %join
  join:
    %r = phi i32 [ i32 1, %left ], [ i32 2, %right ]
    ret %r
  }
)";

TEST(CfgTest, ReversePostOrderStartsAtEntry) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  auto rpo = ReversePostOrder(*f);
  ASSERT_EQ(rpo.size(), 4u);
  EXPECT_EQ(rpo.front()->name(), "entry");
  EXPECT_EQ(rpo.back()->name(), "join");
}

TEST(CfgTest, PredecessorMapComplete) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  auto preds = PredecessorMap(*f);
  EXPECT_EQ(preds[FindBlock(f, "join")].size(), 2u);
  EXPECT_EQ(preds[FindBlock(f, "entry")].size(), 0u);
}

TEST(CfgTest, RemoveUnreachableBlocksFixesPhis) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1) -> i32 {
    entry:
      br label %join
    dead:
      br label %join
    join:
      %r = phi i32 [ i32 1, %entry ], [ i32 2, %dead ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_EQ(RemoveUnreachableBlocks(*f), 1u);
  EXPECT_EQ(f->NumBlocks(), 2u);
  auto* phi = DynCast<PhiInst>(FindBlock(f, "join")->begin()->get());
  ASSERT_NE(phi, nullptr);
  EXPECT_EQ(phi->NumIncoming(), 1u);
  EXPECT_TRUE(VerifyModule(*m).empty());
}

TEST(CfgTest, SplitEdgeRedirectsPhi) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  BasicBlock* left = FindBlock(f, "left");
  BasicBlock* join = FindBlock(f, "join");
  BasicBlock* middle = SplitEdge(left, join);
  ASSERT_NE(middle, nullptr);
  EXPECT_TRUE(VerifyModule(*m).empty());
  auto* phi = Cast<PhiInst>(join->begin()->get());
  EXPECT_GE(phi->IncomingIndexFor(middle), 0);
  EXPECT_EQ(phi->IncomingIndexFor(left), -1);
}

TEST(BlockIdTest, ErasedIdsAreNotReused) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  const uint32_t bound = f->BlockIdBound();
  EXPECT_EQ(bound, 4u);
  BasicBlock* spare = f->CreateBlock("spare");
  EXPECT_EQ(spare->id(), bound);
  f->EraseBlock(spare);
  BasicBlock* next = f->CreateBlock("next");
  EXPECT_EQ(next->id(), bound + 1);
  EXPECT_EQ(f->BlockIdBound(), bound + 2);
}

TEST(BlockIdTest, InsertBlockAfterAssignsAFreshId) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  const uint32_t bound = f->BlockIdBound();
  BasicBlock* inserted = f->InsertBlockAfter(f->entry(), std::make_unique<BasicBlock>("mid"));
  EXPECT_EQ(inserted->id(), bound);
  EXPECT_EQ(f->BlockIdBound(), bound + 1);
  EXPECT_EQ(f->BlockList()[1], inserted);
}

TEST(BlockIdTest, BlockCreatedAfterTheDominatorTreeIsUnreachable) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  DominatorTree dom(*f);
  PredecessorMap preds(*f);
  BasicBlock* late = f->CreateBlock("late");
  EXPECT_FALSE(dom.IsReachable(late));
  EXPECT_FALSE(dom.Dominates(f->entry(), late));
  EXPECT_FALSE(dom.Dominates(late, late));
  EXPECT_EQ(dom.ImmediateDominator(late), nullptr);
  EXPECT_TRUE(dom.Children(late).empty());
  EXPECT_TRUE(dom.DominanceFrontier(late).empty());
  EXPECT_TRUE(preds[late].empty());
}

TEST(BlockIdTest, BranchToOneBlockTwiceHasOneSuccessor) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1) -> i32 {
    entry:
      br %c, label %next, label %next
    next:
      ret i32 7
    }
  )");
  Function* f = m->GetFunction("f");
  BasicBlock* next = FindBlock(f, "next");
  SuccessorList succs = f->entry()->Successors();
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0], next);
  EXPECT_EQ(PredecessorMap(*f)[next].size(), 1u);
}

TEST(DominatorTest, DiamondDominance) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  DominatorTree dom(*f);
  BasicBlock* entry = FindBlock(f, "entry");
  BasicBlock* left = FindBlock(f, "left");
  BasicBlock* join = FindBlock(f, "join");
  EXPECT_TRUE(dom.Dominates(entry, join));
  EXPECT_TRUE(dom.Dominates(entry, entry));
  EXPECT_FALSE(dom.Dominates(left, join));
  EXPECT_EQ(dom.ImmediateDominator(join), entry);
  EXPECT_EQ(dom.ImmediateDominator(left), entry);
  EXPECT_EQ(dom.ImmediateDominator(entry), nullptr);
}

TEST(DominatorTest, DominanceFrontierOfDiamond) {
  auto m = ParseModuleOrDie(kDiamond);
  Function* f = m->GetFunction("d");
  DominatorTree dom(*f);
  BasicBlock* left = FindBlock(f, "left");
  BasicBlock* join = FindBlock(f, "join");
  ASSERT_EQ(dom.DominanceFrontier(left).size(), 1u);
  EXPECT_EQ(dom.DominanceFrontier(left)[0], join);
  EXPECT_TRUE(dom.DominanceFrontier(join).empty());
}

const char* kLoop = R"(
  func @l(%n: i32) -> i32 {
  entry:
    br label %header
  header:
    %i = phi i32 [ i32 0, %entry ], [ %ni, %latch ]
    %cmp = icmp slt %i, %n
    br %cmp, label %body, label %exit
  body:
    br label %latch
  latch:
    %ni = add %i, i32 1
    br label %header
  exit:
    ret %i
  }
)";

TEST(LoopInfoTest, DetectsNaturalLoop) {
  auto m = ParseModuleOrDie(kLoop);
  Function* f = m->GetFunction("l");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  ASSERT_EQ(loops.NumLoops(), 1u);
  Loop* loop = loops.TopLevelLoops()[0];
  EXPECT_EQ(loop->header()->name(), "header");
  EXPECT_EQ(loop->blocks().size(), 3u);
  EXPECT_EQ(loop->depth(), 1u);
  EXPECT_EQ(loop->Preheader()->name(), "entry");
  EXPECT_EQ(loop->Latch()->name(), "latch");
  auto exiting = loop->ExitingBlocks();
  ASSERT_EQ(exiting.size(), 1u);
  EXPECT_EQ(exiting[0]->name(), "header");
  auto exits = loop->ExitBlocks();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0]->name(), "exit");
}

TEST(LoopInfoTest, LoopInvariance) {
  auto m = ParseModuleOrDie(kLoop);
  Function* f = m->GetFunction("l");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  Loop* loop = loops.TopLevelLoops()[0];
  EXPECT_TRUE(loop->IsInvariant(f->Arg(0)));
  BasicBlock* header = FindBlock(f, "header");
  EXPECT_FALSE(loop->IsInvariant(header->begin()->get()));  // the phi
}

TEST(LoopInfoTest, NestedLoops) {
  auto m = ParseModuleOrDie(R"(
    func @nest(%n: i32) -> i32 {
    entry:
      br label %outer
    outer:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %outer_latch ]
      br label %inner
    inner:
      %j = phi i32 [ i32 0, %outer ], [ %nj, %inner ]
      %nj = add %j, i32 1
      %jc = icmp slt %nj, %n
      br %jc, label %inner, label %outer_latch
    outer_latch:
      %ni = add %i, i32 1
      %ic = icmp slt %ni, %n
      br %ic, label %outer, label %exit
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("nest");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  ASSERT_EQ(loops.NumLoops(), 2u);
  ASSERT_EQ(loops.TopLevelLoops().size(), 1u);
  Loop* outer = loops.TopLevelLoops()[0];
  ASSERT_EQ(outer->subloops().size(), 1u);
  Loop* inner = outer->subloops()[0];
  EXPECT_EQ(inner->depth(), 2u);
  EXPECT_EQ(inner->header()->name(), "inner");
  EXPECT_TRUE(outer->Contains(inner));
  EXPECT_FALSE(inner->Contains(outer));
  EXPECT_EQ(loops.LoopFor(FindBlock(f, "inner")), inner);
  EXPECT_EQ(loops.LoopFor(FindBlock(f, "outer_latch")), outer);
  EXPECT_EQ(loops.LoopFor(FindBlock(f, "exit")), nullptr);
  auto order = loops.LoopsInnermostFirst();
  EXPECT_EQ(order[0], inner);
  EXPECT_EQ(order[1], outer);
}

TEST(CloningTest, CloneLoopBodyRemapsInternals) {
  auto m = ParseModuleOrDie(kLoop);
  Function* f = m->GetFunction("l");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  Loop* loop = loops.TopLevelLoops()[0];
  std::vector<BasicBlock*> region(loop->blocks().begin(), loop->blocks().end());

  CloneMapping mapping;
  CloneBlocksInto(region, f, ".clone", mapping);
  EXPECT_EQ(f->NumBlocks(), 5u + 3u);

  // The cloned latch's add must use the cloned phi, not the original.
  BasicBlock* latch = FindBlock(f, "latch");
  BasicBlock* latch_clone = mapping.Lookup(latch);
  ASSERT_NE(latch_clone, latch);
  Instruction* add_clone = latch_clone->begin()->get();
  EXPECT_EQ(add_clone->opcode(), Opcode::kAdd);
  BasicBlock* header = FindBlock(f, "header");
  Instruction* orig_phi = header->begin()->get();
  EXPECT_NE(add_clone->Operand(0), orig_phi);
  EXPECT_EQ(add_clone->Operand(0), mapping.Lookup(static_cast<Value*>(orig_phi)));
}

}  // namespace
}  // namespace overify
