// Tests for structural passes: inliner, if-conversion, loop unswitch, loop
// unroll, jump threading, LICM, and the loop utilities.
#include <gtest/gtest.h>

#include "src/analysis/path_count.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/passes/dce.h"
#include "src/passes/if_convert.h"
#include "src/passes/inliner.h"
#include "src/passes/instcombine.h"
#include "src/passes/jump_threading.h"
#include "src/passes/licm.h"
#include "src/passes/loop_unroll.h"
#include "src/passes/loop_unswitch.h"
#include "src/passes/loop_utils.h"
#include "src/passes/mem2reg.h"
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
  ASSERT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

void Cleanup(Function& fn) {
  InstCombinePass().RunOnFunction(fn);
  SimplifyCfgPass().RunOnFunction(fn);
  DcePass().RunOnFunction(fn);
}

TEST(InlinerTest, InlinesSimpleCall) {
  auto m = ParseModuleOrDie(R"(
    func @inc(%x: i32) -> i32 {
    entry:
      %r = add %x, i32 1
      ret %r
    }
    func @f(%a: i32) -> i32 {
    entry:
      %v = call @inc(%a)
      %w = call @inc(%v)
      ret %w
    }
  )");
  InlinerPass pass(InlinerOptions{});
  EXPECT_TRUE(pass.Run(*m));
  ExpectValid(*m);
  Function* f = m->GetFunction("f");
  EXPECT_EQ(CountOpcode(*f, Opcode::kCall), 0u);
  Cleanup(*f);
  // instcombine reassociates (a+1)+1 into a+2: a single add remains.
  EXPECT_EQ(CountOpcode(*f, Opcode::kAdd), 1u);
}

TEST(InlinerTest, InlinesMultiReturnCalleeWithPhi) {
  auto m = ParseModuleOrDie(R"(
    func @pick(%c: i1, %a: i32, %b: i32) -> i32 {
    entry:
      br %c, label %t, label %e
    t:
      ret %a
    e:
      ret %b
    }
    func @f(%c: i1, %x: i32) -> i32 {
    entry:
      %v = call @pick(%c, %x, i32 9)
      %w = add %v, i32 1
      ret %w
    }
  )");
  InlinerPass pass(InlinerOptions{});
  EXPECT_TRUE(pass.Run(*m));
  ExpectValid(*m);
  Function* f = m->GetFunction("f");
  EXPECT_EQ(CountOpcode(*f, Opcode::kCall), 0u);
  EXPECT_GE(CountOpcode(*f, Opcode::kPhi), 1u);
}

TEST(InlinerTest, RespectsNeverHintAndRecursion) {
  auto m = ParseModuleOrDie(R"(
    func @self(%x: i32) -> i32 {
    entry:
      %c = icmp sle %x, i32 0
      br %c, label %base, label %rec
    base:
      ret i32 0
    rec:
      %x1 = sub %x, i32 1
      %r = call @self(%x1)
      ret %r
    }
    func @never(%x: i32) -> i32 {
    entry:
      %r = add %x, i32 1
      ret %r
    }
    func @f(%a: i32) -> i32 {
    entry:
      %v = call @self(%a)
      %w = call @never(%v)
      ret %w
    }
  )");
  m->GetFunction("never")->set_inline_hint(InlineHint::kNever);
  InlinerPass pass(InlinerOptions{});
  pass.Run(*m);
  ExpectValid(*m);
  Function* f = m->GetFunction("f");
  EXPECT_EQ(CountOpcode(*f, Opcode::kCall), 2u);  // both stay
}

TEST(InlinerTest, ThresholdGateAndLibcOverride) {
  auto m = ParseModuleOrDie(R"(
    func @big(%x: i32) -> i32 {
    entry:
      %a1 = add %x, i32 1
      %a2 = add %a1, i32 2
      %a3 = add %a2, i32 3
      %a4 = add %a3, i32 4
      %a5 = add %a4, i32 5
      %a6 = add %a5, i32 6
      ret %a6
    }
    func @f(%a: i32) -> i32 {
    entry:
      %v = call @big(%a)
      ret %v
    }
  )");
  InlinerOptions tight;
  tight.callee_size_threshold = 3;
  InlinerPass pass(tight);
  EXPECT_FALSE(pass.Run(*m));

  m->GetFunction("big")->set_is_libc(true);
  tight.always_inline_libc = true;
  InlinerPass libc_pass(tight);
  EXPECT_TRUE(libc_pass.Run(*m));
  ExpectValid(*m);
  EXPECT_EQ(CountOpcode(*m->GetFunction("f"), Opcode::kCall), 0u);
}

TEST(IfConvertTest, DiamondBecomesSelect) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %a: i32, %b: i32) -> i32 {
    entry:
      br %c, label %t, label %e
    t:
      %x = add %a, i32 1
      br label %join
    e:
      %y = mul %b, i32 2
      br label %join
    join:
      %r = phi i32 [ %x, %t ], [ %y, %e ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  IfConvertOptions aggressive;
  aggressive.branch_cost = 1000;
  EXPECT_TRUE(IfConvertPass(aggressive).RunOnFunction(*f));
  ExpectValid(*m);
  SimplifyCfgPass().RunOnFunction(*f);
  EXPECT_EQ(f->NumBlocks(), 1u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kSelect), 1u);
  EXPECT_EQ(CountAcyclicPaths(*f), 1u);
}

TEST(IfConvertTest, TriangleBecomesSelect) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %a: i32) -> i32 {
    entry:
      br %c, label %t, label %join
    t:
      %x = add %a, i32 5
      br label %join
    join:
      %r = phi i32 [ %x, %t ], [ %a, %entry ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  IfConvertOptions aggressive;
  aggressive.branch_cost = 1000;
  EXPECT_TRUE(IfConvertPass(aggressive).RunOnFunction(*f));
  ExpectValid(*m);
  SimplifyCfgPass().RunOnFunction(*f);
  EXPECT_EQ(CountAcyclicPaths(*f), 1u);
}

TEST(IfConvertTest, CpuCostModelDeclines) {
  // Five speculated instructions exceed a CPU-like branch cost of 2.
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %a: i32) -> i32 {
    entry:
      br %c, label %t, label %join
    t:
      %x1 = add %a, i32 1
      %x2 = mul %x1, i32 3
      %x3 = add %x2, i32 7
      %x4 = mul %x3, i32 5
      %x5 = add %x4, i32 9
      br label %join
    join:
      %r = phi i32 [ %x5, %t ], [ %a, %entry ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  IfConvertOptions cpu;
  cpu.branch_cost = 2;
  EXPECT_FALSE(IfConvertPass(cpu).RunOnFunction(*f));
  EXPECT_EQ(CountOpcode(*f, Opcode::kSelect), 0u);
}

TEST(IfConvertTest, RefusesSideEffects) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %p: i32*, %a: i32) -> i32 {
    entry:
      br %c, label %t, label %join
    t:
      store %a, %p
      br label %join
    join:
      %r = phi i32 [ i32 1, %t ], [ i32 0, %entry ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  IfConvertOptions aggressive;
  aggressive.branch_cost = 1000;
  EXPECT_FALSE(IfConvertPass(aggressive).RunOnFunction(*f));
}

TEST(IfConvertTest, RefusesUnprovenLoadWithoutDominatingAccess) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %p: i32*) -> i32 {
    entry:
      br %c, label %t, label %join
    t:
      %v = load %p
      br label %join
    join:
      %r = phi i32 [ %v, %t ], [ i32 0, %entry ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  IfConvertOptions aggressive;
  aggressive.branch_cost = 1000;
  aggressive.speculate_loads = true;
  EXPECT_FALSE(IfConvertPass(aggressive).RunOnFunction(*f));
}

TEST(IfConvertTest, SpeculatesLoadWithDominatingAccess) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %p: i32*) -> i32 {
    entry:
      %first = load %p
      br %c, label %t, label %join
    t:
      %v = load %p
      br label %join
    join:
      %r = phi i32 [ %v, %t ], [ %first, %entry ]
      ret %r
    }
  )");
  Function* f = m->GetFunction("f");
  IfConvertOptions aggressive;
  aggressive.branch_cost = 1000;
  aggressive.speculate_loads = true;
  EXPECT_TRUE(IfConvertPass(aggressive).RunOnFunction(*f));
  ExpectValid(*m);
}

// atoi's sign diamond, `if (s[i] == '-') { sign = -1; i++; } else
// i += (s[i] == '+');`, followed by %USE%: the use the join phi `%i` feeds.
std::string AtoiSignDiamond(const std::string& use) {
  std::string ir = R"(
    func @f(%s: i8*, %start: i64) -> i32 {
    entry:
      %p0 = gep i8, %s, %start
      %c0 = load %p0
      %neg = icmp eq %c0, i8 45
      br %neg, label %minus, label %other
    minus:
      %im = add %start, i64 1
      br label %join
    other:
      %plus = icmp eq %c0, i8 43
      %step = zext %plus to i64
      %ip = add %start, %step
      br label %join
    join:
      %i = phi i64 [ %im, %minus ], [ %ip, %other ]
      %sign = phi i32 [ i32 -1, %minus ], [ i32 1, %other ]
      %USE%
    }
  )";
  ir.replace(ir.find("%USE%"), 5, use);
  return ir;
}

// The phi indexes the digit load directly.
const char* kIndexesGepDirectly = R"(
      %p = gep i8, %s, %i
      %c = load %p
      %v = zext %c to i32
      %r = mul %v, %sign
      ret %r)";

// The phi only reaches the address through the digit loop's induction phi.
const char* kIndexesGepThroughLoopPhi = R"(
      br label %loop
    loop:
      %k = phi i64 [ %i, %join ], [ %k1, %body ]
      %acc = phi i32 [ i32 0, %join ], [ %acc1, %body ]
      %p = gep i8, %s, %k
      %c = load %p
      %more = icmp ne %c, i8 0
      br %more, label %body, label %done
    body:
      %d = zext %c to i32
      %acc1 = add %acc, %d
      %k1 = add %k, i64 1
      br label %loop
    done:
      %r = mul %acc, %sign
      ret %r)";

// The phi feeds only arithmetic and the return.
const char* kFeedsArithmeticOnly = R"(
      %t = trunc %i to i32
      %r = mul %t, %sign
      ret %r)";

IfConvertOptions VerifierCost() {
  IfConvertOptions options;
  options.verifier_cost = true;
  return options;
}

TEST(IfConvertTest, VerifierCostRefusesSelectThatIndexesMemory) {
  for (const char* use : {kIndexesGepDirectly, kIndexesGepThroughLoopPhi}) {
    auto m = ParseModuleOrDie(AtoiSignDiamond(use));
    Function* f = m->GetFunction("f");
    EXPECT_FALSE(IfConvertPass(VerifierCost()).RunOnFunction(*f)) << use;
    EXPECT_EQ(CountOpcode(*f, Opcode::kSelect), 0u) << use;
  }
}

TEST(IfConvertTest, CpuCostModelStillConvertsSelectThatIndexesMemory) {
  IfConvertOptions cpu;
  cpu.branch_cost = 1 << 20;
  for (const char* use : {kIndexesGepDirectly, kIndexesGepThroughLoopPhi}) {
    auto m = ParseModuleOrDie(AtoiSignDiamond(use));
    Function* f = m->GetFunction("f");
    EXPECT_TRUE(IfConvertPass(cpu).RunOnFunction(*f)) << use;
    ExpectValid(*m);
    EXPECT_EQ(CountOpcode(*f, Opcode::kSelect), 2u) << use;
  }
}

TEST(IfConvertTest, VerifierCostConvertsSelectThatFeedsArithmeticOnly) {
  auto m = ParseModuleOrDie(AtoiSignDiamond(kFeedsArithmeticOnly));
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(IfConvertPass(VerifierCost()).RunOnFunction(*f));
  ExpectValid(*m);
  SimplifyCfgPass().RunOnFunction(*f);
  EXPECT_EQ(CountOpcode(*f, Opcode::kSelect), 2u);
  EXPECT_EQ(CountAcyclicPaths(*f), 1u);
}

TEST(IfConvertTest, AddressRefusalCountsOncePerBranch) {
  // The digit then feeds a convertible diamond. Converting it restarts the
  // scan, which meets the refused sign branch a second time.
  auto m = ParseModuleOrDie(AtoiSignDiamond(R"(
      %p = gep i8, %s, %i
      %c = load %p
      %v = zext %c to i32
      %nz = icmp ne %v, i32 0
      br %nz, label %a, label %b
    a:
      %x = add %v, i32 1
      br label %end
    b:
      %y = add %v, i32 2
      br label %end
    end:
      %z = phi i32 [ %x, %a ], [ %y, %b ]
      %r = mul %z, %sign
      ret %r)"));
  PassManager pm;
  pm.Add(std::make_unique<IfConvertPass>(VerifierCost()));
  EXPECT_TRUE(pm.Run(*m));
  EXPECT_EQ(pm.metrics().Get(Counter::kIfConvertAddressSelectsRefused), 1u);
  EXPECT_EQ(pm.metrics().Get(Counter::kIfConvertBranchesConverted), 1u);
}

const char* kUnswitchable = R"(
  func @f(%n: i32, %any: i32) -> i32 {
  entry:
    %flag = icmp ne %any, i32 0
    br label %header
  header:
    %i = phi i32 [ i32 0, %entry ], [ %ni, %latch ]
    %acc = phi i32 [ i32 0, %entry ], [ %nacc, %latch ]
    %c = icmp slt %i, %n
    br %c, label %body, label %exit
  body:
    br %flag, label %double, label %single
  double:
    %d = mul %i, i32 2
    br label %latch
  single:
    br label %latch
  latch:
    %delta = phi i32 [ %d, %double ], [ %i, %single ]
    %nacc = add %acc, %delta
    %ni = add %i, i32 1
    br label %header
  exit:
    ret %acc
  }
)";

TEST(UnswitchTest, HoistsInvariantBranch) {
  auto m = ParseModuleOrDie(kUnswitchable);
  Function* f = m->GetFunction("f");
  UnswitchOptions options;
  EXPECT_TRUE(LoopUnswitchPass(options).RunOnFunction(*f));
  ExpectValid(*m);
  Cleanup(*f);
  ExpectValid(*m);

  // After unswitching, no block inside either loop branches on %flag: the
  // only conditional branches left are the two loop exits plus the preheader
  // dispatch.
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  for (Loop* loop : loops.LoopsInnermostFirst()) {
    for (BasicBlock* block : loop->blocks()) {
      auto* br = DynCast<BranchInst>(block->Terminator());
      if (br != nullptr && br->IsConditional()) {
        EXPECT_FALSE(loop->IsInvariant(br->condition()))
            << "invariant branch still inside a loop";
      }
    }
  }
  EXPECT_EQ(loops.NumLoops(), 2u);  // two specialized copies
}

TEST(UnswitchTest, RespectsSizeLimit) {
  auto m = ParseModuleOrDie(kUnswitchable);
  Function* f = m->GetFunction("f");
  UnswitchOptions tiny;
  tiny.loop_size_limit = 2;
  EXPECT_FALSE(LoopUnswitchPass(tiny).RunOnFunction(*f));
}

TEST(LoopUtilsTest, TripCountWhileStyle) {
  auto m = ParseModuleOrDie(R"(
    func @f(%unused: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %body ]
      %c = icmp slt %i, i32 5
      br %c, label %body, label %exit
    body:
      %ni = add %i, i32 1
      br label %header
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("f");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  ASSERT_EQ(loops.NumLoops(), 1u);
  auto trip = ComputeTripCount(loops.TopLevelLoops()[0], 100);
  ASSERT_TRUE(trip.has_value());
  EXPECT_EQ(trip->trip_count, 5u);
}

TEST(LoopUtilsTest, TripCountDoWhileStyle) {
  auto m = ParseModuleOrDie(R"(
    func @f(%unused: i32) -> i32 {
    entry:
      br label %body
    body:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %body ]
      %ni = add %i, i32 1
      %c = icmp slt %ni, i32 3
      br %c, label %body, label %exit
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("f");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  ASSERT_EQ(loops.NumLoops(), 1u);
  auto trip = ComputeTripCount(loops.TopLevelLoops()[0], 100);
  ASSERT_TRUE(trip.has_value());
  EXPECT_EQ(trip->trip_count, 3u);
}

TEST(LoopUtilsTest, TripCountBailsOnDynamicBound) {
  auto m = ParseModuleOrDie(R"(
    func @f(%n: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %body ]
      %c = icmp slt %i, %n
      br %c, label %body, label %exit
    body:
      %ni = add %i, i32 1
      br label %header
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("f");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  EXPECT_FALSE(ComputeTripCount(loops.TopLevelLoops()[0], 100).has_value());
}

TEST(UnrollTest, FullyUnrollsConstantTripLoop) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %body ]
      %acc = phi i32 [ %x, %entry ], [ %nacc, %body ]
      %c = icmp slt %i, i32 4
      br %c, label %body, label %exit
    body:
      %nacc = add %acc, %i
      %ni = add %i, i32 1
      br label %header
    exit:
      ret %acc
    }
  )");
  Function* f = m->GetFunction("f");
  UnrollOptions options;
  EXPECT_TRUE(LoopUnrollPass(options).RunOnFunction(*f));
  ExpectValid(*m);
  Cleanup(*f);
  Cleanup(*f);
  ExpectValid(*m);
  // The loop is gone: no back edges remain.
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  EXPECT_EQ(loops.NumLoops(), 0u);
  // acc = x + 0 + 1 + 2 + 3.
  std::string text = PrintFunction(*f);
  EXPECT_NE(text.find("add %x, i32 6"), std::string::npos) << text;
}

TEST(UnrollTest, RespectsTripCountBudget) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %body ]
      %c = icmp slt %i, i32 100
      br %c, label %body, label %exit
    body:
      %ni = add %i, i32 1
      br label %header
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("f");
  UnrollOptions small;
  small.max_trip_count = 8;
  EXPECT_FALSE(LoopUnrollPass(small).RunOnFunction(*f));
}

TEST(JumpThreadingTest, SameConditionThreads) {
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      %c = icmp slt %x, i32 10
      br %c, label %via, label %other
    via:
      br %c, label %t, label %e
    other:
      ret i32 0
    t:
      ret i32 1
    e:
      ret i32 2
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(JumpThreadingPass().RunOnFunction(*f));
  ExpectValid(*m);
  SimplifyCfgPass().RunOnFunction(*f);
  // entry now reaches t directly; e is unreachable and removed.
  bool has_e = false;
  for (BasicBlock& bb : *f) {
    if (bb.name() == "e") {
      has_e = true;
    }
  }
  EXPECT_FALSE(has_e);
}

TEST(JumpThreadingTest, SubsumedConditionThreads) {
  // (x < 10) true implies (x < 20) true: the second test is redundant.
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      %c1 = icmp slt %x, i32 10
      br %c1, label %via, label %other
    via:
      %c2 = icmp slt %x, i32 20
      br %c2, label %t, label %e
    other:
      ret i32 0
    t:
      ret i32 1
    e:
      ret i32 2
    }
  )");
  Function* f = m->GetFunction("f");
  // `via` holds the icmp itself, which jump threading must skip over; move
  // it out first via instcombine? No: the pass requires phis-only blocks, so
  // hoist c2 manually by CSE-like reorganization is out of scope. Instead,
  // validate the decision logic through a phis-only via block:
  (void)f;
  auto m2 = ParseModuleOrDie(R"(
    func @g(%x: i32) -> i32 {
    entry:
      %c1 = icmp slt %x, i32 10
      %c2 = icmp slt %x, i32 20
      br %c1, label %via, label %other
    via:
      br %c2, label %t, label %e
    other:
      ret i32 0
    t:
      ret i32 1
    e:
      ret i32 2
    }
  )");
  Function* g = m2->GetFunction("g");
  EXPECT_TRUE(JumpThreadingPass().RunOnFunction(*g));
  ExpectValid(*m2);
  SimplifyCfgPass().RunOnFunction(*g);
  bool has_e = false;
  for (BasicBlock& bb : *g) {
    if (bb.name() == "e") {
      has_e = true;
    }
  }
  EXPECT_FALSE(has_e);
}

TEST(JumpThreadingTest, OppositeEdgeThreadsToFalse) {
  // (x < 10) false implies (x < 5) false.
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      %c1 = icmp slt %x, i32 10
      %c2 = icmp slt %x, i32 5
      br %c1, label %other, label %via
    via:
      br %c2, label %t, label %e
    other:
      ret i32 0
    t:
      ret i32 1
    e:
      ret i32 2
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(JumpThreadingPass().RunOnFunction(*f));
  ExpectValid(*m);
  SimplifyCfgPass().RunOnFunction(*f);
  bool has_t = false;
  for (BasicBlock& bb : *f) {
    if (bb.name() == "t") {
      has_t = true;
    }
  }
  EXPECT_FALSE(has_t);
}

TEST(JumpThreadingTest, NoThreadWhenUndecidable) {
  // (x < 10) true does not decide (x < 5).
  auto m = ParseModuleOrDie(R"(
    func @f(%x: i32) -> i32 {
    entry:
      %c1 = icmp slt %x, i32 10
      %c2 = icmp slt %x, i32 5
      br %c1, label %via, label %other
    via:
      br %c2, label %t, label %e
    other:
      ret i32 0
    t:
      ret i32 1
    e:
      ret i32 2
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_FALSE(JumpThreadingPass().RunOnFunction(*f));
}

TEST(LicmTest, HoistsInvariantComputation) {
  auto m = ParseModuleOrDie(R"(
    func @f(%n: i32, %a: i32, %b: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %header ]
      %inv = mul %a, %b
      %ni = add %i, %inv
      %c = icmp slt %ni, %n
      br %c, label %header, label %exit
    exit:
      ret %ni
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(LicmPass().RunOnFunction(*f));
  ExpectValid(*m);
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  ASSERT_EQ(loops.NumLoops(), 1u);
  Loop* loop = loops.TopLevelLoops()[0];
  for (BasicBlock* block : loop->blocks()) {
    for (auto& inst : *block) {
      EXPECT_NE(inst->opcode(), Opcode::kMul) << "invariant mul not hoisted";
    }
  }
}

TEST(LicmTest, HoistsInvariantLoadWhenNoStores) {
  auto m = ParseModuleOrDie(R"(
    global @g : [1 x i32] = [5, 0, 0, 0]
    func @f(%n: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %header ]
      %p = gep [1 x i32], @g, i64 0, i64 0
      %v = load %p
      %ni = add %i, %v
      %c = icmp slt %ni, %n
      br %c, label %header, label %exit
    exit:
      ret %ni
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_TRUE(LicmPass().RunOnFunction(*f));
  ExpectValid(*m);
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  Loop* loop = loops.TopLevelLoops()[0];
  for (BasicBlock* block : loop->blocks()) {
    for (auto& inst : *block) {
      EXPECT_NE(inst->opcode(), Opcode::kLoad) << "invariant load not hoisted";
    }
  }
}

TEST(LicmTest, DoesNotHoistLoadPastAliasingStore) {
  auto m = ParseModuleOrDie(R"(
    func @f(%n: i32, %p: i32*, %q: i32*) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %header ]
      %v = load %p
      store %i, %q
      %ni = add %i, %v
      %c = icmp slt %ni, %n
      br %c, label %header, label %exit
    exit:
      ret %ni
    }
  )");
  Function* f = m->GetFunction("f");
  LicmPass().RunOnFunction(*f);
  ExpectValid(*m);
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  Loop* loop = loops.TopLevelLoops()[0];
  bool load_in_loop = false;
  for (BasicBlock* block : loop->blocks()) {
    for (auto& inst : *block) {
      if (inst->opcode() == Opcode::kLoad) {
        load_in_loop = true;
      }
    }
  }
  EXPECT_TRUE(load_in_loop);
}

TEST(LoopUtilsTest, EnsurePreheaderCreatesOne) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1, %n: i32) -> i32 {
    entry:
      br %c, label %header, label %other
    other:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ i32 1, %other ], [ %ni, %header ]
      %ni = add %i, i32 1
      %cc = icmp slt %ni, %n
      br %cc, label %header, label %exit
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("f");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  Loop* loop = loops.TopLevelLoops()[0];
  EXPECT_EQ(loop->Preheader(), nullptr);
  BasicBlock* ph = EnsurePreheader(loop);
  ASSERT_NE(ph, nullptr);
  ExpectValid(*m);
  // Recompute: the loop must now have that preheader.
  DominatorTree dom2(*f);
  LoopInfo loops2(*f, dom2);
  EXPECT_EQ(loops2.TopLevelLoops()[0]->Preheader(), ph);
}

TEST(LoopUtilsTest, FormLCSSAInsertsExitPhis) {
  auto m = ParseModuleOrDie(R"(
    func @f(%n: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %ni, %header ]
      %ni = add %i, i32 1
      %c = icmp slt %ni, %n
      br %c, label %header, label %exit
    exit:
      %use = add %ni, i32 5
      ret %use
    }
  )");
  Function* f = m->GetFunction("f");
  DominatorTree dom(*f);
  LoopInfo loops(*f, dom);
  EXPECT_TRUE(FormLCSSA(*f, loops.TopLevelLoops()[0]));
  ExpectValid(*m);
  // The exit block now begins with an lcssa phi.
  for (BasicBlock& bb : *f) {
    if (bb.name() == "exit") {
      EXPECT_EQ(bb.begin()->get()->opcode(), Opcode::kPhi);
    }
  }
}

}  // namespace
}  // namespace overify
