// Tests for the slicing subsystem (docs/slicing.md): post-dominators and
// control dependence, call-graph mod/ref + may-trap summaries, the alias and
// call-graph edge cases the slicer leans on, slice extraction + IR
// verification, and slice-vs-whole-program verdict equivalence with the
// full-program interpreter as the soundness oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/call_graph.h"
#include "src/analysis/dependence_graph.h"
#include "src/analysis/slicer.h"
#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/ir/dominators.h"
#include "src/ir/parser.h"
#include "src/ir/verifier.h"
#include "src/workloads/textgen.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

BasicBlock* FindBlock(Function* fn, const std::string& name) {
  for (BasicBlock& block : *fn) {
    if (block.name() == name) {
      return &block;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- post-dom

TEST(PostDominatorTest, DiamondJoins) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1) -> i32 {
    entry:
      br %c, label %then, label %else
    then:
      br label %join
    else:
      br label %join
    join:
      ret i32 0
    }
  )");
  Function* f = m->GetFunction("f");
  PostDominatorTree pdt(*f);
  BasicBlock* entry = FindBlock(f, "entry");
  BasicBlock* then_bb = FindBlock(f, "then");
  BasicBlock* else_bb = FindBlock(f, "else");
  BasicBlock* join = FindBlock(f, "join");
  EXPECT_EQ(pdt.ImmediatePostDominator(entry), join);
  EXPECT_EQ(pdt.ImmediatePostDominator(then_bb), join);
  EXPECT_EQ(pdt.ImmediatePostDominator(else_bb), join);
  EXPECT_EQ(pdt.ImmediatePostDominator(join), nullptr);  // virtual exit
  EXPECT_TRUE(pdt.PostDominates(join, entry));
  EXPECT_FALSE(pdt.PostDominates(then_bb, entry));
  EXPECT_TRUE(pdt.PostDominates(join, join));

  // then/else are control-dependent on entry; join is not.
  const auto& deps = pdt.ControlDependencies();
  ASSERT_EQ(deps.count(then_bb), 1u);
  EXPECT_EQ(deps.at(then_bb), std::vector<BasicBlock*>{entry});
  ASSERT_EQ(deps.count(else_bb), 1u);
  EXPECT_EQ(deps.count(join), 0u);
}

TEST(PostDominatorTest, MultipleExitsMeetAtVirtualExit) {
  auto m = ParseModuleOrDie(R"(
    func @f(%c: i1) -> i32 {
    entry:
      br %c, label %a, label %b
    a:
      ret i32 1
    b:
      ret i32 2
    }
  )");
  Function* f = m->GetFunction("f");
  PostDominatorTree pdt(*f);
  // No common block post-dominates entry: its ipdom is the virtual exit.
  EXPECT_EQ(pdt.ImmediatePostDominator(FindBlock(f, "entry")), nullptr);
  EXPECT_TRUE(pdt.HasInfo(FindBlock(f, "entry")));
}

TEST(PostDominatorTest, LoopBlocksDependOnLoopBranch) {
  auto m = ParseModuleOrDie(R"(
    func @f(%n: i32) -> i32 {
    entry:
      br label %header
    header:
      %i = phi i32 [ i32 0, %entry ], [ %inc, %body ]
      %cont = icmp slt %i, %n
      br %cont, label %body, label %exit
    body:
      %inc = add %i, i32 1
      br label %header
    exit:
      ret %i
    }
  )");
  Function* f = m->GetFunction("f");
  PostDominatorTree pdt(*f);
  BasicBlock* header = FindBlock(f, "header");
  BasicBlock* body = FindBlock(f, "body");
  auto& deps = const_cast<PostDominatorTree&>(pdt).ControlDependencies();
  // The body runs iff the header branch goes its way; the header re-runs
  // when the loop iterates, so it is control-dependent on itself.
  ASSERT_EQ(deps.count(body), 1u);
  EXPECT_EQ(deps.at(body), std::vector<BasicBlock*>{header});
  ASSERT_EQ(deps.count(header), 1u);
  EXPECT_EQ(deps.at(header), std::vector<BasicBlock*>{header});
}

// ----------------------------------------------------------------- mod/ref

TEST(ModRefTest, GlobalReadAndWriteAttribution) {
  auto m = ParseModuleOrDie(R"(
    global @counter : i32 = [7, 0, 0, 0]
    global @table : i32 const = [9, 0, 0, 0]

    func @bump() -> i32 {
    entry:
      %v = load @counter
      %w = load @table
      %s = add %v, %w
      store %s, @counter
      ret %s
    }
    func @caller() -> i32 {
    entry:
      %r = call @bump()
      ret %r
    }
  )");
  CallGraph cg(*m);
  ModRefSummaries summaries(*m, cg);
  const GlobalVariable* counter = m->GetGlobal("counter");
  const GlobalVariable* table = m->GetGlobal("table");

  const ModRefSummary& bump = summaries.Of(m->GetFunction("bump"));
  EXPECT_EQ(bump.ref_globals.count(counter), 1u);
  EXPECT_EQ(bump.ref_globals.count(table), 1u);
  EXPECT_EQ(bump.mod_globals.count(counter), 1u);
  EXPECT_EQ(bump.mod_globals.count(table), 0u);
  EXPECT_FALSE(bump.reads_unknown);
  EXPECT_FALSE(bump.writes_unknown);
  EXPECT_FALSE(bump.may_trap);  // constant-offset global accesses are safe

  // The caller inherits the callee's global mod/ref transitively.
  const ModRefSummary& caller = summaries.Of(m->GetFunction("caller"));
  EXPECT_EQ(caller.ref_globals.count(counter), 1u);
  EXPECT_EQ(caller.mod_globals.count(counter), 1u);
  EXPECT_FALSE(caller.may_trap);
}

TEST(ModRefTest, ParamModRefTranslatesThroughCallSites) {
  auto m = ParseModuleOrDie(R"(
    func @sink(%p: i8*) -> i32 {
    entry:
      store i8 1, %p
      ret i32 0
    }
    func @caller() -> i32 {
    entry:
      %buf = alloca [4 x i8]
      %p = gep [4 x i8], %buf, i64 0, i64 0
      %r = call @sink(%p)
      ret %r
    }
  )");
  CallGraph cg(*m);
  ModRefSummaries summaries(*m, cg);
  const ModRefSummary& sink = summaries.Of(m->GetFunction("sink"));
  EXPECT_EQ(sink.mod_params.count(0u), 1u);
  EXPECT_TRUE(sink.may_trap);  // a store through an argument can trap
  // At the call site the write lands in the caller's own alloca, which is
  // local: nothing escapes into the caller's summary sets.
  const ModRefSummary& caller = summaries.Of(m->GetFunction("caller"));
  EXPECT_TRUE(caller.mod_params.empty());
  EXPECT_TRUE(caller.mod_globals.empty());
  EXPECT_FALSE(caller.writes_unknown);
  EXPECT_TRUE(caller.may_trap);  // inherited from @sink
}

TEST(ModRefTest, RecursionAndIndirectChainsMayTrap) {
  auto m = ParseModuleOrDie(R"(
    func @even(%n: i32) -> i32 {
    entry:
      %z = icmp eq %n, i32 0
      br %z, label %yes, label %no
    yes:
      ret i32 1
    no:
      %m1 = sub %n, i32 1
      %r = call @odd(%m1)
      ret %r
    }
    func @odd(%n: i32) -> i32 {
    entry:
      %z = icmp eq %n, i32 0
      br %z, label %yes, label %no
    yes:
      ret i32 0
    no:
      %m1 = sub %n, i32 1
      %r = call @even(%m1)
      ret %r
    }
    func @top(%n: i32) -> i32 {
    entry:
      %r = call @even(%n)
      ret %r
    }
    func @leafy(%n: i32) -> i32 {
    entry:
      %d = add %n, i32 2
      ret %d
    }
    func @mid(%n: i32) -> i32 {
    entry:
      %r = call @leafy(%n)
      ret %r
    }
  )");
  CallGraph cg(*m);
  // Mutual recursion is a cycle even without self-loops.
  EXPECT_TRUE(cg.IsRecursive(m->GetFunction("even")));
  EXPECT_TRUE(cg.IsRecursive(m->GetFunction("odd")));
  EXPECT_FALSE(cg.IsRecursive(m->GetFunction("top")));
  EXPECT_FALSE(cg.IsRecursive(m->GetFunction("mid")));

  ModRefSummaries summaries(*m, cg);
  // Recursive functions may blow the engine's stack-depth limit; callers of
  // recursive functions inherit that.
  EXPECT_TRUE(summaries.Of(m->GetFunction("even")).may_trap);
  EXPECT_TRUE(summaries.Of(m->GetFunction("top")).may_trap);
  // A recursion-free call chain of safe functions stays trap-free.
  EXPECT_FALSE(summaries.Of(m->GetFunction("leafy")).may_trap);
  EXPECT_FALSE(summaries.Of(m->GetFunction("mid")).may_trap);
}

// --------------------------------------------- alias edge cases for slicing

TEST(AliasSlicingEdgeCases, TwoBufferArgumentsMayAlias) {
  // The two-input umain contract passes two distinct buffers, but the alias
  // analysis cannot prove that from the IR alone: the slicer must see
  // may-alias so cross-buffer memory dependences are kept.
  auto m = ParseModuleOrDie(R"(
    func @umain(%a: i8*, %na: i32, %b: i8*, %nb: i32) -> i32 {
    entry:
      %x = load %a
      %y = load %b
      %s = add %x, %y
      ret i32 0
    }
  )");
  Function* f = m->GetFunction("umain");
  EXPECT_EQ(Alias(f->Arg(0), 1, f->Arg(2), 1), AliasResult::kMayAlias);
  EXPECT_EQ(Alias(f->Arg(0), 1, f->Arg(0), 1), AliasResult::kMustAlias);
}

TEST(AliasSlicingEdgeCases, NonEscapingAllocaNeverAliasesArgument) {
  auto m = ParseModuleOrDie(R"(
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %local = alloca i32
      store i32 5, %local
      %v = load %local
      %c = load %in
      %cw = zext %c to i32
      %s = add %v, %cw
      ret %s
    }
  )");
  Function* f = m->GetFunction("umain");
  Instruction* local = nullptr;
  for (auto& inst : *f->entry()) {
    if (inst->name() == "local") {
      local = inst.get();
    }
  }
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(Alias(local, 4, f->Arg(0), 1), AliasResult::kNoAlias);
}

// ------------------------------------------------------------------ slicer

// Compiles MiniC at a level and returns the module + slice result.
struct SlicedProgram {
  CompileResult compiled;
  SliceResult slices;
};

SlicedProgram SliceProgram(const std::string& source, OptLevel level) {
  SlicedProgram out;
  Compiler compiler;
  out.compiled = compiler.Compile(source, level);
  EXPECT_TRUE(out.compiled.ok) << out.compiled.errors;
  if (out.compiled.ok) {
    Slicer slicer(*out.compiled.module, out.compiled.module->GetFunction("umain"));
    out.slices = slicer.Run();
  }
  return out;
}

TEST(SlicerTest, SlicesVerifyAndShrink) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  for (OptLevel level : {OptLevel::kOverify, OptLevel::kO3, OptLevel::kO0}) {
    SlicedProgram p = SliceProgram(wc->source, level);
    ASSERT_TRUE(p.slices.ok) << p.slices.error;
    EXPECT_GT(p.slices.checks_found, 0u);
    ASSERT_GT(p.slices.slices.size(), 0u);
    for (const Slice& slice : p.slices.slices) {
      // Every emitted slice passes the IR verifier (also enforced inside
      // Slicer::Run, re-checked here at module level under ASan/UBSan CI).
      EXPECT_TRUE(VerifyFunction(*slice.fn).empty());
      EXPECT_LE(slice.instructions, p.slices.entry_instructions);
      EXPECT_FALSE(slice.criteria.empty());
    }
    // Erasure restores the module (no dangling slice functions).
    size_t built = p.slices.slices.size();
    size_t fns_with_slices = p.compiled.module->functions().size();
    Slicer::EraseSlices(*p.compiled.module, p.slices);
    EXPECT_EQ(p.compiled.module->functions().size(), fns_with_slices - built);
    for (const auto& fn : p.compiled.module->functions()) {
      EXPECT_EQ(fn->name().find(".slice."), std::string::npos);
    }
  }
}

// Regression: to_original was filled from the clone map, which still held
// clones the slicer had erased, so keys pointed at freed instructions (and
// a later slice's instruction could reuse such an address). Every key must
// be an instruction of a live slice function, every live slice instruction
// must be mapped, and every value must be an instruction of the original
// entry. Pointers are only compared, never dereferenced.
TEST(SlicerTest, CloneMapCoversExactlyTheLiveSliceInstructions) {
  for (const Workload& workload : CoreutilsSuite()) {
    SCOPED_TRACE(workload.name);
    SlicedProgram p = SliceProgram(workload.source, OptLevel::kOverify);
    ASSERT_TRUE(p.slices.ok) << p.slices.error;
    std::set<const Instruction*> entry_insts;
    for (BasicBlock& block : *p.compiled.module->GetFunction("umain")) {
      for (const auto& inst : block) {
        entry_insts.insert(inst.get());
      }
    }
    std::set<const Instruction*> live;
    for (const Slice& slice : p.slices.slices) {
      for (BasicBlock& block : *slice.fn) {
        for (const auto& inst : block) {
          live.insert(inst.get());
          EXPECT_EQ(p.slices.to_original.count(inst.get()), 1u)
              << slice.fn->name() << " has an unmapped instruction";
        }
      }
    }
    size_t stale = 0;
    for (const auto& [slice_inst, original] : p.slices.to_original) {
      stale += live.count(slice_inst) == 0 ? 1 : 0;
      EXPECT_EQ(entry_insts.count(original), 1u);
    }
    EXPECT_EQ(stale, 0u) << "to_original keys outside every live slice";
    Slicer::EraseSlices(*p.compiled.module, p.slices);
  }
}

// Distinct (kind, confirmed) verdict set of an Analyze run, the semantic
// the slicing differential pins: `confirmed` means the bug's model input
// reproduces a trap on the full-program concrete interpreter.
std::set<std::pair<std::string, bool>> VerdictSet(const SymexResult& result,
                                                  Module& module) {
  std::set<std::pair<std::string, bool>> verdicts;
  for (const BugReport& bug : result.bugs) {
    Interpreter interp(module);
    InterpResult replay = interp.Run(module.GetFunction("umain"), bug.example_input);
    verdicts.emplace(BugKindName(bug.kind), !replay.ok);
  }
  return verdicts;
}

void ExpectSliceModeMatchesWholeProgram(const std::string& source,
                                        unsigned input_bytes, OptLevel level) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(source, level);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  SymexLimits limits;
  SymexOptions whole;
  SymexResult whole_result = Analyze(compiled, "umain", input_bytes, limits, whole);
  ASSERT_TRUE(whole_result.ok) << whole_result.error;

  SymexOptions sliced;
  sliced.slice_checks = true;
  SymexResult slice_result = Analyze(compiled, "umain", input_bytes, limits, sliced);
  ASSERT_TRUE(slice_result.ok) << slice_result.error;

  EXPECT_EQ(whole_result.exhausted, slice_result.exhausted);
  EXPECT_EQ(VerdictSet(whole_result, *compiled.module),
            VerdictSet(slice_result, *compiled.module));
  // Every slice-mode bug must replay (confirm) on the full program, unless
  // it is an engine-side error report with no model.
  for (const BugReport& bug : slice_result.bugs) {
    if (bug.kind == BugKind::kEngineError) {
      continue;
    }
    Interpreter interp(*compiled.module);
    EXPECT_FALSE(interp.Run(compiled.module->GetFunction("umain"), bug.example_input).ok)
        << "slice-mode bug did not reproduce: " << bug.message;
  }
}

TEST(SliceDifferentialTest, BuggyProgramsFindTheSameBugs) {
  // Division by an input byte and an input-indexed out-of-bounds read, each
  // behind its own branch: multiple criteria, distinct cones.
  const std::string buggy = R"(
int umain(unsigned char *in, int n) {
  int t[4];
  t[0] = 10; t[1] = 20; t[2] = 30; t[3] = 40;
  int r = 0;
  if (in[0] == 'd') { r = 100 / (in[1] - 48); }
  else if (in[0] == 'o') { r = t[in[1] % 8]; }
  return r;
}
)";
  for (OptLevel level : {OptLevel::kO0, OptLevel::kOverify, OptLevel::kO3}) {
    ExpectSliceModeMatchesWholeProgram(buggy, 3, level);
  }
}

TEST(SliceDifferentialTest, TrapFreeWorkloadAgrees) {
  const Workload* wc = FindWorkload("wc_any");
  ASSERT_NE(wc, nullptr);
  ExpectSliceModeMatchesWholeProgram(wc->source, 4, OptLevel::kOverify);
}

TEST(SliceDifferentialTest, RandomizedKernelsPreserveVerdicts) {
  // Textgen kernels are total by construction: both modes must agree on
  // "no bugs, exhausted" — any divergence is a slicer soundness defect.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    KernelGenOptions gen;
    gen.seed = seed;
    ExpectSliceModeMatchesWholeProgram(GenerateMiniCKernel(gen), 3,
                                       OptLevel::kOverify);
  }
}

TEST(SliceDifferentialTest, SliceCountersAreExported) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  Compiler compiler;
  CompileResult compiled = compiler.Compile(wc->source, OptLevel::kOverify);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  SymexOptions sliced;
  sliced.slice_checks = true;
  SymexResult result = Analyze(compiled, "umain", 4, limits, sliced);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.metrics.Get(Counter::kSliceChecksFound), 0u);
  EXPECT_GT(result.metrics.Get(Counter::kSlicesBuilt), 0u);
  EXPECT_GT(result.metrics.Get(Counter::kSliceConeInstructions), 0u);
  EXPECT_EQ(result.metrics.Get(Counter::kSliceFallbacks), 0u);
  EXPECT_EQ(result.metrics.hist(Hist::kSliceConeRatioPct).count(),
            result.metrics.Get(Counter::kSlicesBuilt));
  // All module functions named *.slice.* were erased after the run.
  for (const auto& fn : compiled.module->functions()) {
    EXPECT_EQ(fn->name().find(".slice."), std::string::npos);
  }
}

}  // namespace
}  // namespace overify
