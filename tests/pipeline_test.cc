// Tests for pipeline construction, the pass manager, and global DCE.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/persist.h"
#include "src/driver/compiler.h"
#include "src/frontend/codegen.h"
#include "src/ir/parser.h"
#include "src/passes/global_dce.h"
#include "src/passes/pipeline.h"
#include "src/support/diagnostics.h"
#include "src/vlibc/vlibc.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

std::vector<std::string> PassNames(const PipelineOptions& options) {
  PassManager pm(/*verify_after_each=*/false);
  ProgramAnnotations annotations;
  BuildPipeline(pm, options, &annotations);
  // Run on an empty module to collect timings (and thus names).
  Module m("empty");
  pm.Run(m);
  std::vector<std::string> names;
  for (const auto& timing : pm.timings()) {
    names.push_back(timing.pass_name);
  }
  return names;
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const auto& n : names) {
    if (n == name) {
      return true;
    }
  }
  return false;
}

TEST(PipelineTest, O0IsEmpty) {
  EXPECT_TRUE(PassNames(PipelineOptions::For(OptLevel::kO0)).empty());
}

TEST(PipelineTest, O1IsScalarOnly) {
  auto names = PassNames(PipelineOptions::For(OptLevel::kO1));
  EXPECT_TRUE(Contains(names, "mem2reg"));
  EXPECT_TRUE(Contains(names, "instcombine"));
  EXPECT_FALSE(Contains(names, "inline"));
  EXPECT_FALSE(Contains(names, "unswitch"));
  EXPECT_FALSE(Contains(names, "ifconvert"));
}

TEST(PipelineTest, O2AddsInliningButNotRestructuring) {
  auto names = PassNames(PipelineOptions::For(OptLevel::kO2));
  EXPECT_TRUE(Contains(names, "inline"));
  EXPECT_TRUE(Contains(names, "cse"));
  EXPECT_TRUE(Contains(names, "licm"));
  // Table 1's premise: -O2 must not change path structure.
  EXPECT_FALSE(Contains(names, "unswitch"));
  EXPECT_FALSE(Contains(names, "unroll"));
  EXPECT_FALSE(Contains(names, "ifconvert"));
  EXPECT_FALSE(Contains(names, "jumpthread"));
}

TEST(PipelineTest, O3AddsRestructuring) {
  auto names = PassNames(PipelineOptions::For(OptLevel::kO3));
  EXPECT_TRUE(Contains(names, "unswitch"));
  EXPECT_TRUE(Contains(names, "unroll"));
  EXPECT_TRUE(Contains(names, "ifconvert"));
  EXPECT_TRUE(Contains(names, "jumpthread"));
  EXPECT_FALSE(Contains(names, "checks"));
  EXPECT_FALSE(Contains(names, "annotate"));
}

TEST(PipelineTest, OverifyAddsVerificationExtras) {
  auto names = PassNames(PipelineOptions::For(OptLevel::kOverify));
  EXPECT_TRUE(Contains(names, "checks"));
  EXPECT_TRUE(Contains(names, "annotate"));
  EXPECT_TRUE(Contains(names, "ifconvert"));
  // If-conversion must precede jump threading (see pipeline.cc).
  size_t ifconvert_pos = 0;
  size_t jumpthread_pos = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "ifconvert" && ifconvert_pos == 0) {
      ifconvert_pos = i;
    }
    if (names[i] == "jumpthread") {
      jumpthread_pos = i;
    }
  }
  EXPECT_LT(ifconvert_pos, jumpthread_pos);
}

TEST(PipelineTest, LevelOptionsEncodeThePapersFourDifferences) {
  PipelineOptions o3 = PipelineOptions::For(OptLevel::kO3);
  PipelineOptions ov = PipelineOptions::For(OptLevel::kOverify);
  // (1) pass selection
  EXPECT_FALSE(o3.runtime_checks);
  EXPECT_TRUE(ov.runtime_checks);
  // (2) cost values
  EXPECT_GT(ov.if_converter.branch_cost, 1000);
  EXPECT_LT(o3.if_converter.branch_cost, 10);
  EXPECT_GT(ov.inliner.callee_size_threshold, o3.inliner.callee_size_threshold);
  EXPECT_GT(ov.unroller.max_trip_count, o3.unroller.max_trip_count);
  // (3) metadata
  EXPECT_TRUE(ov.annotate);
  EXPECT_FALSE(o3.annotate);
  // (4) library flavor
  EXPECT_TRUE(ov.use_verify_libc);
  EXPECT_FALSE(o3.use_verify_libc);
}

TEST(PassManagerTest, InterPassVerificationFollowsTheBuildDefault) {
  // Debug builds and -DOVERIFY_VERIFY_IR=ON verify the IR between pipeline
  // passes; plain release builds skip it (src/passes/pass.h).
  PassManager pm;
  EXPECT_EQ(pm.verify_after_each(), kVerifyIRAfterEachPass);
  PassManager forced(/*verify_after_each=*/true);
  EXPECT_TRUE(forced.verify_after_each());
}

TEST(PassManagerTest, ReportsTimingsAndChangeFlags) {
  auto m = ParseModuleOrDie(R"(
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %x = add i32 2, i32 3
      ret %x
    }
  )");
  PassManager pm;
  ProgramAnnotations annotations;
  BuildPipeline(pm, PipelineOptions::For(OptLevel::kO1), &annotations);
  EXPECT_TRUE(pm.Run(*m));
  bool any_changed = false;
  for (const auto& timing : pm.timings()) {
    EXPECT_GE(timing.seconds, 0.0);
    any_changed |= timing.changed;
  }
  EXPECT_TRUE(any_changed);  // the constant add folds
}

// What one compile of a workload did: every compile-phase counter of the
// pass manager's shard, each pipeline pass's changed flag in pipeline order,
// and the content hash of the module it produced.
struct PassOutcome {
  std::vector<uint64_t> counters;
  std::vector<bool> changed;
  uint64_t module_hash = 0;
};

PassOutcome CompileOutcome(const Workload& workload, OptLevel level) {
  const PipelineOptions options = PipelineOptions::For(level);
  std::vector<MiniCSource> sources;
  sources.push_back(
      MiniCSource{options.use_verify_libc ? VerifyLibcSource() : StandardLibcSource(), true});
  sources.push_back(MiniCSource{workload.source, false});
  DiagnosticEngine diags;
  std::unique_ptr<Module> module = CompileMiniC(sources, workload.name, diags);
  EXPECT_NE(module, nullptr) << workload.name << ": " << diags.ToString();
  PassOutcome outcome;
  if (module == nullptr) {
    return outcome;
  }
  ProgramAnnotations annotations;
  PassManager pm;
  BuildPipeline(pm, options, &annotations);
  pm.Run(*module);
  outcome.counters.assign(pm.metrics().counters, pm.metrics().counters + kNumCounters);
  for (const PassManager::Timing& timing : pm.timings()) {
    outcome.changed.push_back(timing.changed);
  }
  outcome.module_hash = ModuleContentHash(*module);
  return outcome;
}

// The compile-phase counters and output module hash of one
// Compiler::Compile call, as its CompileResult reports them.
struct CompiledCounters {
  std::vector<uint64_t> counters;
  uint64_t module_hash = 0;
};

CompiledCounters CompileCounters(const Workload& workload, OptLevel level) {
  CompileResult compiled = Compiler().Compile(workload.source, level, workload.name);
  EXPECT_TRUE(compiled.ok) << workload.name << ": " << compiled.errors;
  CompiledCounters result;
  if (!compiled.ok) {
    return result;
  }
  result.counters.assign(compiled.metrics.counters, compiled.metrics.counters + kNumCounters);
  result.module_hash = ModuleContentHash(*compiled.module);
  return result;
}

TEST(PassManagerTest, PassOutcomesDoNotDependOnHeapHistory) {
  // A pass that keys anything on the address of a freed IR object sees a
  // different answer once malloc hands that address to a new object. Each
  // workload compiles twice; the second compile runs with a spread of small
  // blocks held live, which reshuffles which freed addresses come back.
  // Both compiles must count the same work, report the same per-pass changed
  // flags and produce the same module.
  for (OptLevel level : {OptLevel::kO3, OptLevel::kOverify}) {
    for (const Workload& workload : CoreutilsSuite()) {
      const PassOutcome first = CompileOutcome(workload, level);
      std::vector<std::unique_ptr<char[]>> held;
      for (size_t i = 0; i < 4096; ++i) {
        held.push_back(std::make_unique<char[]>(16 + (i * 37) % 240));
        if (i % 3 == 0) {
          held[i / 2].reset();
        }
      }
      const PassOutcome second = CompileOutcome(workload, level);
      EXPECT_EQ(first.counters, second.counters)
          << workload.name << " at " << OptLevelName(level);
      EXPECT_EQ(first.changed, second.changed)
          << workload.name << " at " << OptLevelName(level);
      EXPECT_EQ(first.module_hash, second.module_hash)
          << workload.name << " at " << OptLevelName(level);
    }
  }
}

TEST(PassManagerTest, ConcurrentCompilesKeepTheirOwnCounters) {
  // Every compile counts into its own PassManager's shard, so compiles on
  // two threads at once each report exactly their single-threaded counts.
  const Workload* workloads[] = {FindWorkload("wc"), FindWorkload("cksum_wide")};
  ASSERT_NE(workloads[0], nullptr);
  ASSERT_NE(workloads[1], nullptr);
  CompiledCounters expected[2];
  for (int i = 0; i < 2; ++i) {
    expected[i] = CompileCounters(*workloads[i], OptLevel::kOverify);
    ASSERT_NE(expected[i].counters, std::vector<uint64_t>(kNumCounters, 0))
        << workloads[i]->name;
  }
  ASSERT_NE(expected[0].counters, expected[1].counters);

  constexpr int kRounds = 4;
  std::vector<CompiledCounters> outcomes[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < kRounds; ++round) {
        outcomes[i].push_back(CompileCounters(*workloads[i], OptLevel::kOverify));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(outcomes[i].size(), static_cast<size_t>(kRounds));
    for (const CompiledCounters& outcome : outcomes[i]) {
      EXPECT_EQ(outcome.counters, expected[i].counters) << workloads[i]->name;
      EXPECT_EQ(outcome.module_hash, expected[i].module_hash) << workloads[i]->name;
    }
  }
}

TEST(GlobalDceTest, RemovesUnreachableFunctions) {
  auto m = ParseModuleOrDie(R"(
    func @used(%x: i32) -> i32 {
    entry:
      %r = add %x, i32 1
      ret %r
    }
    func @dead_leaf(%x: i32) -> i32 {
    entry:
      ret %x
    }
    func @dead_caller(%x: i32) -> i32 {
    entry:
      %r = call @dead_leaf(%x)
      ret %r
    }
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %r = call @used(%n)
      ret %r
    }
  )");
  EXPECT_TRUE(GlobalDcePass().Run(*m));
  EXPECT_NE(m->GetFunction("umain"), nullptr);
  EXPECT_NE(m->GetFunction("used"), nullptr);
  EXPECT_EQ(m->GetFunction("dead_leaf"), nullptr);
  EXPECT_EQ(m->GetFunction("dead_caller"), nullptr);
}

TEST(GlobalDceTest, NoOpWithoutEntryPoint) {
  auto m = ParseModuleOrDie(R"(
    func @library_fn(%x: i32) -> i32 {
    entry:
      ret %x
    }
  )");
  EXPECT_FALSE(GlobalDcePass().Run(*m));
  EXPECT_NE(m->GetFunction("library_fn"), nullptr);
}

TEST(GlobalDceTest, KeepsMutuallyRecursiveReachableFunctions) {
  auto m = ParseModuleOrDie(R"(
    func @even(%x: i32) -> i32 {
    entry:
      %z = icmp eq %x, i32 0
      br %z, label %yes, label %rec
    yes:
      ret i32 1
    rec:
      %x1 = sub %x, i32 1
      %r = call @odd(%x1)
      ret %r
    }
    func @odd(%x: i32) -> i32 {
    entry:
      %z = icmp eq %x, i32 0
      br %z, label %no, label %rec
    no:
      ret i32 0
    rec:
      %x1 = sub %x, i32 1
      %r = call @even(%x1)
      ret %r
    }
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %r = call @even(%n)
      ret %r
    }
  )");
  GlobalDcePass().Run(*m);
  EXPECT_NE(m->GetFunction("even"), nullptr);
  EXPECT_NE(m->GetFunction("odd"), nullptr);
}

}  // namespace
}  // namespace overify
