// Validation of the Coreutils-style workload suite: every program compiles
// at every optimization level, computes identical results across levels
// (differential property test on random inputs), and is explorable by the
// symbolic engine without false bug reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/ir/verifier.h"
#include "src/support/rng.h"
#include "src/workloads/textgen.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTest, CompilesCleanAtEveryLevel) {
  const Workload& workload = GetParam();
  for (OptLevel level :
       {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2, OptLevel::kO3, OptLevel::kOverify}) {
    Compiler compiler;
    auto compiled = compiler.Compile(workload.source, level, workload.name);
    ASSERT_TRUE(compiled.ok) << workload.name << " at " << OptLevelName(level) << ":\n"
                             << compiled.errors;
    auto errors = VerifyModule(*compiled.module);
    ASSERT_TRUE(errors.empty()) << workload.name << " at " << OptLevelName(level) << ": "
                                << errors[0];
  }
}

TEST_P(WorkloadTest, LevelsAgreeOnSampleAndRandomInputs) {
  const Workload& workload = GetParam();
  std::vector<CompileResult> compiled;
  std::vector<OptLevel> levels = {OptLevel::kO0, OptLevel::kO2, OptLevel::kO3,
                                  OptLevel::kOverify};
  for (OptLevel level : levels) {
    Compiler compiler;
    compiled.push_back(compiler.Compile(workload.source, level, workload.name));
    ASSERT_TRUE(compiled.back().ok);
  }

  // Fixed signed inputs take every arm of atoi's sign diamond, a branch the
  // levels' if-conversion cost models decide differently; random draws
  // reach a leading sign only about 1 time in 9.
  std::vector<std::string> inputs = {workload.sample_input, "", "-12", "+7", "-3:5", "12+-4",
                                     " -9", "\t+0", "-", "+"};
  Rng rng(42);
  for (int trial = 0; trial < 12; ++trial) {
    std::string input;
    size_t len = rng.NextBelow(14);
    const char alphabet[] = "abzAZ 019.,;/\t\n+-";
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
    }
    inputs.push_back(input);
  }

  for (const std::string& input : inputs) {
    bool have_baseline = false;
    bool baseline_ok = false;
    int64_t baseline_value = 0;
    std::string baseline_output;
    for (size_t i = 0; i < compiled.size(); ++i) {
      Interpreter interp(*compiled[i].module);
      auto run = interp.Run("umain", input);
      if (!have_baseline) {
        have_baseline = true;
        baseline_ok = run.ok;
        baseline_value = run.return_value;
        baseline_output = run.output;
        continue;
      }
      // Traps must be preserved (same ok-ness); results must agree.
      EXPECT_EQ(run.ok, baseline_ok)
          << workload.name << " at " << OptLevelName(levels[i]) << " on input '" << input
          << "': trap behaviour diverged (" << run.error << ")";
      if (run.ok && baseline_ok) {
        EXPECT_EQ(run.return_value, baseline_value)
            << workload.name << " at " << OptLevelName(levels[i]) << " on '" << input << "'";
        EXPECT_EQ(run.output, baseline_output)
            << workload.name << " at " << OptLevelName(levels[i]) << " on '" << input << "'";
      }
    }
  }
}

TEST_P(WorkloadTest, SymbolicAnalysisTerminatesAtOverify) {
  const Workload& workload = GetParam();
  Compiler compiler;
  auto compiled = compiler.Compile(workload.source, OptLevel::kOverify, workload.name);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  limits.max_paths = 60000;
  limits.max_seconds = 30;
  auto result = Analyze(compiled, "umain", 3, limits);
  EXPECT_GE(result.metrics.Get(Counter::kPathsCompleted), 1u) << workload.name;
  for (const BugReport& bug : result.bugs) {
    EXPECT_NE(bug.kind, BugKind::kEngineError) << workload.name << ": " << bug.message;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadTest, ::testing::ValuesIn(CoreutilsSuite()),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return info.param.name;
                         });

TEST(SuiteShapeTest, SuiteIsAlphabeticalAndComplete) {
  const auto& suite = CoreutilsSuite();
  EXPECT_GE(suite.size(), 55u);
  for (size_t i = 1; i < suite.size(); ++i) {
    EXPECT_LE(suite[i - 1].name, suite[i].name) << "suite not alphabetical at " << i;
  }
  EXPECT_NE(FindWorkload("wc"), nullptr);
  EXPECT_EQ(FindWorkload("not_a_workload"), nullptr);
  // Every workload is findable through the name index, and the index returns
  // the suite's own entries (no copies).
  for (const Workload& workload : suite) {
    EXPECT_EQ(FindWorkload(workload.name), &workload) << workload.name;
  }
  // The suite-scale tail: at least two workloads with >= 32 symbolic bytes
  // (the SupportSet overflow path needs symbol indices past 64, which
  // cksum_wide's 72 bytes provide).
  size_t wide = 0;
  unsigned widest = 0;
  for (const Workload& workload : suite) {
    if (workload.default_sym_bytes >= 32) {
      ++wide;
      widest = std::max(widest, workload.default_sym_bytes);
    }
  }
  EXPECT_GE(wide, 2u);
  EXPECT_GT(widest, 64u);
}

TEST(SuiteShapeTest, TwoBufferWorkloadsRunThroughBothExecutors) {
  // The 4-arg umain contract: the interpreter splits concrete input
  // first-buffer-gets-the-ceiling, so "abcabc" compares "abc" to "abc".
  const Workload* cmp = FindWorkload("cmp_bufs");
  ASSERT_NE(cmp, nullptr);
  Compiler compiler;
  auto compiled = compiler.Compile(cmp->source, OptLevel::kO2, cmp->name);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  Interpreter interp(*compiled.module);
  EXPECT_EQ(interp.Run("umain", "abcabc").return_value, 0);
  EXPECT_EQ(interp.Run("umain", "abcabd").return_value, 3);  // differs at byte 3 of 3
  EXPECT_EQ(interp.Run("umain", "abab").return_value, 0);
  EXPECT_EQ(interp.Run("umain", "aba").return_value, 2);  // "ab" vs "a": NUL mismatch

  // Symbolically: 6 bytes split 3+3, both buffers' bytes are live symbols.
  SymexLimits limits;
  limits.max_seconds = 30;
  auto result = Analyze(compiled, "umain", 6, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.metrics.Get(Counter::kPathsCompleted), 4u);
  for (const BugReport& bug : result.bugs) {
    EXPECT_NE(bug.kind, BugKind::kEngineError) << bug.message;
  }
}

TEST(TextGenTest, DeterministicAndShaped) {
  TextGenOptions options;
  options.approx_words = 100;
  std::string a = GenerateText(options);
  std::string b = GenerateText(options);
  EXPECT_EQ(a, b);
  // Word count: separators are single spaces/newlines between words.
  size_t separators = 0;
  for (char c : a) {
    if (c == ' ' || c == '\n') {
      ++separators;
    }
  }
  EXPECT_EQ(separators, 99u);
  options.seed = 7;
  EXPECT_NE(GenerateText(options), a);
}

TEST(WcSuiteTest, WcCountsCorrectly) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  Compiler compiler;
  auto compiled = compiler.Compile(wc->source, OptLevel::kO2, "wc");
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  Interpreter interp(*compiled.module);
  // "two words\nand more\n": 2 lines, 4 words, 19 chars.
  auto run = interp.Run("umain", wc->sample_input);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.return_value, 2 * 10000 + 4 * 100 + 19);
}

}  // namespace
}  // namespace overify
