// End-to-end integration tests: the paper's wc example through all four
// build configurations, semantic equivalence across levels, and the
// bug-preservation property (§4: "all bugs discovered by KLEE with -O0 and
// -O3 are also found with -OSYMBEX").
#include <gtest/gtest.h>

#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/ir/verifier.h"
#include "src/support/rng.h"

namespace overify {
namespace {

const char* kWcProgram = R"(
int wc(unsigned char *str, int any) {
  int res = 0;
  int new_word = 1;
  for (unsigned char *p = str; *p; ++p) {
    if (isspace((int)*p) || (any && !isalpha((int)*p))) {
      new_word = 1;
    } else {
      if (new_word) {
        ++res;
        new_word = 0;
      }
    }
  }
  return res;
}
int umain(unsigned char *in, int n) { return wc(in, 1); }
)";

const std::vector<OptLevel>& AllLevels() {
  static const std::vector<OptLevel>* kLevels = new std::vector<OptLevel>{
      OptLevel::kO0, OptLevel::kO1, OptLevel::kO2, OptLevel::kO3, OptLevel::kOverify};
  return *kLevels;
}

CompileResult CompileLevel(const std::string& source, OptLevel level) {
  Compiler compiler;
  CompileResult result = compiler.Compile(source, level);
  EXPECT_TRUE(result.ok) << result.errors;
  if (result.ok) {
    auto errors = VerifyModule(*result.module);
    EXPECT_TRUE(errors.empty()) << OptLevelName(level) << ": " << errors[0];
  }
  return result;
}

SymexResult AnalyzeLevel(CompileResult& compiled, unsigned bytes,
                         uint64_t max_paths = 5000000) {
  SymexLimits limits;
  limits.max_paths = max_paths;
  limits.max_seconds = 120;
  return Analyze(compiled, "umain", bytes, limits);
}

TEST(WcTable1Test, PathCountsFollowThePaper) {
  // 4 symbolic bytes keeps -O0 exhaustive within seconds.
  const unsigned kBytes = 4;

  auto o0 = CompileLevel(kWcProgram, OptLevel::kO0);
  auto r0 = AnalyzeLevel(o0, kBytes);
  ASSERT_TRUE(r0.exhausted);

  auto o2 = CompileLevel(kWcProgram, OptLevel::kO2);
  auto r2 = AnalyzeLevel(o2, kBytes);
  ASSERT_TRUE(r2.exhausted);

  auto o3 = CompileLevel(kWcProgram, OptLevel::kO3);
  auto r3 = AnalyzeLevel(o3, kBytes);
  ASSERT_TRUE(r3.exhausted);

  auto ov = CompileLevel(kWcProgram, OptLevel::kOverify);
  auto rv = AnalyzeLevel(ov, kBytes);
  ASSERT_TRUE(rv.exhausted);

  // Paper Table 1: -O2 reduces instructions but "the number of explored
  // paths remains the same as for -O0".
  EXPECT_EQ(r0.metrics.Get(Counter::kPathsCompleted), r2.metrics.Get(Counter::kPathsCompleted));
  EXPECT_LT(o2.instruction_count, o0.instruction_count);

  // -O3 fundamentally restructures: far fewer paths.
  EXPECT_LT(r3.metrics.Get(Counter::kPathsCompleted) * 10,
            r2.metrics.Get(Counter::kPathsCompleted));

  // -OVERIFY leaves only the loop-exit branch: exactly n+1 paths.
  EXPECT_EQ(rv.metrics.Get(Counter::kPathsCompleted), kBytes + 1);

  // And the work shrinks monotonically along the headline ordering.
  EXPECT_GT(r0.metrics.Get(Counter::kInstructions), r2.metrics.Get(Counter::kInstructions));
  EXPECT_GT(r2.metrics.Get(Counter::kInstructions), r3.metrics.Get(Counter::kInstructions));
  EXPECT_GT(r3.metrics.Get(Counter::kInstructions), rv.metrics.Get(Counter::kInstructions));

  // No level may invent a bug in a bug-free program.
  EXPECT_TRUE(r0.bugs.empty());
  EXPECT_TRUE(r2.bugs.empty());
  EXPECT_TRUE(r3.bugs.empty());
  EXPECT_TRUE(rv.bugs.empty());
}

TEST(WcTable1Test, RunCostsShowTheExecutionVerificationConflict) {
  std::string text = "the quick brown fox jumps over the lazy dog 0123 !";
  uint64_t cost_o3 = 0;
  uint64_t cost_overify = 0;
  uint64_t cost_o0 = 0;
  int64_t expected = -1;
  for (OptLevel level : AllLevels()) {
    auto compiled = CompileLevel(kWcProgram, level);
    Interpreter interp(*compiled.module);
    auto run = interp.Run("umain", text);
    ASSERT_TRUE(run.ok) << OptLevelName(level) << ": " << run.error;
    if (expected < 0) {
      expected = run.return_value;
    }
    EXPECT_EQ(run.return_value, expected) << OptLevelName(level);
    if (level == OptLevel::kO0) {
      cost_o0 = run.cost_units;
    }
    if (level == OptLevel::kO3) {
      cost_o3 = run.cost_units;
    }
    if (level == OptLevel::kOverify) {
      cost_overify = run.cost_units;
    }
  }
  // Paper: the branch-free -OVERIFY build runs slower than -O3 on a CPU
  // (2.5x there; the exact factor depends on the cost model), while -O0 is
  // slowest by far.
  EXPECT_GT(cost_overify, cost_o3);
  EXPECT_GT(cost_o0, cost_overify);
}

TEST(WcTable1Test, SemanticEquivalenceAcrossLevelsOnRandomInputs) {
  std::vector<CompileResult> compiled;
  for (OptLevel level : AllLevels()) {
    compiled.push_back(CompileLevel(kWcProgram, level));
  }
  Rng rng(2013);
  for (int trial = 0; trial < 40; ++trial) {
    size_t len = rng.NextBelow(24);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      // Mixed printable bytes with plenty of separators.
      const char alphabet[] = "ab z \t.19-";
      input += alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
    }
    int64_t expected = 0;
    for (size_t i = 0; i < compiled.size(); ++i) {
      Interpreter interp(*compiled[i].module);
      auto run = interp.Run("umain", input);
      ASSERT_TRUE(run.ok) << OptLevelName(AllLevels()[i]) << " on '" << input << "'";
      if (i == 0) {
        expected = run.return_value;
      } else {
        EXPECT_EQ(run.return_value, expected)
            << OptLevelName(AllLevels()[i]) << " diverges on '" << input << "'";
      }
    }
  }
}

// ---- Bug preservation --------------------------------------------------

struct BuggyProgram {
  const char* name;
  const char* source;
  BugKind expected;
  unsigned bytes;
};

const BuggyProgram kBuggyPrograms[] = {
    {"div_by_zero",
     R"(
       int umain(unsigned char *in, int n) {
         int d = in[0] - 'k';
         return 1000 / d;
       }
     )",
     BugKind::kDivByZero, 2},
    {"oob_index",
     R"(
       int umain(unsigned char *in, int n) {
         int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
         int i = in[0] & 15;
         return table[i];
       }
     )",
     BugKind::kOutOfBounds, 2},
    {"failed_check",
     R"(
       int umain(unsigned char *in, int n) {
         int sum = 0;
         for (int i = 0; i < n; i++) { sum += in[i]; }
         __check(sum != 194, "sum collision");
         return sum;
       }
     )",
     BugKind::kCheckFailed, 2},
    {"null_deref",
     R"(
       int umain(unsigned char *in, int n) {
         unsigned char *p = 0;
         if (in[0] != 'S') { p = in; }
         return *p;
       }
     )",
     BugKind::kNullDeref, 2},
    {"libc_misuse",
     R"(
       int umain(unsigned char *in, int n) {
         char buf[4];
         /* overflows buf when the input is longer than 3 chars */
         strcpy(buf, (char*)in);
         return buf[0];
       }
     )",
     BugKind::kOutOfBounds, 6},
};

class BugPreservationTest : public ::testing::TestWithParam<BuggyProgram> {};

TEST_P(BugPreservationTest, BugFoundAtO0IsFoundAtEveryLevel) {
  const BuggyProgram& program = GetParam();
  auto baseline = CompileLevel(program.source, OptLevel::kO0);
  auto baseline_result = AnalyzeLevel(baseline, program.bytes);
  ASSERT_TRUE(baseline_result.FoundBug(program.expected))
      << program.name << ": bug not found at -O0";

  for (OptLevel level : AllLevels()) {
    auto compiled = CompileLevel(program.source, level);
    auto result = AnalyzeLevel(compiled, program.bytes);
    EXPECT_TRUE(result.FoundBug(program.expected))
        << program.name << ": bug lost at " << OptLevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuggyPrograms, BugPreservationTest,
                         ::testing::ValuesIn(kBuggyPrograms),
                         [](const ::testing::TestParamInfo<BuggyProgram>& info) {
                           return info.param.name;
                         });

TEST(BugReproTest, ReportedInputsActuallyTriggerTheBug) {
  // Reproducing inputs from the engine must make the concrete interpreter
  // trap as well (end-to-end witness validation).
  const char* source = kBuggyPrograms[0].source;  // div_by_zero
  auto compiled = CompileLevel(source, OptLevel::kOverify);
  auto result = AnalyzeLevel(compiled, 2);
  ASSERT_FALSE(result.bugs.empty());
  for (const BugReport& bug : result.bugs) {
    ASSERT_FALSE(bug.example_input.empty());
    Interpreter interp(*compiled.module);
    auto run = interp.Run(compiled.module->GetFunction("umain"), bug.example_input);
    EXPECT_FALSE(run.ok) << "witness did not reproduce for " << bug.message;
  }
}

TEST(AnnotationTest, AnnotationsDecideBranchesWithoutSolver) {
  // (x & 7) < 10 is always true but survives instcombine (no range logic
  // there); the annotation pass proves it and the engine skips the solver.
  const char* source = R"(
    int umain(unsigned char *in, int n) {
      int x = in[0];
      int masked = x & 7;
      if (masked < 10) { return 1; }
      return 0;
    }
  )";
  auto compiled = CompileLevel(source, OptLevel::kOverify);
  ASSERT_NE(compiled.annotations, nullptr);
  auto result = AnalyzeLevel(compiled, 1);
  EXPECT_TRUE(result.exhausted);
  // Either the branch was folded outright (paths == 1) or annotations
  // short-circuited it; in no case may both arms survive.
  EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), 1u);
}

TEST(PipelineStatsTest, OverifyPerformsMoreTransformationsThanO3) {
  // Table 3's qualitative claim: -OSYMBEX inlines/unswitches/converts far
  // more than -O3 on the same code.
  const char* source = R"(
    int process(unsigned char *s, int mode) {
      int count = 0;
      for (long i = 0; s[i]; i++) {
        if (mode && isalpha((int)s[i])) { count++; }
        else if (isdigit((int)s[i])) { count += 2; }
      }
      return count;
    }
    int umain(unsigned char *in, int n) {
      return process(in, 1) + process(in, 0);
    }
  )";
  auto o3 = CompileLevel(source, OptLevel::kO3);
  auto ov = CompileLevel(source, OptLevel::kOverify);
  // -OVERIFY must exercise its signature transformations. (Raw counts are
  // not comparable against -O3 here because the two levels link different
  // libc flavors; the Table 3 benchmark reports the full-suite numbers.)
  EXPECT_GT(ov.metrics.Get(Counter::kIfConvertBranchesConverted), 0u);
  EXPECT_GT(ov.metrics.Get(Counter::kInlineFunctionsInlined), 0u);
  EXPECT_GT(ov.metrics.Get(Counter::kUnswitchLoopsUnswitched), 0u);

  // The outcome that matters: -OVERIFY's build is strictly cheaper to
  // analyze than -O3's.
  auto o3_result = AnalyzeLevel(o3, 3);
  auto ov_result = AnalyzeLevel(ov, 3);
  ASSERT_TRUE(o3_result.exhausted);
  ASSERT_TRUE(ov_result.exhausted);
  EXPECT_LE(ov_result.metrics.Get(Counter::kPathsCompleted),
            o3_result.metrics.Get(Counter::kPathsCompleted));
  EXPECT_LT(ov_result.metrics.Get(Counter::kInstructions),
            o3_result.metrics.Get(Counter::kInstructions));
}

TEST(CompileErrorsTest, DriverSurfacesFrontendErrors) {
  Compiler compiler;
  auto result = compiler.Compile("int umain(unsigned char *in, int n) { return oops; }",
                                 OptLevel::kOverify);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.errors.find("undeclared"), std::string::npos);
}

// ---- Malformed driver input degrades to structured errors, never aborts
// (docs/robustness.md).

TEST(DriverErrorTest, AnalyzingFailedCompilationReturnsError) {
  Compiler compiler;
  CompileResult bad = compiler.Compile("int umain(unsigned char *in, int n) { return oops; }",
                                       OptLevel::kOverify);
  ASSERT_FALSE(bad.ok);
  SymexLimits limits;
  SymexResult result = Analyze(bad, "umain", 4, limits);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("failed compilation"), std::string::npos) << result.error;
  // The compile diagnostics ride along so callers can show the real cause.
  EXPECT_NE(result.error.find("undeclared"), std::string::npos) << result.error;
}

TEST(DriverErrorTest, MissingEntryFunctionReturnsError) {
  CompileResult compiled = CompileLevel(kWcProgram, OptLevel::kOverify);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  SymexResult result = Analyze(compiled, "no_such_entry", 4, limits);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no_such_entry"), std::string::npos) << result.error;
}

TEST(DriverErrorTest, ZeroWidthSymbolicBufferReturnsError) {
  CompileResult compiled = CompileLevel(kWcProgram, OptLevel::kOverify);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  SymexResult result = Analyze(compiled, "umain", 0, limits);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("zero-width"), std::string::npos) << result.error;
}

TEST(DriverErrorTest, WrongArityEntryReturnsError) {
  CompileResult compiled = CompileLevel(R"(
    int umain(unsigned char *in, int n, int mode) {
      return (int)in[0] + n + mode;
    }
  )", OptLevel::kOverify);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  SymexResult result = Analyze(compiled, "umain", 4, limits);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("takes 3 arguments"), std::string::npos) << result.error;
}

TEST(DriverErrorTest, FourArgEntryNeedsRoomForTheSizeSplit) {
  CompileResult compiled = CompileLevel(R"(
    int umain(unsigned char *a, int n, unsigned char *b, int m) {
      return (int)a[0] + (int)b[0];
    }
  )", OptLevel::kOverify);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  SymexResult result = Analyze(compiled, "umain", 1, limits);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  // Two bytes is the minimum: one per buffer.
  SymexResult ok = Analyze(compiled, "umain", 2, limits);
  EXPECT_TRUE(ok.ok) << ok.error;
}

}  // namespace
}  // namespace overify
