// Tests that both C library flavors compile and compute the same functions,
// and that the verify flavor's precondition checks fire on misuse.
//
// The equivalence sweep is property-style: every ctype predicate is compared
// against the host <cctype> on all 256 byte values, for both flavors, at
// -O0 and at -OVERIFY (so the optimization pipeline is part of what is
// being checked).
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/testing/diff_harness.h"

namespace overify {
namespace {

// Calls a one-int-arg libc function through a trampoline program.
struct LibcFixture {
  CompileResult compiled;

  LibcFixture(const std::string& fn, bool verify_flavor, OptLevel level) {
    std::string program =
        "int umain(unsigned char *in, int n) { return " + fn + "((int)in[0]); }";
    PipelineOptions options = PipelineOptions::For(level);
    options.use_verify_libc = verify_flavor;
    Compiler compiler;
    compiled = compiler.CompileWithOptions(program, options);
    EXPECT_TRUE(compiled.ok) << compiled.errors;
  }

  int Call(uint8_t c) {
    Interpreter interp(*compiled.module);
    auto result = interp.Run(compiled.module->GetFunction("umain"), {c});
    EXPECT_TRUE(result.ok) << result.error;
    return static_cast<int>(result.return_value);
  }
};

struct CtypeCase {
  const char* name;
  int (*reference)(int);
};

// The host functions are locale-dependent in theory; the C locale matches.
const CtypeCase kCtypeCases[] = {
    {"isspace", [](int c) { return std::isspace(c) != 0 ? 1 : 0; }},
    {"isdigit", [](int c) { return std::isdigit(c) != 0 ? 1 : 0; }},
    {"isalpha", [](int c) { return std::isalpha(c) != 0 ? 1 : 0; }},
    {"isalnum", [](int c) { return std::isalnum(c) != 0 ? 1 : 0; }},
    {"isupper", [](int c) { return std::isupper(c) != 0 ? 1 : 0; }},
    {"islower", [](int c) { return std::islower(c) != 0 ? 1 : 0; }},
    {"isprint", [](int c) { return std::isprint(c) != 0 ? 1 : 0; }},
    {"ispunct", [](int c) { return std::ispunct(c) != 0 ? 1 : 0; }},
    {"isxdigit", [](int c) { return std::isxdigit(c) != 0 ? 1 : 0; }},
    {"toupper", [](int c) { return std::toupper(c); }},
    {"tolower", [](int c) { return std::tolower(c); }},
};

class CtypeEquivalenceTest : public ::testing::TestWithParam<CtypeCase> {};

TEST_P(CtypeEquivalenceTest, BothFlavorsMatchHostOnAllBytes) {
  const CtypeCase& test_case = GetParam();
  LibcFixture standard(test_case.name, /*verify_flavor=*/false, OptLevel::kO0);
  LibcFixture verify(test_case.name, /*verify_flavor=*/true, OptLevel::kO0);
  LibcFixture verify_opt(test_case.name, /*verify_flavor=*/true, OptLevel::kOverify);
  for (int c = 0; c < 256; ++c) {
    int expected = test_case.reference(c);
    bool is_predicate = test_case.name[0] == 'i';
    auto norm = [&](int v) { return is_predicate ? (v != 0 ? 1 : 0) : v; };
    EXPECT_EQ(norm(standard.Call(static_cast<uint8_t>(c))), norm(expected))
        << test_case.name << "(" << c << ") standard flavor";
    EXPECT_EQ(norm(verify.Call(static_cast<uint8_t>(c))), norm(expected))
        << test_case.name << "(" << c << ") verify flavor";
    EXPECT_EQ(norm(verify_opt.Call(static_cast<uint8_t>(c))), norm(expected))
        << test_case.name << "(" << c << ") verify flavor at -OVERIFY";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCtype, CtypeEquivalenceTest, ::testing::ValuesIn(kCtypeCases),
                         [](const ::testing::TestParamInfo<CtypeCase>& info) {
                           return info.param.name;
                         });

// String function equivalence across flavors via small driver programs.
struct StringCase {
  const char* name;
  const char* program;  // uses the input buffer; returns an int digest
  const char* input;
  int expected;
};

const StringCase kStringCases[] = {
    {"strlen_basic", "int umain(unsigned char *in, int n) { return (int)strlen((char*)in); }",
     "hello", 5},
    {"strlen_empty", "int umain(unsigned char *in, int n) { return (int)strlen((char*)in); }",
     "", 0},
    {"strcmp_equal",
     "int umain(unsigned char *in, int n) { return strcmp((char*)in, \"abc\"); }", "abc", 0},
    {"strcmp_less",
     "int umain(unsigned char *in, int n) { return strcmp((char*)in, \"abd\") < 0; }", "abc",
     1},
    {"strncmp_prefix",
     "int umain(unsigned char *in, int n) { return strncmp((char*)in, \"abX\", 2); }", "abc",
     0},
    {"strchr_found",
     R"(int umain(unsigned char *in, int n) {
          char *p = strchr((char*)in, 'l');
          return p ? (int)(*p) : -1;
        })",
     "hello", 'l'},
    {"strchr_missing",
     R"(int umain(unsigned char *in, int n) {
          char *p = strchr((char*)in, 'z');
          return p ? 1 : 0;
        })",
     "hello", 0},
    {"strrchr_last",
     R"(int umain(unsigned char *in, int n) {
          char buf[16];
          strcpy(buf, (char*)in);
          char *a = strchr(buf, 'l');
          char *b = strrchr(buf, 'l');
          return a != b;
        })",
     "hello", 1},
    {"strcpy_strcat",
     R"(int umain(unsigned char *in, int n) {
          char buf[32];
          strcpy(buf, (char*)in);
          strcat(buf, "!");
          return (int)strlen(buf);
        })",
     "hey", 4},
    {"strncpy_pads",
     R"(int umain(unsigned char *in, int n) {
          char buf[8];
          strncpy(buf, (char*)in, 8);
          return buf[5] == 0 && buf[7] == 0;
        })",
     "ab", 1},
    {"memcpy_memcmp",
     R"(int umain(unsigned char *in, int n) {
          unsigned char buf[8];
          memcpy(buf, in, (long)n);
          return memcmp(buf, in, (long)n);
        })",
     "xyzw", 0},
    {"memset_fill",
     R"(int umain(unsigned char *in, int n) {
          unsigned char buf[4];
          memset(buf, 7, 4);
          return buf[0] + buf[3];
        })",
     "", 14},
    {"atoi_basic", "int umain(unsigned char *in, int n) { return atoi((char*)in); }", "123",
     123},
    {"atoi_negative", "int umain(unsigned char *in, int n) { return atoi((char*)in); }",
     "  -45x", -45},
    {"abs_negative", "int umain(unsigned char *in, int n) { return abs(-7) + abs(3); }", "",
     10},
};

class StringEquivalenceTest : public ::testing::TestWithParam<StringCase> {};

TEST_P(StringEquivalenceTest, BothFlavorsAgree) {
  const StringCase& test_case = GetParam();
  for (bool verify_flavor : {false, true}) {
    for (OptLevel level : {OptLevel::kO0, OptLevel::kOverify}) {
      PipelineOptions options = PipelineOptions::For(level);
      options.use_verify_libc = verify_flavor;
      Compiler compiler;
      auto compiled = compiler.CompileWithOptions(test_case.program, options);
      ASSERT_TRUE(compiled.ok) << compiled.errors;
      Interpreter interp(*compiled.module);
      auto result = interp.Run("umain", test_case.input);
      ASSERT_TRUE(result.ok) << test_case.name << ": " << result.error;
      EXPECT_EQ(result.return_value, test_case.expected)
          << test_case.name << " flavor=" << verify_flavor << " level=" << OptLevelName(level);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllString, StringEquivalenceTest, ::testing::ValuesIn(kStringCases),
                         [](const ::testing::TestParamInfo<StringCase>& info) {
                           return info.param.name;
                         });

// ---- Symbolic-input property tests.
//
// The workload kernels lean on these helpers with *symbolic* arguments
// (comm_bufs passes a symbolic byte to strchr, seq_range parses symbolic
// digits with atoi, every filter runs tolower/toupper over symbolic bytes),
// so interpreting them on concrete bytes is not enough: the symbolic engine
// must explore them without false bugs, and both library flavors must
// produce the same differential signature. The differential harness is the
// oracle: each trampoline runs the full configuration lattice, which pits
// the standard flavor (-O0/-O3) against the verify flavor (-OVERIFY).

struct SymbolicHelperCase {
  const char* name;
  const char* program;
  unsigned sym_bytes;
};

const SymbolicHelperCase kSymbolicHelperCases[] = {
    {"strlen", "int umain(unsigned char *in, int n) { return (int)strlen((char*)in); }", 4},
    {"strcmp_sym",
     "int umain(unsigned char *in, int n) { return strcmp((char*)in, \"ab\"); }", 3},
    {"strncmp_sym",
     "int umain(unsigned char *in, int n) { return strncmp((char*)in, \"ab\", 2); }", 3},
    {"strchr_sym_char",  // symbolic needle, as comm_bufs uses it
     R"(int umain(unsigned char *in, int n) {
          char *p = strchr((char*)(in + 1), (int)in[0]);
          return p ? 1 : 0;
        })",
     4},
    {"strrchr_sym",
     R"(int umain(unsigned char *in, int n) {
          char *p = strrchr((char*)in, '/');
          return p ? (int)(unsigned char)p[1] : -1;
        })",
     4},
    {"atoi_sym", "int umain(unsigned char *in, int n) { return atoi((char*)in); }", 3},
    {"tolower_sym",
     "int umain(unsigned char *in, int n) { return tolower(in[0]) + toupper(in[1]); }", 2},
    {"isalnum_sym",
     R"(int umain(unsigned char *in, int n) {
          int c = 0;
          for (long i = 0; in[i]; i++) { if (isalnum(in[i])) { c++; } }
          return c;
        })",
     3},
};

class SymbolicHelperTest : public ::testing::TestWithParam<SymbolicHelperCase> {};

TEST_P(SymbolicHelperTest, FlavorsAgreeAcrossTheLattice) {
  const SymbolicHelperCase& test_case = GetParam();
  difftest::DiffOptions options;
  options.limits.max_seconds = 60;
  difftest::DiffReport report = difftest::RunDifferential(
      test_case.name, test_case.program, test_case.sym_bytes, options);
  EXPECT_TRUE(report.ok) << report.diff;
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.signature.exhausted) << cell.cell.Name();
    EXPECT_TRUE(cell.signature.bugs.empty())
        << cell.cell.Name() << ": " << cell.signature.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllHelpers, SymbolicHelperTest,
                         ::testing::ValuesIn(kSymbolicHelperCases),
                         [](const ::testing::TestParamInfo<SymbolicHelperCase>& info) {
                           return std::string(info.param.name);
                         });

// The verify flavor's branch-free ctype predicates are the reason -OVERIFY
// explores fewer paths (Table 1's O(3^n) at -O0 versus linear at -OVERIFY):
// a predicate call on one symbolic byte must not multiply paths at all.
TEST(SymbolicCtypeTest, VerifyFlavorPredicatesAreForkFreeAtOverify) {
  for (const char* fn : {"isspace", "isdigit", "isalpha", "isalnum", "isprint"}) {
    std::string program =
        "int umain(unsigned char *in, int n) { return " + std::string(fn) + "((int)in[0]); }";
    Compiler compiler;
    auto compiled = compiler.Compile(program, OptLevel::kOverify);
    ASSERT_TRUE(compiled.ok) << fn << ": " << compiled.errors;
    SymexLimits limits;
    limits.max_seconds = 30;
    auto result = Analyze(compiled, "umain", 1, limits);
    EXPECT_TRUE(result.exhausted) << fn;
    EXPECT_EQ(result.metrics.Get(Counter::kForks), 0u) << fn << ": verify-flavor predicate forked";
    EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), 1u) << fn;
    EXPECT_TRUE(result.bugs.empty()) << fn;
  }
}

TEST(VlibcCheckTest, VerifyFlavorCatchesNullMisuse) {
  const char* program = R"(
    int umain(unsigned char *in, int n) {
      char *p = 0;
      if (in[0] == 'n') { return (int)strlen(p); }
      return 0;
    }
  )";
  PipelineOptions options = PipelineOptions::For(OptLevel::kOverify);
  Compiler compiler;
  auto compiled = compiler.CompileWithOptions(program, options);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  SymexLimits limits;
  limits.max_seconds = 30;
  auto result = Analyze(compiled, "umain", 1, limits);
  // The verify libc reports the failed precondition check (root cause),
  // not a raw null dereference deep inside the loop.
  EXPECT_TRUE(result.FoundBug(BugKind::kCheckFailed));
}

TEST(VlibcCheckTest, StandardFlavorStillTrapsViaEngine) {
  const char* program = R"(
    int umain(unsigned char *in, int n) {
      char *p = 0;
      if (in[0] == 'n') { return (int)strlen(p); }
      return 0;
    }
  )";
  Compiler compiler;
  auto compiled = compiler.Compile(program, OptLevel::kO0);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  SymexLimits limits;
  limits.max_seconds = 30;
  auto result = Analyze(compiled, "umain", 1, limits);
  EXPECT_TRUE(result.FoundBug(BugKind::kNullDeref));
}

}  // namespace
}  // namespace overify
