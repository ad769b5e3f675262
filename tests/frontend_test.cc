// Tests for the MiniC lexer, parser and code generator.
#include <gtest/gtest.h>

#include "src/driver/compiler.h"
#include "src/frontend/codegen.h"
#include "src/frontend/lexer.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/passes/global_dce.h"
#include "src/vlibc/vlibc.h"

namespace overify {
namespace {

std::unique_ptr<Module> CompileOrDie(const std::string& source) {
  DiagnosticEngine diags;
  auto m = CompileMiniC(source, "test", diags);
  EXPECT_NE(m, nullptr) << diags.ToString();
  if (m != nullptr) {
    auto errors = VerifyModule(*m);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]) << "\n" << PrintModule(*m);
  }
  return m;
}

bool CompileFails(const std::string& source, const std::string& expected_fragment = "") {
  DiagnosticEngine diags;
  auto m = CompileMiniC(source, "test", diags);
  if (m != nullptr) {
    return false;
  }
  if (!expected_fragment.empty()) {
    return diags.ToString().find(expected_fragment) != std::string::npos;
  }
  return diags.HasErrors();
}

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

TEST(CLexerTest, TokenizesOperatorsAndLiterals) {
  DiagnosticEngine diags;
  CLexer lexer("x += 0x1F; // comment\n'a' \"hi\\n\" <<= >= &&", diags);
  auto tokens = lexer.Tokenize();
  ASSERT_FALSE(diags.HasErrors());
  ASSERT_GE(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[1].kind, TokKind::kPlusAssign);
  EXPECT_EQ(tokens[2].kind, TokKind::kIntLit);
  EXPECT_EQ(tokens[2].int_value, 0x1F);
  EXPECT_EQ(tokens[3].kind, TokKind::kSemi);
  EXPECT_EQ(tokens[4].kind, TokKind::kIntLit);
  EXPECT_EQ(tokens[4].int_value, 'a');
  EXPECT_EQ(tokens[5].kind, TokKind::kStringLit);
  EXPECT_EQ(tokens[5].text, "hi\n");
  EXPECT_EQ(tokens[6].kind, TokKind::kShlAssign);
  EXPECT_EQ(tokens[7].kind, TokKind::kGe);
  EXPECT_EQ(tokens[8].kind, TokKind::kAmpAmp);
}

TEST(CLexerTest, SkipsBothCommentStyles) {
  DiagnosticEngine diags;
  CLexer lexer("a /* multi\nline */ b // eol\nc", diags);
  auto tokens = lexer.Tokenize();
  ASSERT_EQ(tokens.size(), 4u);  // a b c eof
  EXPECT_EQ(tokens[2].text, "c");
  EXPECT_EQ(tokens[2].loc.line, 3u);
}

TEST(CodegenTest, SimpleFunction) {
  auto m = CompileOrDie("int add(int a, int b) { return a + b; }");
  Function* f = m->GetFunction("add");
  ASSERT_NE(f, nullptr);
  // O0 naivety: parameters spilled to allocas.
  EXPECT_EQ(CountOpcode(*f, Opcode::kAlloca), 2u);
  EXPECT_EQ(CountOpcode(*f, Opcode::kAdd), 1u);
}

TEST(CodegenTest, ControlFlowConstructs) {
  auto m = CompileOrDie(R"(
    int classify(int x) {
      int result = 0;
      if (x > 100) { result = 3; }
      else if (x > 10) { result = 2; }
      else { result = 1; }
      while (x > 0) { x = x - 1; }
      do { result = result + 1; } while (result < 0);
      for (int i = 0; i < 4; i++) { result += i; }
      return result;
    }
  )");
  Function* f = m->GetFunction("classify");
  ASSERT_NE(f, nullptr);
  EXPECT_GE(f->NumBlocks(), 10u);
}

TEST(CodegenTest, BreakAndContinue) {
  auto m = CompileOrDie(R"(
    int f(int n) {
      int sum = 0;
      for (int i = 0; i < n; i++) {
        if (i == 3) { continue; }
        if (i == 7) { break; }
        sum += i;
      }
      return sum;
    }
  )");
  EXPECT_NE(m->GetFunction("f"), nullptr);
}

TEST(CodegenTest, ShortCircuitProducesBranches) {
  auto m = CompileOrDie(R"(
    int f(int a, int b) { return a && (b || a > 3); }
  )");
  Function* f = m->GetFunction("f");
  // Two short-circuit operators: at least two conditional branches at -O0.
  size_t cond_branches = 0;
  for (BasicBlock& bb : *f) {
    if (auto* br = DynCast<BranchInst>(bb.Terminator())) {
      cond_branches += br->IsConditional() ? 1 : 0;
    }
  }
  EXPECT_GE(cond_branches, 2u);
  EXPECT_GE(CountOpcode(*f, Opcode::kPhi), 2u);
}

TEST(CodegenTest, PointerOperations) {
  auto m = CompileOrDie(R"(
    int first_zero(unsigned char *p) {
      int n = 0;
      while (*p) { p++; n++; }
      return n;
    }
  )");
  Function* f = m->GetFunction("first_zero");
  EXPECT_GE(CountOpcode(*f, Opcode::kGep), 1u);
  EXPECT_GE(CountOpcode(*f, Opcode::kLoad), 2u);
}

TEST(CodegenTest, ArraysAndIndexing) {
  auto m = CompileOrDie(R"(
    int sum3(void) {
      int a[3] = {1, 2, 3};
      int s = 0;
      for (int i = 0; i < 3; i++) { s += a[i]; }
      return s;
    }
  )");
  Function* f = m->GetFunction("sum3");
  EXPECT_GE(CountOpcode(*f, Opcode::kGep), 4u);  // 3 init stores + loop access
}

TEST(CodegenTest, GlobalsAndStrings) {
  auto m = CompileOrDie(R"(
    int counter = 42;
    const char msg[6] = "hello";
    unsigned char table[4] = {1, 2, 4, 8};
    int get(void) { return counter; }
    char first(void) { return msg[0]; }
  )");
  GlobalVariable* counter = m->GetGlobal("counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->initializer()[0], 42);
  GlobalVariable* msg = m->GetGlobal("msg");
  ASSERT_NE(msg, nullptr);
  EXPECT_TRUE(msg->is_const());
  EXPECT_EQ(msg->initializer().size(), 6u);
  GlobalVariable* table = m->GetGlobal("table");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->initializer()[2], 4);
}

TEST(CodegenTest, StringLiteralInterning) {
  auto m = CompileOrDie(R"(
    int f(void);
    char g(void) { return *"abc"; }
    char h(void) { return *"abc"; }
    int f(void) { return 0; }
  )");
  // Same literal -> one global.
  size_t str_globals = 0;
  for (const auto& g : m->globals()) {
    if (g->name().rfind(".str", 0) == 0) {
      ++str_globals;
    }
  }
  EXPECT_EQ(str_globals, 1u);
}

TEST(CodegenTest, SignednessDrivesOperators) {
  auto m = CompileOrDie(R"(
    int sdiv(int a, int b) { return a / b; }
    unsigned udivf(unsigned a, unsigned b) { return a / b; }
    int scmp(int a, int b) { return a < b; }
    unsigned ucmp(unsigned a, unsigned b) { return a < b; }
    int sshr(int a) { return a >> 2; }
    unsigned ushr(unsigned a) { return a >> 2; }
  )");
  EXPECT_EQ(CountOpcode(*m->GetFunction("sdiv"), Opcode::kSDiv), 1u);
  EXPECT_EQ(CountOpcode(*m->GetFunction("udivf"), Opcode::kUDiv), 1u);
  EXPECT_EQ(CountOpcode(*m->GetFunction("sshr"), Opcode::kAShr), 1u);
  EXPECT_EQ(CountOpcode(*m->GetFunction("ushr"), Opcode::kLShr), 1u);

  auto pred_of = [](Function* f) {
    for (BasicBlock& bb : *f) {
      for (auto& inst : bb) {
        if (auto* cmp = DynCast<ICmpInst>(inst.get())) {
          return cmp->predicate();
        }
      }
    }
    return ICmpPredicate::kEq;
  };
  EXPECT_EQ(pred_of(m->GetFunction("scmp")), ICmpPredicate::kSLT);
  EXPECT_EQ(pred_of(m->GetFunction("ucmp")), ICmpPredicate::kULT);
}

TEST(CodegenTest, IntegerPromotionsAndCasts) {
  auto m = CompileOrDie(R"(
    int f(char c, unsigned char u) {
      int a = c + 1;        // sext to i32
      int b = u + 1;        // zext to i32
      long big = a;         // sext to i64
      return (int)big + b;  // trunc back
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_GE(CountOpcode(*f, Opcode::kSExt), 2u);
  EXPECT_GE(CountOpcode(*f, Opcode::kZExt), 1u);
  EXPECT_GE(CountOpcode(*f, Opcode::kTrunc), 1u);
}

TEST(CodegenTest, ConditionalExpression) {
  auto m = CompileOrDie("int mx(int a, int b) { return a > b ? a : b; }");
  Function* f = m->GetFunction("mx");
  EXPECT_EQ(CountOpcode(*f, Opcode::kPhi), 1u);
}

TEST(CodegenTest, IncDecSemantics) {
  auto m = CompileOrDie(R"(
    int f(void) {
      int i = 5;
      int a = i++;   // a = 5, i = 6
      int b = ++i;   // b = 7, i = 7
      int c = i--;   // c = 7
      int d = --i;   // d = 5
      return a + b + c + d;
    }
  )");
  EXPECT_NE(m->GetFunction("f"), nullptr);
}

TEST(CodegenTest, CheckBuiltinEmitsCheckInst) {
  auto m = CompileOrDie(R"(
    int f(int x) {
      __check(x != 0, "x must be nonzero");
      return 10 / x;
    }
  )");
  Function* f = m->GetFunction("f");
  EXPECT_EQ(CountOpcode(*f, Opcode::kCheck), 1u);
}

TEST(CodegenTest, SizeofIsConstant) {
  auto m = CompileOrDie(R"(
    long f(void) { return sizeof(int) + sizeof(char*) + sizeof(long); }
  )");
  EXPECT_NE(m->GetFunction("f"), nullptr);
}

TEST(CodegenTest, MultipleSourcesShareSymbols) {
  DiagnosticEngine diags;
  std::vector<MiniCSource> sources = {
      {"int helper(int x) { return x * 2; }", true},
      {"int user(int y) { return helper(y) + 1; }", false},
  };
  auto m = CompileMiniC(sources, "multi", diags);
  ASSERT_NE(m, nullptr) << diags.ToString();
  EXPECT_TRUE(VerifyModule(*m).empty());
  EXPECT_TRUE(m->GetFunction("helper")->is_libc());
  EXPECT_FALSE(m->GetFunction("user")->is_libc());
}

// ---- Libc linking: a libc source works like an archive ----

// lib_side reads a global: libc globals are always linked.
const char* kLinkLibc = R"(
  int lib_leaf(int x) { return x + 1; }
  int lib_mid(int x) { return lib_leaf(x) * 2; }
  int lib_unused(int x) { return x - 1; }
  int lib_scale = 3;
  int lib_side(int x) { return x * lib_scale; }
)";

std::unique_ptr<Module> CompileLinked(const std::string& program, DiagnosticEngine& diags) {
  std::vector<MiniCSource> sources = {{kLinkLibc, true}, {program, false}};
  return CompileMiniC(sources, "linked", diags);
}

std::vector<std::string> FunctionNames(Module& module) {
  std::vector<std::string> names;
  for (const auto& fn : module.functions()) {
    names.push_back(fn->name());
  }
  return names;
}

TEST(LibcLinkTest, MemberReachedOnlyThroughAnotherMemberIsEmitted) {
  DiagnosticEngine diags;
  auto m = CompileLinked("int umain(int x) { return lib_mid(x); }", diags);
  ASSERT_NE(m, nullptr) << diags.ToString();
  EXPECT_TRUE(VerifyModule(*m).empty());
  ASSERT_NE(m->GetFunction("lib_leaf"), nullptr);
  EXPECT_FALSE(m->GetFunction("lib_leaf")->IsDeclaration());
  EXPECT_TRUE(m->GetFunction("lib_leaf")->is_libc());
}

TEST(LibcLinkTest, MemberReachedFromAnUncalledProgramFunctionIsEmitted) {
  DiagnosticEngine diags;
  auto m = CompileLinked(R"(
    int never_called(int x) { return lib_side(x); }
    int umain(int x) { return x; }
  )",
                         diags);
  ASSERT_NE(m, nullptr) << diags.ToString();
  ASSERT_NE(m->GetFunction("lib_side"), nullptr);
  // Dropping what the entry does not reach is GlobalDCE's job, not the
  // linker's: it removes the program function and the member only it reached.
  GlobalDcePass dce;
  EXPECT_TRUE(dce.Run(*m));
  EXPECT_EQ(FunctionNames(*m), std::vector<std::string>{"umain"});
}

TEST(LibcLinkTest, UnreachedMemberIsAbsentAtO0) {
  CompileResult compiled = Compiler().Compile(R"(
    int umain(unsigned char *in, int n) { return isalnum(in[0]); }
  )",
                                              OptLevel::kO0);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  Module& m = *compiled.module;
  EXPECT_EQ(FunctionNames(m), (std::vector<std::string>{"isdigit", "isalpha", "isalnum", "umain"}));
  EXPECT_EQ(m.GetFunction("atoi"), nullptr);
}

TEST(LibcLinkTest, LibcOnlyCompileKeepsEveryFunction) {
  DiagnosticEngine diags;
  auto m = CompileMiniC({MiniCSource{kLinkLibc, true}}, "libc", diags);
  ASSERT_NE(m, nullptr) << diags.ToString();
  EXPECT_EQ(FunctionNames(*m),
            (std::vector<std::string>{"lib_leaf", "lib_mid", "lib_unused", "lib_side"}));

  auto verify_libc = CompileMiniC({MiniCSource{VerifyLibcSource(), true}}, "libc", diags);
  ASSERT_NE(verify_libc, nullptr) << diags.ToString();
  EXPECT_NE(verify_libc->GetFunction("atoi"), nullptr);
  EXPECT_NE(verify_libc->GetFunction("isspace"), nullptr);
}

TEST(LibcLinkTest, EmittedMembersKeepLibcOrderAheadOfTheProgram) {
  DiagnosticEngine diags;
  auto m = CompileLinked(R"(
    int helper(int x) { return lib_side(x); }
    int umain(int x) { return lib_mid(x) + helper(x); }
  )",
                         diags);
  ASSERT_NE(m, nullptr) << diags.ToString();
  EXPECT_EQ(FunctionNames(*m), (std::vector<std::string>{"lib_leaf", "lib_mid", "lib_side",
                                                         "helper", "umain"}));
}

TEST(LibcLinkTest, CallToANameNoSourceDefinesStillFails) {
  DiagnosticEngine diags;
  EXPECT_EQ(CompileLinked("int umain(int x) { return nowhere(x); }", diags), nullptr);
  EXPECT_NE(diags.ToString().find("call to undeclared function 'nowhere'"), std::string::npos)
      << diags.ToString();
}

TEST(LibcLinkTest, ProgramDeclarationMeetsTheMemberItNames) {
  // The program's own function names link too, so a clash with an uncalled
  // member is still diagnosed.
  DiagnosticEngine diags;
  EXPECT_EQ(CompileLinked(R"(
    char lib_unused(int x);
    int umain(int x) { return x; }
  )",
                          diags),
            nullptr);
  EXPECT_NE(diags.ToString().find("conflicting declaration of 'lib_unused'"), std::string::npos)
      << diags.ToString();
}

TEST(CodegenTest, PrototypeThenDefinition) {
  auto m = CompileOrDie(R"(
    int fib(int n);
    int caller(int x) { return fib(x); }
    int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
  )");
  EXPECT_FALSE(m->GetFunction("fib")->IsDeclaration());
}

TEST(CodegenTest, PutcharAutoDeclared) {
  auto m = CompileOrDie(R"(
    void emit(int c) { putchar(c); }
  )");
  Function* putchar_fn = m->GetFunction("putchar");
  ASSERT_NE(putchar_fn, nullptr);
  EXPECT_TRUE(putchar_fn->IsDeclaration());
}

TEST(CodegenErrorTest, UndeclaredIdentifier) {
  EXPECT_TRUE(CompileFails("int f(void) { return nope; }", "undeclared identifier"));
}

TEST(CodegenErrorTest, UndeclaredFunction) {
  EXPECT_TRUE(CompileFails("int f(void) { return g(); }", "undeclared function"));
}

TEST(CodegenErrorTest, WrongArgumentCount) {
  EXPECT_TRUE(CompileFails(R"(
    int g(int a, int b) { return a + b; }
    int f(void) { return g(1); }
  )",
                           "wrong number of arguments"));
}

TEST(CodegenErrorTest, Redefinition) {
  EXPECT_TRUE(CompileFails(R"(
    int f(void) { return 1; }
    int f(void) { return 2; }
  )",
                           "redefinition"));
}

TEST(CodegenErrorTest, ConflictingDeclaration) {
  EXPECT_TRUE(CompileFails(R"(
    int f(int a);
    char f(int a) { return 0; }
  )",
                           "conflicting declaration"));
}

TEST(CodegenErrorTest, BreakOutsideLoop) {
  EXPECT_TRUE(CompileFails("int f(void) { break; return 0; }", "outside a loop"));
}

TEST(CodegenErrorTest, AssignToNonLvalue) {
  EXPECT_TRUE(CompileFails("int f(int a) { (a + 1) = 2; return a; }", "not assignable"));
}

TEST(CodegenErrorTest, VoidReturnWithValue) {
  EXPECT_TRUE(CompileFails("void f(void) { return 3; }", "void function"));
}

TEST(CodegenErrorTest, PointerDifferenceRejected) {
  EXPECT_TRUE(CompileFails(R"(
    long f(char* a, char* b) { return a - b; }
  )",
                           "pointer difference"));
}

TEST(CodegenTest, WcFromThePaperCompiles) {
  // Listing 1, verbatim modulo isspace/isalpha being provided here.
  auto m = CompileOrDie(R"(
    int isspace(int c) {
      return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
    }
    int isalpha(int c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    }
    int wc(unsigned char *str, int any) {
      int res = 0;
      int new_word = 1;
      for (unsigned char *p = str; *p; ++p) {
        if (isspace(*p) || (any && !isalpha(*p))) {
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
  )");
  Function* wc = m->GetFunction("wc");
  ASSERT_NE(wc, nullptr);
  EXPECT_GE(wc->NumBlocks(), 8u);
}

}  // namespace
}  // namespace overify
