// Quickstart: compile the paper's wc with -OVERIFY and symbolically verify
// it — the 60-second tour of the toolkit.
//
//   $ ./quickstart
//
// Walks through: (1) compiling a MiniC program at two optimization levels,
// (2) printing the branch-free -OVERIFY loop body (Listing 2 of the paper),
// (3) exhaustively exploring all paths, and (4) comparing the exploration
// cost between the levels.
#include <cstdio>

#include "src/driver/compiler.h"
#include "src/ir/printer.h"

using namespace overify;

namespace {

const char* kProgram = R"(
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

}  // namespace

int main() {
  std::printf("== overify quickstart ==\n\n");
  std::printf("Program: Listing 1 of the paper (word count).\n\n");

  // 1. Compile at -O0 (what the frontend emits) and at -OVERIFY.
  Compiler compiler;
  CompileResult debug_build = compiler.Compile(kProgram, OptLevel::kO0);
  CompileResult verify_build = compiler.Compile(kProgram, OptLevel::kOverify);
  if (!debug_build.ok || !verify_build.ok) {
    std::fprintf(stderr, "compile error:\n%s%s\n", debug_build.errors.c_str(),
                 verify_build.errors.c_str());
    return 1;
  }
  std::printf("compiled: %zu instructions at -O0, %zu at -OVERIFY\n\n",
              debug_build.instruction_count, verify_build.instruction_count);

  // 2. The -OVERIFY loop body is branch-free (the paper's Listing 2).
  std::printf("-OVERIFY code for umain (note the selects where Listing 1 branched):\n\n%s\n",
              PrintFunction(*verify_build.module->GetFunction("umain")).c_str());

  // 3. Exhaustively explore all paths for 6 symbolic input bytes.
  SymexLimits limits;
  limits.max_paths = 200000;
  limits.max_seconds = 30;
  SymexResult verify_result = Analyze(verify_build, "umain", 6, limits);
  std::printf("-OVERIFY exploration: %llu paths (exhausted=%s), %llu interpreted "
              "instructions, %llu solver queries, %.1f ms\n",
              static_cast<unsigned long long>(verify_result.metrics.Get(Counter::kPathsCompleted)),
              verify_result.exhausted ? "yes" : "no",
              static_cast<unsigned long long>(verify_result.metrics.Get(Counter::kInstructions)),
              static_cast<unsigned long long>(verify_result.metrics.Get(Counter::kSolverQueries)),
              verify_result.wall_seconds * 1e3);

  // 4. The same exploration against the -O0 build (capped — it explodes).
  limits.max_paths = 20000;
  SymexResult debug_result = Analyze(debug_build, "umain", 6, limits);
  std::printf("-O0 exploration:      %llu paths (exhausted=%s) before hitting the cap\n\n",
              static_cast<unsigned long long>(debug_result.metrics.Get(Counter::kPathsCompleted)),
              debug_result.exhausted ? "yes" : "no");

  std::printf("-OVERIFY explored every path of wc with %u symbolic bytes in %llu paths;\n"
              "the -O0 build of the same source exceeds %llu paths (Theta(3^n)).\n",
              6u,
              static_cast<unsigned long long>(verify_result.metrics.Get(Counter::kPathsCompleted)),
              static_cast<unsigned long long>(debug_result.metrics.Get(Counter::kPathsCompleted)));
  return 0;
}
