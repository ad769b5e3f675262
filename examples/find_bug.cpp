// Bug hunting: run the verification build of a small "config parser" and let
// the engine produce concrete crashing inputs.
//
//   $ ./find_bug
//
// The program contains two planted bugs (a fixed-size buffer overflow via
// strcpy and a division by a parsed value that can be zero). Both are found
// with reproducing inputs, and the verify-flavor libc reports the strcpy
// misuse at its precondition — "closer to the root cause" (§3 of the paper)
// — rather than as a raw memory fault deep inside a copy loop.
#include <cstdio>

#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"

using namespace overify;

namespace {

// Parses "<name>=<digit>" and computes 100/<digit>; both steps are buggy.
const char* kParser = R"(
int parse_and_divide(unsigned char *text) {
  char name[4];
  long eq = 0;
  while (text[eq] && text[eq] != '=') { eq++; }
  if (!text[eq]) { return -1; }

  /* BUG 1: name can be longer than 3 characters. */
  long i = 0;
  while (i < eq) { name[i] = (char)text[i]; i++; }
  name[i] = 0;

  int value = atoi((char*)text + eq + 1);
  /* BUG 2: value may be zero. */
  return 100 / value;
}
int umain(unsigned char *in, int n) { return parse_and_divide(in); }
)";

}  // namespace

int main() {
  std::printf("== find_bug ==\n\n");
  Compiler compiler;
  CompileResult compiled = compiler.Compile(kParser, OptLevel::kOverify);
  if (!compiled.ok) {
    std::fprintf(stderr, "compile error:\n%s\n", compiled.errors.c_str());
    return 1;
  }

  SymexLimits limits;
  limits.max_paths = 100000;
  limits.max_seconds = 30;
  SymexResult result = Analyze(compiled, "umain", 6, limits);

  std::printf("explored %llu paths (%s); %zu distinct bugs found:\n\n",
              static_cast<unsigned long long>(result.metrics.Get(Counter::kPathsCompleted)),
              result.exhausted ? "exhausted" : "budget hit", result.bugs.size());

  for (const BugReport& bug : result.bugs) {
    std::printf("  [%s] %s\n", BugKindName(bug.kind), bug.message.c_str());
    std::printf("    reproducing input: \"");
    for (uint8_t byte : bug.example_input) {
      if (byte >= 32 && byte < 127) {
        std::printf("%c", byte);
      } else {
        std::printf("\\x%02x", byte);
      }
    }
    std::printf("\"\n");

    // Validate the witness end-to-end on the concrete interpreter.
    Interpreter interp(*compiled.module);
    InterpResult run = interp.Run(compiled.module->GetFunction("umain"), bug.example_input);
    std::printf("    interpreter confirms: %s\n\n",
                run.ok ? "no trap (latent path)" : run.error.c_str());
  }
  return 0;
}
