// Pipeline tuning: sweep the if-conversion branch-cost parameter and watch
// the paper's central tension appear as a curve — verification cost falls as
// branches are priced higher, while (CPU-modeled) execution cost rises.
//
//   $ ./pipeline_tuning
//
// §3: "compilers can help by providing access to built-in heuristics"; this
// example is exactly that knob, exposed through PipelineOptions.
#include <cstdio>

#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/support/string_utils.h"
#include "src/support/table.h"
#include "src/workloads/textgen.h"

using namespace overify;

namespace {

const char* kProgram = R"(
int score(unsigned char *s) {
  int total = 0;
  for (long i = 0; s[i]; i++) {
    int c = s[i];
    if (isalpha(c)) { total += 2; }
    else if (isdigit(c)) { total += 1; }
    if (c == '!') { total += 5; }
  }
  return total;
}
int umain(unsigned char *in, int n) { return score(in); }
)";

}  // namespace

int main() {
  std::printf("== pipeline_tuning: the branch-cost knob ==\n\n");

  TextGenOptions text_options;
  text_options.approx_words = 500;
  std::string text = GenerateText(text_options);

  TextTable table({"branch cost", "branches converted", "paths (5 bytes)", "verif instrs",
                   "exec cost units"});

  for (int branch_cost : {0, 2, 4, 8, 32, 1 << 20}) {
    PipelineOptions options = PipelineOptions::For(OptLevel::kOverify);
    options.if_converter.branch_cost = branch_cost;
    options.if_convert = branch_cost > 0;

    Compiler compiler;
    CompileResult compiled = compiler.CompileWithOptions(kProgram, options);
    if (!compiled.ok) {
      std::fprintf(stderr, "compile failed:\n%s\n", compiled.errors.c_str());
      return 1;
    }
    const uint64_t converted = compiled.metrics.Get(Counter::kIfConvertBranchesConverted);

    SymexLimits limits;
    limits.max_paths = 300000;
    limits.max_seconds = 20;
    SymexResult analysis = Analyze(compiled, "umain", 5, limits);

    Interpreter interp(*compiled.module);
    InterpResult run = interp.Run("umain", text);

    table.AddRow({branch_cost == (1 << 20) ? "infinite (-OVERIFY)" : std::to_string(branch_cost),
                  std::to_string(converted),
                  std::to_string(analysis.metrics.Get(Counter::kPathsCompleted)) +
                      (analysis.exhausted ? "" : " (capped)"),
                  std::to_string(analysis.metrics.Get(Counter::kInstructions)),
                  std::to_string(run.cost_units)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("reading: raising the modeled branch cost converts more branches, shrinking\n"
              "the path count (verification wins) while execution cost creeps up — the\n"
              "conflicting requirements the paper's -OVERIFY switch resolves by build mode.\n");
  return 0;
}
