// Table 1 of the paper: exhaustively explore all paths of Listing 1's `wc`
// for bounded symbolic input under -O0 / -O2 / -O3 / -OVERIFY, reporting
// verification time, compile time, run time, interpreted instructions and
// completed paths.
//
// Paper (10 symbolic bytes, KLEE on the authors' machine):
//   t_verify[ms]: 13,126 / 8,079 / 736 / 49
//   t_compile[ms]: 38 / 42 / 43 / 44
//   t_run[ms]: 3,318 / 704 / 694 / 1,827     (text with 1e8 words)
//   #instructions: 896,853 / 480,229 / 37,829 / 312
//   #paths: 30,537 / 30,537 / 2,045 / 11
//
// Here the substrate is this toolkit's own engine, so absolute numbers
// differ; the orderings and the -O2-keeps-paths / -OVERIFY-n+1 structure are
// the reproduced results. Input is scaled to 6 symbolic bytes so the -O0
// row finishes in seconds (its path count is capped and flagged when not).
#include "bench/bench_common.h"
#include "src/workloads/textgen.h"

using namespace overify;
using namespace overify::bench;

int main() {
  const unsigned kSymBytes = 6;
  const uint64_t kPathCap = 400000;

  std::printf("Table 1: verifying wc (Listing 1) with %u symbolic input bytes\n", kSymBytes);
  std::printf("(paper used 10 bytes on KLEE; orderings are the reproduced result)\n\n");

  TextGenOptions text_options;
  text_options.approx_words = 2000;
  std::string text = GenerateText(text_options);

  TextTable table({"Optimization", "-O0", "-O2", "-O3", "-OVERIFY"});
  std::vector<std::string> tverify = {"t_verify [ms]"};
  std::vector<std::string> tcompile = {"t_compile [ms]"};
  std::vector<std::string> trun = {"t_run [cost units]"};
  std::vector<std::string> instructions = {"# instructions"};
  std::vector<std::string> paths = {"# paths"};

  for (OptLevel level :
       {OptLevel::kO0, OptLevel::kO2, OptLevel::kO3, OptLevel::kOverify}) {
    Compiler compiler;
    CompileResult compiled = compiler.Compile(WcListing1(), level);
    if (!compiled.ok) {
      std::fprintf(stderr, "compile failed at %s:\n%s\n", OptLevelName(level),
                   compiled.errors.c_str());
      return 1;
    }

    SymexLimits limits;
    limits.max_paths = kPathCap;
    limits.max_seconds = 60;
    SymexResult analysis = Analyze(compiled, "umain", kSymBytes, limits);

    Interpreter interp(*compiled.module);
    InterpResult run = interp.Run("umain", text);

    std::string cap_marker = analysis.exhausted ? "" : " (capped)";
    tverify.push_back(FormatMillis(analysis.wall_seconds) + cap_marker);
    tcompile.push_back(FormatMillis(compiled.compile_seconds));
    trun.push_back(FormatCount(run.cost_units));
    instructions.push_back(FormatCount(analysis.metrics.Get(Counter::kInstructions)) + cap_marker);
    paths.push_back(FormatCount(analysis.metrics.Get(Counter::kPathsCompleted)) + cap_marker);

    if (!analysis.bugs.empty()) {
      std::fprintf(stderr, "unexpected bug at %s: %s\n", OptLevelName(level),
                   analysis.bugs[0].message.c_str());
      return 1;
    }
  }

  table.AddRow(tverify);
  table.AddRow(tcompile);
  table.AddRow(trun);
  table.AddRow(instructions);
  table.AddRow(paths);
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Paper reference (10 bytes, KLEE):\n");
  std::printf("  t_verify[ms] 13,126 / 8,079 / 736 / 49   #paths 30,537 / 30,537 / 2,045 / 11\n");
  std::printf("  t_run[ms]     3,318 /   704 / 694 / 1,827\n");
  return 0;
}
