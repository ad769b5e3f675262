// Table 3 of the paper: transformation counts when compiling the Coreutils
// suite with different options.
//
// Paper (Coreutils 6.10 under LLVM):
//   # functions inlined : 0 / 7,746 / 16,505
//   # loops unswitched  : 0 /   377 /  3,022
//   # loops unrolled    : 0 / 1,615 /  3,299
//   # branches converted: 0 /   959 /  5,405
//
// The suite here is the MiniC workload corpus (plus the linked libc, which
// -OVERIFY always inlines); the reproduced result is the shape — zero at
// -O0 and a large jump from -O3 to -OSYMBEX on every row.
#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using namespace overify;
using namespace overify::bench;

int main() {
  struct LevelTotals {
    uint64_t inlined = 0;
    uint64_t unswitched = 0;
    uint64_t unrolled = 0;
    uint64_t converted = 0;
    double compile_seconds = 0;
  };

  const OptLevel kLevels[] = {OptLevel::kO0, OptLevel::kO3, OptLevel::kOverify};
  LevelTotals totals[3];

  for (const Workload& workload : CoreutilsSuite()) {
    for (int i = 0; i < 3; ++i) {
      Compiler compiler;
      // All three levels compile against the same (standard) libc so the
      // counts isolate the cost-model difference, as in the paper; the
      // library-flavor effect is measured separately by bench_ablation.
      PipelineOptions options = PipelineOptions::For(kLevels[i]);
      options.use_verify_libc = false;
      CompileResult compiled =
          compiler.CompileWithOptions(workload.source, options, workload.name);
      if (!compiled.ok) {
        std::fprintf(stderr, "%s failed at %s:\n%s\n", workload.name.c_str(),
                     OptLevelName(kLevels[i]), compiled.errors.c_str());
        return 1;
      }
      const MetricsShard& m = compiled.metrics;
      totals[i].inlined += m.Get(Counter::kInlineFunctionsInlined);
      totals[i].unswitched += m.Get(Counter::kUnswitchLoopsUnswitched);
      totals[i].unrolled += m.Get(Counter::kUnrollLoopsUnrolled);
      totals[i].converted += m.Get(Counter::kIfConvertBranchesConverted);
      totals[i].compile_seconds += compiled.compile_seconds;
    }
  }

  std::printf("Table 3: compiling the %zu-program workload suite with different options\n\n",
              CoreutilsSuite().size());
  TextTable table({"Optimization", "-O0", "-O3", "-OSYMBEX (-OVERIFY)", "paper -O0/-O3/-OSYMBEX"});
  auto row = [&](const char* name, auto get, const char* paper) {
    table.AddRow({name, FormatCount(get(totals[0])), FormatCount(get(totals[1])),
                  FormatCount(get(totals[2])), paper});
  };
  row("# functions inlined", [](const LevelTotals& t) { return t.inlined; },
      "0 / 7,746 / 16,505");
  row("# loops unswitched", [](const LevelTotals& t) { return t.unswitched; },
      "0 / 377 / 3,022");
  row("# loops unrolled", [](const LevelTotals& t) { return t.unrolled; },
      "0 / 1,615 / 3,299");
  row("# branches converted", [](const LevelTotals& t) { return t.converted; },
      "0 / 959 / 5,405");
  std::printf("%s\n", table.ToString().c_str());

  std::printf("total compile time: %.0f ms (-O0), %.0f ms (-O3), %.0f ms (-OVERIFY)\n",
              totals[0].compile_seconds * 1e3, totals[1].compile_seconds * 1e3,
              totals[2].compile_seconds * 1e3);
  return 0;
}
