// Ablation of the -OVERIFY ingredients (§4 names three compiler mechanisms
// plus the library flavor; DESIGN.md calls this experiment out).
//
// For a panel of workloads, each configuration disables one ingredient of
// the full -OVERIFY pipeline and re-measures exploration cost. This answers
// "where does the speedup come from?" — the paper's prototype bundles them.
#include "bench/bench_common.h"
#include "src/workloads/workloads.h"

using namespace overify;
using namespace overify::bench;

namespace {

struct Config {
  const char* name;
  void (*apply)(PipelineOptions&);
};

struct Cost {
  uint64_t paths = 0;
  uint64_t instructions = 0;
  uint64_t queries = 0;
  bool exhausted = true;
};

Cost Measure(const std::string& source, const PipelineOptions& options, unsigned bytes) {
  Compiler compiler;
  CompileResult compiled = compiler.CompileWithOptions(source, options);
  if (!compiled.ok) {
    std::fprintf(stderr, "compile failed:\n%s\n", compiled.errors.c_str());
    std::exit(1);
  }
  SymexLimits limits;
  limits.max_paths = 120000;
  limits.max_seconds = 10;
  SymexResult result = Analyze(compiled, "umain", bytes, limits);
  const MetricsShard& m = result.metrics;
  return Cost{m.Get(Counter::kPathsCompleted), m.Get(Counter::kInstructions),
              m.Get(Counter::kSolverQueries), result.exhausted};
}

}  // namespace

int main() {
  const Config kConfigs[] = {
      {"full -OVERIFY", [](PipelineOptions&) {}},
      {"without if-conversion", [](PipelineOptions& o) { o.if_convert = false; }},
      {"without loop unswitching", [](PipelineOptions& o) { o.unswitch = false; }},
      {"without full unrolling", [](PipelineOptions& o) { o.unroll = false; }},
      {"without aggressive inlining",
       [](PipelineOptions& o) {
         o.inliner.callee_size_threshold = 40;
         o.inliner.always_inline_libc = false;
       }},
      {"without verify libc", [](PipelineOptions& o) { o.use_verify_libc = false; }},
      {"without runtime checks", [](PipelineOptions& o) { o.runtime_checks = false; }},
  };

  const char* kPanel[] = {"wc", "wc_any", "count_mode", "tr_flex", "grep_i", "trim",
                          "csv_count", "caesar", "grep_lite", "uniq_chars"};
  const unsigned kBytes = 5;

  std::printf("Ablation: exploration cost of -OVERIFY with one ingredient removed\n");
  std::printf("(panel: 10 workloads, %u symbolic bytes; cost = paths / interpreted instrs / queries)\n\n",
              kBytes);

  TextTable table({"configuration", "paths", "instructions", "solver queries", "vs full"});
  uint64_t full_instructions = 0;
  for (const Config& config : kConfigs) {
    Cost total;
    for (const char* name : kPanel) {
      const Workload* workload = FindWorkload(name);
      if (workload == nullptr) {
        std::fprintf(stderr, "missing workload %s\n", name);
        return 1;
      }
      PipelineOptions options = PipelineOptions::For(OptLevel::kOverify);
      config.apply(options);
      Cost cost = Measure(workload->source, options, kBytes);
      total.paths += cost.paths;
      total.instructions += cost.instructions;
      total.queries += cost.queries;
      total.exhausted &= cost.exhausted;
    }
    if (full_instructions == 0) {
      full_instructions = total.instructions;
    }
    double ratio = full_instructions > 0
                       ? static_cast<double>(total.instructions) / full_instructions
                       : 1.0;
    table.AddRow({config.name, FormatCount(total.paths) + (total.exhausted ? "" : " (capped)"),
                  FormatCount(total.instructions), FormatCount(total.queries),
                  StrFormat("%.2fx", ratio)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("reading: a ratio above 1.00x means removing the ingredient makes analysis "
              "more expensive.\n");
  return 0;
}
