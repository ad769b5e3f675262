// The compiler driver: MiniC source + a C library flavor + an optimization
// level -> an optimized module with compile-phase counters and timing.
//
// This is the toolkit's equivalent of invoking `clang -O<level>`; Figure 3 of
// the paper shows -OVERIFY as a third build configuration next to the debug
// and release ones, which is exactly how the benchmarks drive this class.
#pragma once

#include <memory>
#include <string>

#include "src/ir/module.h"
#include "src/passes/pipeline.h"
#include "src/symex/executor.h"

namespace overify {

struct CompileResult {
  bool ok = false;
  std::string errors;
  std::unique_ptr<Module> module;
  // Always null. e2ebench/ names it; it goes with the benchmark's next change.
  std::unique_ptr<ProgramAnnotations> annotations;
  // The compile-phase counters of this compilation (Table 3's rows): the
  // pipeline's PassManager shard, e.g. Counter::kInlineFunctionsInlined.
  MetricsShard metrics;
  double compile_seconds = 0;
  size_t instruction_count = 0;  // static size after optimization
};

class Compiler {
 public:
  // When `link_libc` is set, the level's library flavor (standard for
  // -O0..-O3, verification-tailored for -OVERIFY) is compiled in front of
  // the program.
  CompileResult Compile(const std::string& program_source, OptLevel level,
                        const std::string& module_name = "program", bool link_libc = true);

  // Full control over pipeline parameters (ablation benchmarks).
  CompileResult CompileWithOptions(const std::string& program_source,
                                   const PipelineOptions& options,
                                   const std::string& module_name = "program",
                                   bool link_libc = true);
};

// Convenience: symbolic analysis of a compiled module. `jobs` worker
// threads explore in parallel (0 = one per hardware thread); results are
// identical across worker counts on exhausted runs (docs/scheduler.md).
SymexResult Analyze(CompileResult& compiled, const std::string& entry, unsigned input_bytes,
                    const SymexLimits& limits, unsigned jobs = 1);

// Full-options overload (worker count, slicing, fault injection,
// persistence, tracing).
SymexResult Analyze(CompileResult& compiled, const std::string& entry, unsigned input_bytes,
                    const SymexLimits& limits, const SymexOptions& options);

}  // namespace overify
