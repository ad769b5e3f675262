// The compiler driver: MiniC source + a C library flavor + an optimization
// level -> an optimized module with compile-phase counters, timing, and
// (under -OVERIFY) the annotation side table.
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
  // Annotation side table (populated when the pipeline annotates). Must stay
  // alive while the module is analyzed.
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

// Convenience: symbolic analysis of a compiled module, consuming the
// annotations when present. `jobs` worker threads explore in parallel
// (0 = one per hardware thread) ordered by `strategy`; results are
// identical across worker counts on exhausted runs (docs/scheduler.md).
SymexResult Analyze(CompileResult& compiled, const std::string& entry, unsigned input_bytes,
                    const SymexLimits& limits, unsigned jobs = 1,
                    SearchStrategy strategy = SearchStrategy::kDfs);

// Full-options overload (solver A/B configurations such as
// solver_preprocess and solver_learning, slicing, persistence, tracing).
// The compiled module's annotations are still injected when present.
SymexResult Analyze(CompileResult& compiled, const std::string& entry, unsigned input_bytes,
                    const SymexLimits& limits, const SymexOptions& base_options);

}  // namespace overify
