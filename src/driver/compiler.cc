#include "src/driver/compiler.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "src/analysis/slicer.h"
#include "src/exec/interpreter.h"
#include "src/frontend/codegen.h"
#include "src/ir/verifier.h"
#include "src/support/stopwatch.h"
#include "src/vlibc/vlibc.h"

namespace overify {

namespace {

// Per-check slice verification (docs/slicing.md): run the engine once per
// slice, merge the shards, re-attribute bug sites to the original module,
// and replay every bug input through the full-program concrete interpreter
// (the soundness oracle). The merged result is a pure function of
// (module, options, limits): slices are built in deterministic order and
// each per-slice run is itself deterministic.
SymexResult AnalyzeSliced(CompileResult& compiled, Function* entry_fn,
                          unsigned input_bytes, const SymexLimits& limits,
                          const SymexOptions& options) {
  Module& module = *compiled.module;
  Slicer slicer(module, entry_fn);
  SliceResult slices = slicer.Run();

  if (!slices.ok) {
    // Whole-program fallback, counted: slice mode must never lose bugs, so
    // an unsliceable module (infinite loop, verifier rejection) degrades to
    // the ordinary run.
    SymbolicExecutor engine(module, options);
    SymexResult result = engine.Run(entry_fn, input_bytes, limits);
    result.metrics.Inc(Counter::kSliceFallbacks);
    return result;
  }

  SymexResult merged;
  MetricsShard shard;
  shard.Set(Counter::kSliceChecksFound, slices.checks_found);
  shard.Set(Counter::kSlicesBuilt, slices.slices.size());
  shard.Set(Counter::kSliceEntryInstructions, slices.entry_instructions);
  merged.exhausted = true;

  std::set<std::tuple<const Instruction*, BugKind, std::string>> seen;
  unsigned index = 0;
  for (const Slice& slice : slices.slices) {
    shard.Add(Counter::kSliceConeInstructions, slice.instructions);
    if (slices.entry_instructions > 0) {
      shard.Record(Hist::kSliceConeRatioPct,
                   slice.instructions * 100 / slices.entry_instructions);
    }
    SymexOptions slice_options = options;
    if (!options.trace_path.empty()) {
      slice_options.trace_path =
          options.trace_path + ".slice" + std::to_string(index);
    }
    ++index;
    SymbolicExecutor engine(module, slice_options);
    SymexResult result = engine.Run(slice.fn, input_bytes, limits);
    if (!result.ok) {
      Slicer::EraseSlices(module, slices);
      return result;
    }
    merged.exhausted = merged.exhausted && result.exhausted;
    if (merged.stop_cause == StopCause::kNone) {
      merged.stop_cause = result.stop_cause;
    }
    merged.wall_seconds += result.wall_seconds;
    merged.workers = std::max(merged.workers, result.workers);
    shard.Merge(result.metrics);
    for (BugReport bug : result.bugs) {
      // Re-attribute the site to the original module: slices are erased
      // after the run, so a clone pointer must not escape. Sites inside
      // shared callees are already original instructions.
      auto it = slices.to_original.find(bug.site);
      if (it != slices.to_original.end()) {
        bug.site = it->second;
      }
      if (seen.emplace(bug.site, bug.kind, bug.message).second) {
        merged.bugs.push_back(std::move(bug));
      }
    }
  }

  // Soundness oracle: every slice bug's model must reproduce on the full
  // program. Bugs are kept either way (the caller's confirmation discipline
  // is the authority); the counters make a divergence loud.
  for (const BugReport& bug : merged.bugs) {
    Interpreter interp(module);
    InterpResult replay = interp.Run(entry_fn, bug.example_input);
    shard.Inc(!replay.ok ? Counter::kSliceReplayConfirmed
                         : Counter::kSliceReplayFailed);
  }

  Slicer::EraseSlices(module, slices);
  merged.metrics = shard;
  merged.FinalizeFromMetrics();
  return merged;
}

}  // namespace

CompileResult Compiler::CompileWithOptions(const std::string& program_source,
                                           const PipelineOptions& options,
                                           const std::string& module_name, bool link_libc) {
  CompileResult result;
  Stopwatch watch;

  std::vector<MiniCSource> sources;
  if (link_libc) {
    sources.push_back(MiniCSource{
        options.use_verify_libc ? VerifyLibcSource() : StandardLibcSource(), true});
  }
  sources.push_back(MiniCSource{program_source, false});

  DiagnosticEngine diags;
  result.module = CompileMiniC(sources, module_name, diags);
  if (result.module == nullptr) {
    result.errors = diags.ToString();
    return result;
  }

  result.annotations = std::make_unique<ProgramAnnotations>();

  // Inter-pass IR verification follows the build-level default
  // (kVerifyIRAfterEachPass: debug builds and -DOVERIFY_VERIFY_IR=ON).
  PassManager pm;
  BuildPipeline(pm, options, result.annotations.get());
  pm.Run(*result.module);

  result.metrics = pm.metrics();
  result.compile_seconds = watch.ElapsedSeconds();
  result.instruction_count = result.module->InstructionCount();
  result.ok = true;
  return result;
}

CompileResult Compiler::Compile(const std::string& program_source, OptLevel level,
                                const std::string& module_name, bool link_libc) {
  return CompileWithOptions(program_source, PipelineOptions::For(level), module_name,
                            link_libc);
}

SymexResult Analyze(CompileResult& compiled, const std::string& entry, unsigned input_bytes,
                    const SymexLimits& limits, unsigned jobs, SearchStrategy strategy) {
  SymexOptions options;
  options.jobs = jobs;
  options.strategy = strategy;
  return Analyze(compiled, entry, input_bytes, limits, options);
}

SymexResult Analyze(CompileResult& compiled, const std::string& entry, unsigned input_bytes,
                    const SymexLimits& limits, const SymexOptions& base_options) {
  if (!compiled.ok || compiled.module == nullptr) {
    // Malformed MiniC reaches the driver as a structured error, not an
    // assertion: the compile diagnostics ride along so callers can surface
    // them (docs/robustness.md).
    SymexResult invalid;
    invalid.ok = false;
    invalid.error = compiled.errors.empty()
                        ? "analyzing a failed compilation"
                        : "analyzing a failed compilation: " + compiled.errors;
    return invalid;
  }
  SymexOptions options = base_options;
  if (compiled.annotations != nullptr && compiled.annotations->size() > 0) {
    options.annotations = compiled.annotations.get();
  }
  if (options.slice_checks) {
    Function* entry_fn = compiled.module->GetFunction(entry);
    if (entry_fn != nullptr && !entry_fn->IsDeclaration()) {
      return AnalyzeSliced(compiled, entry_fn, input_bytes, limits, options);
    }
    // Missing entry: fall through so the engine produces its structured
    // entry-contract error.
  }
  SymbolicExecutor engine(*compiled.module, options);
  return engine.Run(entry, input_bytes, limits);
}

}  // namespace overify
