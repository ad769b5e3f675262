// Optimization pipelines: the concrete meaning of -O0/-O1/-O2/-O3 and
// -OVERIFY in this toolkit.
//
// Per §3 of the paper, -OVERIFY is a set of passes plus cost values, and it
// differs from -O3 in four ways: (1) pass selection (adds runtime checks;
// drops nothing that helps verification), (2) cost parameters (if-conversion
// priced by the verifier's cost instead of the CPU's, inline threshold and
// unroll budget enlarged), (3) preserved metadata, and (4) the C library
// flavor (chosen by the driver via `use_verify_libc`). All but (3) are
// visible below. Outside the uniform cleanup rounds, every pass run changes
// some module of the suite or of the generated kernels (docs/compiler.md,
// "Pass runs that do work"). The paper's metadata is annotations (value
// ranges, trip counts) for the verifier; they are not emitted here, because
// they decided no branch of any e2e workload (docs/compiler.md, "Why
// -OVERIFY emits no annotations").
#pragma once

#include <cstddef>

#include "src/passes/if_convert.h"
#include "src/passes/inliner.h"
#include "src/passes/loop_unroll.h"
#include "src/passes/loop_unswitch.h"
#include "src/passes/pass.h"
#include "src/passes/runtime_checks.h"

namespace overify {

enum class OptLevel {
  kO0,
  kO1,
  kO2,
  kO3,
  kOverify,  // the paper's -OVERIFY / -OSYMBEX prototype
};

const char* OptLevelName(OptLevel level);

struct PipelineOptions {
  OptLevel level = OptLevel::kO0;

  // Component toggles (derived from the level, overridable for ablations).
  bool mem2reg = false;
  bool instcombine = false;
  bool cse = false;
  bool licm = false;
  bool inline_functions = false;
  bool simplify_cfg = false;
  bool jump_threading = false;
  bool unswitch = false;
  bool unroll = false;
  bool if_convert = false;
  bool runtime_checks = false;

  InlinerOptions inliner;
  UnswitchOptions unswitcher;
  UnrollOptions unroller;
  IfConvertOptions if_converter;

  // Which C library flavor the driver links before optimizing.
  bool use_verify_libc = false;

  // Canonical settings for a level.
  static PipelineOptions For(OptLevel level);
};

// Always empty. e2ebench/ names it; it goes with the benchmark's next change.
struct ProgramAnnotations {
  size_t size() const { return 0; }
};

// Populates `pm` with the passes for `options`. The last argument is ignored;
// e2ebench/ passes it, and it goes with the benchmark's next change.
void BuildPipeline(PassManager& pm, const PipelineOptions& options,
                   ProgramAnnotations* = nullptr);

}  // namespace overify
