#include "src/passes/pipeline.h"

#include "src/passes/cse.h"
#include "src/passes/global_dce.h"
#include "src/passes/dce.h"
#include "src/passes/instcombine.h"
#include "src/passes/jump_threading.h"
#include "src/passes/licm.h"
#include "src/passes/mem2reg.h"
#include "src/passes/simplify_cfg.h"

namespace overify {

const char* OptLevelName(OptLevel level) {
  switch (level) {
    case OptLevel::kO0:
      return "-O0";
    case OptLevel::kO1:
      return "-O1";
    case OptLevel::kO2:
      return "-O2";
    case OptLevel::kO3:
      return "-O3";
    case OptLevel::kOverify:
      return "-OVERIFY";
  }
  return "?";
}

PipelineOptions PipelineOptions::For(OptLevel level) {
  PipelineOptions o;
  o.level = level;
  switch (level) {
    case OptLevel::kO0:
      return o;
    case OptLevel::kO1:
      o.mem2reg = true;
      o.instcombine = true;
      o.simplify_cfg = true;
      return o;
    case OptLevel::kO2:
      o.mem2reg = true;
      o.instcombine = true;
      o.cse = true;
      o.licm = true;
      o.inline_functions = true;
      o.inliner.callee_size_threshold = 40;
      o.simplify_cfg = true;
      // Per the paper's Table 1, -O2 "does not fundamentally change the
      // program's structure": no if-conversion, unswitching or threading.
      return o;
    case OptLevel::kO3:
      o = For(OptLevel::kO2);
      o.level = level;
      o.inliner.callee_size_threshold = 120;
      o.jump_threading = true;
      o.unswitch = true;
      o.unswitcher.loop_size_limit = 48;
      o.unswitcher.max_per_function = 2;
      o.unroll = true;
      o.unroller.max_trip_count = 4;
      o.unroller.size_limit = 128;
      // CPU-style if-conversion: only truly tiny speculation beats a
      // predicted branch (the GCC `if (test) x = 0;` example from §3).
      o.if_convert = true;
      o.if_converter.branch_cost = 3;
      o.if_converter.speculate_loads = false;
      return o;
    case OptLevel::kOverify:
      o.mem2reg = true;
      o.instcombine = true;
      o.cse = true;
      o.licm = true;
      o.inline_functions = true;
      // (2) adjusted cost values: inline almost everything, especially libc.
      o.inliner.callee_size_threshold = 500;
      o.inliner.caller_size_cap = 20000;
      o.inliner.always_inline_libc = true;
      o.simplify_cfg = true;
      o.jump_threading = true;
      // Branches are what the verifier pays for: unswitch aggressively...
      o.unswitch = true;
      o.unswitcher.loop_size_limit = 512;
      o.unswitcher.max_per_function = 12;
      // ...remove loops whenever possible, even if the program grows...
      o.unroll = true;
      o.unroller.max_trip_count = 64;
      o.unroller.size_limit = 8192;
      // ...and convert safely-speculatable branches into selects, priced by
      // the verifier: any size, but never a select that reaches an address.
      o.if_convert = true;
      o.if_converter.verifier_cost = true;
      o.if_converter.max_speculated = 256;
      o.if_converter.speculate_loads = true;
      // (1) runtime checks and (4) the library flavor.
      o.runtime_checks = true;
      o.use_verify_libc = true;
      return o;
  }
  return o;
}

void BuildPipeline(PassManager& pm, const PipelineOptions& options, ProgramAnnotations*) {
  const PipelineOptions& o = options;
  auto add_cleanup_round = [&] {
    if (o.instcombine) {
      pm.Add(std::make_unique<InstCombinePass>());
    }
    if (o.simplify_cfg) {
      pm.Add(std::make_unique<SimplifyCfgPass>());
    }
    pm.Add(std::make_unique<DcePass>());
  };

  if (o.level == OptLevel::kO0) {
    return;  // a non-optimizing build: exactly what the frontend emitted
  }

  // The frontend links only the libc functions some program function calls,
  // so before inlining GlobalDCE could drop only program functions the entry
  // never calls; no suite program or generated kernel has one.
  if (o.mem2reg) {
    pm.Add(std::make_unique<Mem2RegPass>());
  }
  add_cleanup_round();

  if (o.inline_functions) {
    // Callees are already promoted, so inlined bodies bring no new allocas.
    pm.Add(std::make_unique<InlinerPass>(o.inliner));
    // A callee inlined at every call site is dead; drop it before any later
    // pass pays for it.
    pm.Add(std::make_unique<GlobalDcePass>());
    add_cleanup_round();
  }

  if (o.cse) {
    pm.Add(std::make_unique<CsePass>());
  }
  if (o.licm) {
    pm.Add(std::make_unique<LicmPass>());
  }
  if (o.cse || o.licm) {
    add_cleanup_round();
  }

  if (o.unswitch) {
    pm.Add(std::make_unique<LoopUnswitchPass>(o.unswitcher));
    add_cleanup_round();
  }
  if (o.unroll) {
    pm.Add(std::make_unique<LoopUnrollPass>(o.unroller));
    add_cleanup_round();
  }

  if (o.if_convert) {
    // CSE first so duplicate loads merge, enabling the dominating-access
    // speculation rule; then convert, then clean up.
    if (o.cse) {
      pm.Add(std::make_unique<CsePass>());
    }
    pm.Add(std::make_unique<IfConvertPass>(o.if_converter));
    add_cleanup_round();
    pm.Add(std::make_unique<IfConvertPass>(o.if_converter));
    add_cleanup_round();
  }

  // Jump threading runs after if-conversion: threading rewires the very
  // short-circuit diamonds if-conversion wants to collapse, so the order
  // matters (it picks off the branches speculation could not remove).
  if (o.jump_threading) {
    pm.Add(std::make_unique<JumpThreadingPass>());
    add_cleanup_round();
  }

  if (o.runtime_checks) {
    pm.Add(std::make_unique<RuntimeCheckPass>());
  }
}

}  // namespace overify
