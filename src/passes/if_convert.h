// If-conversion: rewrites side-effect-free conditional diamonds/triangles
// into straight-line code with selects (speculative execution).
//
// This is the transformation that turns Listing 1's loop body into
// Listing 2's branch-free form. The two cost models price different
// machines:
//
//  - CPU (-O3): convert only when a branch costs more than the speculated
//    instructions (GCC's `x &= -(test == 0)` example in §3).
//  - Verifier (-OVERIFY, `verifier_cost`): a removed branch halves the
//    symbolic-execution path count at that point, so speculation size is
//    free; what is not free is a select that reaches a memory address. It
//    turns every later access through it into a symbolic-offset read, which
//    the engine models as a select chain over the object's bytes, and the
//    solver then cannot prune byte by byte. Such branches stay branches
//    (docs/engine.md#what-a-select-costs-the-verifier).
#pragma once

#include "src/passes/pass.h"

namespace overify {

struct IfConvertOptions {
  // Price conversions by the verifier's cost instead of the CPU's: ignore
  // branch_cost and convert every safe branch unless a select it would
  // create reaches a memory address (GEP operand, load or store pointer).
  // -OVERIFY only.
  bool verifier_cost = false;
  // CPU cost model: cost of a conditional branch (~4), against a cost of 1
  // per speculated instruction and created select.
  int branch_cost = 4;
  // Never speculate more than this many instructions per side.
  size_t max_speculated = 64;
  // Allow speculating loads (safe under the dominating-access discipline the
  // frontend guarantees for locals/globals; disabled for CPU levels).
  bool speculate_loads = false;
};

class IfConvertPass : public FunctionPass {
 public:
  explicit IfConvertPass(IfConvertOptions options) : options_(options) {}

  const char* name() const override { return "ifconvert"; }
  bool RunOnFunction(Function& fn) override;

 private:
  IfConvertOptions options_;
};

}  // namespace overify
