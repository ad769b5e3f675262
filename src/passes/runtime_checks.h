// Runtime check insertion ("Generate runtime checks" row of Table 2).
//
// Emits `check` instructions in front of trapping operations so that every
// kind of illegal behaviour becomes one uniform failure the verifier looks
// for (§3: "tools now only need to check for one type of failure").
#pragma once

#include "src/passes/pass.h"

namespace overify {

// Guards divisors (!= 0), shift amounts (< width) and variable array
// indices (< the array's length), unless range analysis proves them safe.
class RuntimeCheckPass : public FunctionPass {
 public:
  const char* name() const override { return "checks"; }
  bool RunOnFunction(Function& fn) override;
};

}  // namespace overify
