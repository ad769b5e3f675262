#include "src/passes/global_dce.h"

#include <set>
#include <vector>

#include "src/analysis/call_graph.h"

namespace overify {

bool GlobalDcePass::Run(Module& module) {
  // Entry points anchor reachability. Without one, the module is a library
  // (as in unit tests that compile libc alone): keep everything.
  std::vector<Function*> roots;
  for (const auto& fn : module.functions()) {
    if (fn->name() == "umain" || fn->name() == "main") {
      roots.push_back(fn.get());
    }
  }
  if (roots.empty()) {
    return false;
  }

  CallGraph call_graph(module);
  std::set<Function*> reachable;
  std::vector<Function*> worklist = roots;
  while (!worklist.empty()) {
    Function* fn = worklist.back();
    worklist.pop_back();
    if (!reachable.insert(fn).second) {
      continue;
    }
    for (Function* callee : call_graph.Callees(fn)) {
      worklist.push_back(callee);
    }
  }

  std::vector<Function*> dead;
  for (const auto& fn : module.functions()) {
    if (reachable.count(fn.get()) == 0) {
      dead.push_back(fn.get());
    }
  }
  for (Function* fn : dead) {
    module.EraseFunction(fn);
    Count(Counter::kGlobalDceFunctionsRemoved);
  }
  return !dead.empty();
}

}  // namespace overify
