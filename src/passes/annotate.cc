#include "src/passes/annotate.h"

#include "src/ir/loop_info.h"
#include "src/passes/loop_utils.h"

namespace overify {

bool AnnotatePass::RunOnFunction(Function& fn) {
  RangeAnalysis ranges(fn);
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (!inst->type()->IsInt()) {
        continue;
      }
      ValueRange r = ranges.RangeOf(inst.get());
      if (!r.IsFull(inst->type()->bits())) {
        out_->value_ranges[inst.get()] = r;
        Count(Counter::kAnnotateValuesAnnotated);
      }
    }
  }

  DominatorTree dom(fn);
  LoopInfo loops(fn, dom);
  for (Loop* loop : loops.LoopsInnermostFirst()) {
    auto trip = ComputeTripCount(loop, 1u << 16);
    if (trip.has_value()) {
      out_->trip_counts[loop->header()] = trip->trip_count;
      Count(Counter::kAnnotateValuesAnnotated);
    }
  }
  // Annotation never mutates the IR.
  return false;
}

}  // namespace overify
