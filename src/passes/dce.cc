#include "src/passes/dce.h"

#include <set>
#include <vector>


namespace overify {

namespace {

// Liveness seed: instructions whose effects are observable.
bool IsTriviallyLive(const Instruction* inst) {
  return inst->HasSideEffects();
}

}  // namespace

bool DcePass::RunOnFunction(Function& fn) {
  // Mark-and-sweep over the whole function so dead phi cycles collapse too.
  std::set<const Instruction*> live;
  std::vector<const Instruction*> worklist;

  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (IsTriviallyLive(inst.get())) {
        live.insert(inst.get());
        worklist.push_back(inst.get());
      }
    }
  }
  while (!worklist.empty()) {
    const Instruction* inst = worklist.back();
    worklist.pop_back();
    for (const Value* op : inst->operands()) {
      const auto* def = DynCast<Instruction>(op);
      if (def != nullptr && live.insert(def).second) {
        worklist.push_back(def);
      }
    }
  }

  std::vector<Instruction*> dead;
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (live.count(inst.get()) == 0) {
        dead.push_back(inst.get());
      }
    }
  }
  if (dead.empty()) {
    return false;
  }
  // Break references first: dead instructions may use each other in cycles.
  for (Instruction* inst : dead) {
    if (auto* phi = DynCast<PhiInst>(inst)) {
      while (phi->NumIncoming() > 0) {
        phi->RemoveIncoming(0);
      }
    } else {
      for (unsigned i = 0; i < inst->NumOperands(); ++i) {
        Value* undef = fn.parent()->context().GetUndef(inst->Operand(i)->type());
        if (inst->Operand(i) != undef) {
          inst->SetOperand(i, undef);
        }
      }
    }
  }
  for (Instruction* inst : dead) {
    OVERIFY_ASSERT(!inst->HasUses(), "dead instruction still used by live code");
    inst->EraseFromParent();
    Count(Counter::kDceRemoved);
  }
  return true;
}

}  // namespace overify
