#include "src/passes/dce.h"

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
  // The marks are indexed by each instruction's dense local slot.
  std::vector<char> live(fn.AssignLocalSlots(), 0);
  std::vector<const Instruction*> worklist;
  auto mark = [&](const Instruction* inst) {
    char& flag = live[inst->local_slot()];
    if (flag == 0) {
      flag = 1;
      worklist.push_back(inst);
    }
  };

  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (IsTriviallyLive(inst.get())) {
        mark(inst.get());
      }
    }
  }
  while (!worklist.empty()) {
    const Instruction* inst = worklist.back();
    worklist.pop_back();
    for (const Value* op : inst->operands()) {
      if (const auto* def = DynCast<Instruction>(op)) {
        mark(def);
      }
    }
  }

  std::vector<Instruction*> dead;
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (live[inst->local_slot()] == 0) {
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
