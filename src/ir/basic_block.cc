#include "src/ir/basic_block.h"

#include "src/ir/function.h"

namespace overify {

Instruction* BasicBlock::Terminator() {
  if (insts_.empty() || !insts_.back()->IsTerminator()) {
    return nullptr;
  }
  return insts_.back().get();
}

const Instruction* BasicBlock::Terminator() const {
  if (insts_.empty() || !insts_.back()->IsTerminator()) {
    return nullptr;
  }
  return insts_.back().get();
}

BasicBlock::iterator BasicBlock::FirstNonPhi() {
  iterator it = insts_.begin();
  while (it != insts_.end() && (*it)->opcode() == Opcode::kPhi) {
    ++it;
  }
  return it;
}

Instruction* BasicBlock::Append(std::unique_ptr<Instruction> inst) {
  return InsertBefore(insts_.end(), std::move(inst));
}

Instruction* BasicBlock::InsertBefore(iterator pos, std::unique_ptr<Instruction> inst) {
  OVERIFY_ASSERT(inst != nullptr, "inserting null instruction");
  OVERIFY_ASSERT(inst->parent_ == nullptr, "instruction already has a parent");
  Instruction* raw = inst.get();
  auto it = insts_.insert(pos, std::move(inst));
  raw->parent_ = this;
  raw->self_ = it;
  return raw;
}

Instruction* BasicBlock::InsertBefore(Instruction* pos, std::unique_ptr<Instruction> inst) {
  OVERIFY_ASSERT(pos->parent_ == this, "insertion point not in this block");
  return InsertBefore(pos->self_, std::move(inst));
}

std::unique_ptr<Instruction> BasicBlock::Remove(Instruction* inst) {
  OVERIFY_ASSERT(inst->parent_ == this, "instruction not in this block");
  std::unique_ptr<Instruction> owned = std::move(*inst->self_);
  insts_.erase(inst->self_);
  inst->parent_ = nullptr;
  return owned;
}

void BasicBlock::Erase(Instruction* inst) {
  OVERIFY_ASSERT(!inst->HasUses(), "erasing instruction with uses");
  Remove(inst);  // destructor drops operand uses when `owned` goes out of scope
}

SuccessorList BasicBlock::Successors() const {
  SuccessorList result;
  const Instruction* term = Terminator();
  if (const auto* br = DynCast<BranchInst>(term)) {
    result.blocks_[result.size_++] = br->true_dest();
    if (br->IsConditional() && br->false_dest() != br->true_dest()) {
      result.blocks_[result.size_++] = br->false_dest();
    }
  }
  return result;
}

std::vector<BasicBlock*> BasicBlock::Predecessors() const {
  std::vector<BasicBlock*> result;
  OVERIFY_ASSERT(parent_ != nullptr, "block has no parent function");
  for (BasicBlock& bb : *parent_) {
    const Instruction* term = bb.Terminator();
    if (const auto* br = DynCast<BranchInst>(term)) {
      if (br->true_dest() == this || (br->IsConditional() && br->false_dest() == this)) {
        result.push_back(&bb);
      }
    }
  }
  return result;
}

void BasicBlock::DropAllReferences() {
  for (auto& inst : insts_) {
    inst->DropAllOperands();
  }
}

std::vector<PhiInst*> BasicBlock::Phis() {
  std::vector<PhiInst*> result;
  for (auto& inst : insts_) {
    if (auto* phi = DynCast<PhiInst>(inst.get())) {
      result.push_back(phi);
    } else {
      break;
    }
  }
  return result;
}

}  // namespace overify
