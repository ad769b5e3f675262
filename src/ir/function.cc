#include "src/ir/function.h"

#include "src/ir/module.h"
#include "src/support/string_utils.h"

namespace overify {

Function::Function(Type* pointer_to_fn, Type* function_type, std::string name, Module* parent)
    : Value(ValueKind::kFunction, pointer_to_fn), function_type_(function_type), parent_(parent) {
  set_name(std::move(name));
  const std::vector<Type*>& params = function_type->params();
  args_.reserve(params.size());
  for (unsigned i = 0; i < params.size(); ++i) {
    args_.push_back(std::make_unique<Argument>(params[i], i));
    args_.back()->set_name(StrFormat("arg%u", i));
  }
}

Function::~Function() {
  for (auto& block : blocks_) {
    block->DropAllReferences();
  }
}

BasicBlock* Function::CreateBlock(std::string name) {
  auto block = std::make_unique<BasicBlock>(std::move(name));
  BasicBlock* raw = block.get();
  blocks_.push_back(std::move(block));
  raw->parent_ = this;
  raw->id_ = next_block_id_++;
  raw->self_ = std::prev(blocks_.end());
  return raw;
}

BasicBlock* Function::InsertBlockAfter(BasicBlock* after, std::unique_ptr<BasicBlock> block) {
  OVERIFY_ASSERT(after == nullptr || after->parent_ == this, "anchor block not in function");
  BasicBlock* raw = block.get();
  auto pos = after == nullptr ? blocks_.end() : std::next(after->self_);
  auto it = blocks_.insert(pos, std::move(block));
  raw->parent_ = this;
  raw->id_ = next_block_id_++;
  raw->self_ = it;
  return raw;
}

void Function::EraseBlock(BasicBlock* block) {
  OVERIFY_ASSERT(block->parent_ == this, "block not in this function");
  // Drop operand uses of every instruction first so intra-block cycles
  // (e.g. a phi using itself) do not trip the use-free assertion.
  block->DropAllReferences();
  // Destroy instructions back-to-front so later instructions release their
  // uses of earlier ones before those are destroyed.
  while (!block->insts_.empty()) {
    OVERIFY_ASSERT(!block->insts_.back()->HasUses(),
                   "erasing block whose instructions still have external uses");
    block->insts_.pop_back();
  }
  blocks_.erase(block->self_);
}

void Function::MoveBlockToEnd(BasicBlock* block) {
  OVERIFY_ASSERT(block->parent_ == this, "block not in this function");
  blocks_.splice(blocks_.end(), blocks_, block->self_);
  block->self_ = std::prev(blocks_.end());
}

std::vector<BasicBlock*> Function::BlockList() {
  std::vector<BasicBlock*> result;
  result.reserve(blocks_.size());
  for (auto& block : blocks_) {
    result.push_back(block.get());
  }
  return result;
}

size_t Function::InstructionCount() const {
  size_t count = 0;
  for (const auto& block : blocks_) {
    count += block->size();
  }
  return count;
}

uint32_t Function::AssignLocalSlots() {
  uint32_t next = 0;
  for (auto& arg : args_) {
    arg->set_local_slot(next++);
  }
  for (auto& block : blocks_) {
    for (auto& inst : *block) {
      inst->set_local_slot(next++);
    }
  }
  return next;
}

}  // namespace overify
