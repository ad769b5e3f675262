// BasicBlock: a straight-line instruction sequence ending in one terminator.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/instruction.h"

namespace overify {

class BasicBlock;
class Function;

// The successors of a block, held inline: a terminator has at most two.
class SuccessorList {
 public:
  BasicBlock* const* begin() const { return blocks_; }
  BasicBlock* const* end() const { return blocks_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  BasicBlock* operator[](size_t i) const { return blocks_[i]; }

 private:
  friend class BasicBlock;
  BasicBlock* blocks_[2] = {nullptr, nullptr};
  uint8_t size_ = 0;
};

class BasicBlock {
 public:
  using InstList = std::list<std::unique_ptr<Instruction>>;
  using iterator = InstList::iterator;
  using const_iterator = InstList::const_iterator;

  explicit BasicBlock(std::string name) : name_(std::move(name)) {}

  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  Function* parent() const { return parent_; }
  // Dense per-function index, assigned when the block joins a function and
  // never reused there (Function::BlockIdBound() bounds every id). CFG
  // analyses index their tables by it.
  uint32_t id() const { return id_; }

  iterator begin() { return insts_.begin(); }
  iterator end() { return insts_.end(); }
  const_iterator begin() const { return insts_.begin(); }
  const_iterator end() const { return insts_.end(); }
  bool empty() const { return insts_.empty(); }
  size_t size() const { return insts_.size(); }

  Instruction* front() { return insts_.front().get(); }
  Instruction* back() { return insts_.back().get(); }
  const Instruction* back() const { return insts_.back().get(); }

  // The block's terminator, or null if the block is still under construction.
  Instruction* Terminator();
  const Instruction* Terminator() const;

  // First instruction that is not a phi (end() if the block is all phis).
  iterator FirstNonPhi();

  // Ownership-taking insertion. Returns the raw pointer for convenience.
  Instruction* Append(std::unique_ptr<Instruction> inst);
  Instruction* InsertBefore(iterator pos, std::unique_ptr<Instruction> inst);
  Instruction* InsertBefore(Instruction* pos, std::unique_ptr<Instruction> inst);

  // Unlinks `inst` and returns ownership; uses are untouched.
  std::unique_ptr<Instruction> Remove(Instruction* inst);
  // Unlinks and destroys `inst` (must be use-free).
  void Erase(Instruction* inst);

  // Successor blocks per the terminator (empty for ret/unreachable; one
  // entry when both arms of a conditional branch name the same block).
  SuccessorList Successors() const;
  // Predecessors, computed by scanning the parent function.
  std::vector<BasicBlock*> Predecessors() const;

  // All phi instructions at the head of the block.
  std::vector<PhiInst*> Phis();

  // Drops the operand uses of every instruction in the block. Used before
  // destroying a block so intra-block value cycles do not block destruction.
  void DropAllReferences();

 private:
  friend class Function;

  std::string name_;
  Function* parent_ = nullptr;
  uint32_t id_ = 0;
  InstList insts_;
  std::list<std::unique_ptr<BasicBlock>>::iterator self_;
};

}  // namespace overify
