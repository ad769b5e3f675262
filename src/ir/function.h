// Function: arguments plus an ordered list of basic blocks (entry first).
#pragma once

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/basic_block.h"
#include "src/ir/type.h"
#include "src/ir/value.h"

namespace overify {

class Module;

// Inlining preference recorded by the frontend or by passes.
enum class InlineHint {
  kDefault,
  kAlways,
  kNever,
};

class Function : public Value {
 public:
  // Iteration over blocks yields references, entry block first.
  class BlockIterator {
   public:
    using Inner = std::list<std::unique_ptr<BasicBlock>>::iterator;
    explicit BlockIterator(Inner it) : it_(it) {}
    BasicBlock& operator*() const { return **it_; }
    BasicBlock* operator->() const { return it_->get(); }
    BlockIterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const BlockIterator& o) const { return it_ == o.it_; }
    bool operator!=(const BlockIterator& o) const { return it_ != o.it_; }
    Inner inner() const { return it_; }

   private:
    Inner it_;
  };

  // Drops all inter-instruction references first so destruction order of
  // blocks/instructions does not matter.
  ~Function() override;

  Type* function_type() const { return function_type_; }
  Type* return_type() const { return function_type_->return_type(); }

  Module* parent() const { return parent_; }

  size_t NumArgs() const { return args_.size(); }
  Argument* Arg(unsigned i) const {
    OVERIFY_ASSERT(i < args_.size(), "argument index out of range");
    return args_[i].get();
  }

  bool IsDeclaration() const { return blocks_.empty(); }

  InlineHint inline_hint() const { return inline_hint_; }
  void set_inline_hint(InlineHint hint) { inline_hint_ = hint; }

  // True for functions that came from the linked C library; pass pipelines
  // may treat them differently (e.g. always-inline under -OVERIFY).
  bool is_libc() const { return is_libc_; }
  void set_is_libc(bool value) { is_libc_ = value; }

  BasicBlock* entry() {
    OVERIFY_ASSERT(!blocks_.empty(), "function has no blocks");
    return blocks_.front().get();
  }

  BlockIterator begin() { return BlockIterator(blocks_.begin()); }
  BlockIterator end() { return BlockIterator(blocks_.end()); }
  size_t NumBlocks() const { return blocks_.size(); }

  // Creates and appends a new block with a fresh id.
  BasicBlock* CreateBlock(std::string name);
  // Inserts an existing block after `after` (used by cloning passes to keep
  // related blocks adjacent), giving it a fresh id.
  BasicBlock* InsertBlockAfter(BasicBlock* after, std::unique_ptr<BasicBlock> block);
  // One past the largest block id handed out so far. Ids of erased blocks
  // are not reused, so a table sized by this bound covers every live block.
  uint32_t BlockIdBound() const { return next_block_id_; }
  // Unlinks and destroys `block`. All its instructions must be use-free after
  // the block's own internal uses are dropped (callers run DropAllReferences
  // style cleanup first; see EraseBlock implementation).
  void EraseBlock(BasicBlock* block);
  // Moves `block` to the end of the block list (layout only).
  void MoveBlockToEnd(BasicBlock* block);

  std::vector<BasicBlock*> BlockList();

  // Total instruction count across all blocks.
  size_t InstructionCount() const;

  // Assigns a dense local-slot index to every argument and instruction
  // (arguments first, then instructions in block order) and returns the
  // slot count. The execution engines call this once per function per run
  // to size their flat frame-local vectors; re-running after the function
  // changed simply renumbers.
  uint32_t AssignLocalSlots();

  static bool ClassOf(const Value* v) { return v->value_kind() == ValueKind::kFunction; }

 private:
  friend class Module;
  Function(Type* pointer_to_fn, Type* function_type, std::string name, Module* parent);

  Type* function_type_;
  Module* parent_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::list<std::unique_ptr<BasicBlock>> blocks_;
  uint32_t next_block_id_ = 0;
  InlineHint inline_hint_ = InlineHint::kDefault;
  bool is_libc_ = false;
};

// Per-run memo over Function::AssignLocalSlots, shared by the execution
// engines. Functions may be mutated by passes between runs, so each engine
// run starts from a Clear()ed cache and renumbers lazily on first use.
class LocalSlotCache {
 public:
  uint32_t Count(Function* fn) {
    auto it = counts_.find(fn);
    if (it != counts_.end()) {
      return it->second;
    }
    uint32_t count = fn->AssignLocalSlots();
    counts_[fn] = count;
    return count;
  }

  void Clear() { counts_.clear(); }

 private:
  std::unordered_map<Function*, uint32_t> counts_;
};

}  // namespace overify
