// Natural-loop detection from back edges in the dominator tree.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/dominators.h"
#include "src/ir/function.h"

namespace overify {

class LoopInfo;

class Loop {
 public:
  BasicBlock* header() const { return header_; }
  // Member blocks in reverse postorder. The order is part of the contract:
  // transformation passes iterate it to pick hoist/clone order, so it must
  // not depend on allocation addresses (a pointer-ordered set here once made
  // compiled IR — and therefore module content hashes — vary run to run).
  const std::vector<BasicBlock*>& blocks() const { return blocks_; }
  bool Contains(BasicBlock* block) const { return block_set_.count(block) != 0; }
  bool Contains(const Loop* other) const;

  Loop* parent() const { return parent_; }
  const std::vector<Loop*>& subloops() const { return subloops_; }
  unsigned depth() const { return depth_; }

  // The unique pre-header (a block outside the loop whose only successor is
  // the header and which is the header's only outside predecessor), or null.
  BasicBlock* Preheader() const;
  // The unique in-loop predecessor of the header (the latch), or null if
  // there are several.
  BasicBlock* Latch() const;
  // Blocks inside the loop with a successor outside it.
  std::vector<BasicBlock*> ExitingBlocks() const;
  // Blocks outside the loop with a predecessor inside it.
  std::vector<BasicBlock*> ExitBlocks() const;

  // True if `value` is computed outside the loop (constants, arguments,
  // globals, and instructions in non-loop blocks).
  bool IsInvariant(const Value* value) const;

 private:
  friend class LoopInfo;
  // The header's only predecessor inside (`inside`) or outside the loop,
  // or null when there are none or several.
  BasicBlock* UniqueHeaderPredecessor(bool inside) const;

  const LoopInfo* info_ = nullptr;
  BasicBlock* header_ = nullptr;
  std::vector<BasicBlock*> blocks_;   // reverse postorder
  std::set<BasicBlock*> block_set_;   // same blocks, for O(log n) Contains
  Loop* parent_ = nullptr;
  std::vector<Loop*> subloops_;
  unsigned depth_ = 1;
};

class LoopInfo {
 public:
  LoopInfo(Function& fn, DominatorTree& dom);
  // Loops point back at their analysis.
  LoopInfo(const LoopInfo&) = delete;
  LoopInfo& operator=(const LoopInfo&) = delete;

  // Outermost loops, in header reverse-postorder.
  const std::vector<Loop*>& TopLevelLoops() const { return top_level_; }
  // The innermost loop containing `block`, or null.
  Loop* LoopFor(BasicBlock* block) const;
  // All loops, innermost first (safe order for transformations).
  std::vector<Loop*> LoopsInnermostFirst() const;

  size_t NumLoops() const { return loops_.size(); }

 private:
  friend class Loop;
  Function& fn_;
  // The function's predecessor lists at analysis time. They stay exact
  // while the function has gained no block: every loop transformation
  // creates a block before it redirects an edge (the rule LICM's analysis
  // reuse rests on too), and after that Loop reads scan the function.
  PredecessorMap preds_;
  uint32_t block_bound_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<Loop*> top_level_;
  std::map<BasicBlock*, Loop*> innermost_;
};

}  // namespace overify
