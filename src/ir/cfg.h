// Control-flow graph utilities over Function blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "src/ir/function.h"

namespace overify {

// Blocks in reverse postorder of the CFG from the entry; unreachable blocks
// are omitted.
std::vector<BasicBlock*> ReversePostOrder(Function& fn);

// A read-only run of blocks inside a PredecessorMap.
class BlockSpan {
 public:
  BlockSpan(BasicBlock* const* begin, BasicBlock* const* end) : begin_(begin), end_(end) {}
  BasicBlock* const* begin() const { return begin_; }
  BasicBlock* const* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  BasicBlock* operator[](size_t i) const { return begin_[i]; }

 private:
  BasicBlock* const* begin_;
  BasicBlock* const* end_;
};

// Predecessor lists for every block, computed in one function scan and
// indexed by block id. Each list is in block-layout order. A block created
// after the scan reads as having no predecessors.
class PredecessorMap {
 public:
  explicit PredecessorMap(Function& fn);

  BlockSpan operator[](const BasicBlock* block) const;

 private:
  // preds_[offsets_[id] .. offsets_[id + 1]) are the predecessors of block `id`.
  std::vector<uint32_t> offsets_;
  std::vector<BasicBlock*> preds_;
};

// Removes blocks unreachable from the entry, fixing up phis in survivors.
// Returns the number of blocks removed.
size_t RemoveUnreachableBlocks(Function& fn);

// Replaces every use of `from` as a phi incoming block with `to` in `block`'s
// phi nodes.
void RedirectPhiIncoming(BasicBlock* block, BasicBlock* from, BasicBlock* to);

// Splits the edge pred -> succ by inserting a fresh block containing a single
// unconditional branch to succ. Phi incoming entries in succ are redirected.
// Returns the new block.
BasicBlock* SplitEdge(BasicBlock* pred, BasicBlock* succ);

}  // namespace overify
