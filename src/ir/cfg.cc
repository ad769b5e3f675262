#include "src/ir/cfg.h"

#include <algorithm>

#include "src/ir/context.h"
#include "src/ir/module.h"

namespace overify {

namespace {

void PostOrderVisit(BasicBlock* block, std::vector<bool>& visited,
                    std::vector<BasicBlock*>& order) {
  if (visited[block->id()]) {
    return;
  }
  visited[block->id()] = true;
  for (BasicBlock* succ : block->Successors()) {
    PostOrderVisit(succ, visited, order);
  }
  order.push_back(block);
}

}  // namespace

std::vector<BasicBlock*> ReversePostOrder(Function& fn) {
  std::vector<BasicBlock*> order;
  std::vector<bool> visited(fn.BlockIdBound(), false);
  PostOrderVisit(fn.entry(), visited, order);
  std::reverse(order.begin(), order.end());
  return order;
}

PredecessorMap::PredecessorMap(Function& fn) : offsets_(fn.BlockIdBound() + 1, 0) {
  // Count each block's predecessors into the slot after its own and sum
  // the counts up: offsets_[id] is then where block `id`'s list starts.
  for (BasicBlock& block : fn) {
    for (BasicBlock* succ : block.Successors()) {
      ++offsets_[succ->id() + 1];
    }
  }
  for (size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  // Fill every list in layout order, using offsets_[id] as its cursor; the
  // cursors end where the next list starts, so shift them back by one slot.
  preds_.resize(offsets_.back());
  for (BasicBlock& block : fn) {
    for (BasicBlock* succ : block.Successors()) {
      preds_[offsets_[succ->id()]++] = &block;
    }
  }
  for (size_t i = offsets_.size() - 1; i > 0; --i) {
    offsets_[i] = offsets_[i - 1];
  }
  offsets_[0] = 0;
}

BlockSpan PredecessorMap::operator[](const BasicBlock* block) const {
  const uint32_t id = block->id();
  if (id + 1 >= offsets_.size()) {
    return BlockSpan(nullptr, nullptr);
  }
  return BlockSpan(preds_.data() + offsets_[id], preds_.data() + offsets_[id + 1]);
}

void RedirectPhiIncoming(BasicBlock* block, BasicBlock* from, BasicBlock* to) {
  for (PhiInst* phi : block->Phis()) {
    phi->ReplaceIncomingBlock(from, to);
  }
}

size_t RemoveUnreachableBlocks(Function& fn) {
  std::vector<bool> reachable(fn.BlockIdBound(), false);
  std::vector<BasicBlock*> worklist = {fn.entry()};
  while (!worklist.empty()) {
    BasicBlock* block = worklist.back();
    worklist.pop_back();
    if (reachable[block->id()]) {
      continue;
    }
    reachable[block->id()] = true;
    for (BasicBlock* succ : block->Successors()) {
      worklist.push_back(succ);
    }
  }

  std::vector<BasicBlock*> dead;
  for (BasicBlock& block : fn) {
    if (!reachable[block.id()]) {
      dead.push_back(&block);
    }
  }

  // Remove phi entries flowing from dead blocks into survivors.
  for (BasicBlock* block : dead) {
    for (BasicBlock* succ : block->Successors()) {
      if (!reachable[succ->id()]) {
        continue;
      }
      for (PhiInst* phi : succ->Phis()) {
        int index;
        while ((index = phi->IncomingIndexFor(block)) >= 0) {
          phi->RemoveIncoming(static_cast<unsigned>(index));
        }
      }
    }
  }

  // Values defined in dead blocks can only be used by other dead blocks
  // (defs dominate uses), so dropping references before erasure is safe.
  for (BasicBlock* block : dead) {
    block->DropAllReferences();
  }
  for (BasicBlock* block : dead) {
    fn.EraseBlock(block);
  }
  return dead.size();
}

BasicBlock* SplitEdge(BasicBlock* pred, BasicBlock* succ) {
  Function* fn = pred->parent();
  IRContext& ctx = fn->parent()->context();
  BasicBlock* middle = fn->CreateBlock(pred->name() + "." + succ->name());
  middle->Append(std::make_unique<BranchInst>(ctx, succ));

  auto* br = Cast<BranchInst>(pred->Terminator());
  if (br->true_dest() == succ) {
    br->SetDest(0, middle);
  }
  if (br->IsConditional() && br->false_dest() == succ) {
    br->SetDest(1, middle);
  }
  RedirectPhiIncoming(succ, pred, middle);
  return middle;
}

}  // namespace overify
