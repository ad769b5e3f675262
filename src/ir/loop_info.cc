#include "src/ir/loop_info.h"

#include <algorithm>

namespace overify {

bool Loop::Contains(const Loop* other) const {
  while (other != nullptr) {
    if (other == this) {
      return true;
    }
    other = other->parent();
  }
  return false;
}

namespace {

template <typename Blocks>
BasicBlock* UniqueMember(const Loop& loop, const Blocks& blocks, bool inside) {
  BasicBlock* candidate = nullptr;
  for (BasicBlock* block : blocks) {
    if (loop.Contains(block) != inside) {
      continue;
    }
    if (candidate != nullptr) {
      return nullptr;
    }
    candidate = block;
  }
  return candidate;
}

}  // namespace

BasicBlock* Loop::UniqueHeaderPredecessor(bool inside) const {
  if (info_->fn_.BlockIdBound() == info_->block_bound_) {
    return UniqueMember(*this, info_->preds_[header_], inside);
  }
  return UniqueMember(*this, header_->Predecessors(), inside);
}

BasicBlock* Loop::Preheader() const {
  BasicBlock* candidate = UniqueHeaderPredecessor(false);
  if (candidate == nullptr) {
    return nullptr;
  }
  // The preheader must branch only to the header.
  SuccessorList succs = candidate->Successors();
  if (succs.size() != 1 || succs[0] != header_) {
    return nullptr;
  }
  return candidate;
}

BasicBlock* Loop::Latch() const { return UniqueHeaderPredecessor(true); }

std::vector<BasicBlock*> Loop::ExitingBlocks() const {
  std::vector<BasicBlock*> result;
  for (BasicBlock* block : blocks_) {
    for (BasicBlock* succ : block->Successors()) {
      if (!Contains(succ)) {
        result.push_back(block);
        break;
      }
    }
  }
  return result;
}

std::vector<BasicBlock*> Loop::ExitBlocks() const {
  std::vector<BasicBlock*> result;
  for (BasicBlock* block : blocks_) {
    for (BasicBlock* succ : block->Successors()) {
      if (!Contains(succ) &&
          std::find(result.begin(), result.end(), succ) == result.end()) {
        result.push_back(succ);
      }
    }
  }
  return result;
}

bool Loop::IsInvariant(const Value* value) const {
  const auto* inst = DynCast<Instruction>(value);
  if (inst == nullptr) {
    return true;  // constants, arguments, globals
  }
  return !Contains(inst->parent());
}

LoopInfo::LoopInfo(Function& fn, DominatorTree& dom)
    : fn_(fn), preds_(fn), block_bound_(fn.BlockIdBound()) {
  const PredecessorMap& preds = preds_;

  // Discover loops headers in post-order of the dominator relation by
  // scanning RPO backwards: inner loops get created before outer ones merge
  // them in.
  const std::vector<BasicBlock*>& rpo = dom.ReversePostOrderBlocks();
  std::vector<unsigned> rpo_index(fn.BlockIdBound(), 0);
  for (unsigned i = 0; i < rpo.size(); ++i) {
    rpo_index[rpo[i]->id()] = i;
  }

  for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
    BasicBlock* header = *it;
    // Collect back edges into `header`.
    std::vector<BasicBlock*> latches;
    for (BasicBlock* pred : preds[header]) {
      if (dom.Dominates(header, pred)) {
        latches.push_back(pred);
      }
    }
    if (latches.empty()) {
      continue;
    }

    auto loop = std::make_unique<Loop>();
    loop->info_ = this;
    loop->header_ = header;
    loop->block_set_.insert(header);

    // Walk backwards from the latches to the header.
    std::vector<BasicBlock*> worklist = latches;
    while (!worklist.empty()) {
      BasicBlock* block = worklist.back();
      worklist.pop_back();
      if (!loop->block_set_.insert(block).second) {
        continue;
      }
      for (BasicBlock* pred : preds[block]) {
        if (dom.IsReachable(pred)) {
          worklist.push_back(pred);
        }
      }
    }
    // Materialize the member list in reverse postorder, never in set
    // (pointer) order: passes derive hoist and clone order from it.
    loop->blocks_.assign(loop->block_set_.begin(), loop->block_set_.end());
    std::sort(loop->blocks_.begin(), loop->blocks_.end(),
              [&rpo_index](BasicBlock* a, BasicBlock* b) {
                return rpo_index[a->id()] < rpo_index[b->id()];
              });
    loops_.push_back(std::move(loop));
  }

  // Establish nesting: loop A is a subloop of B if B contains A's header and
  // A != B and B's block set is a superset. Innermost = smallest containing.
  for (auto& inner : loops_) {
    Loop* best = nullptr;
    for (auto& outer : loops_) {
      if (outer.get() == inner.get() || !outer->block_set_.count(inner->header_)) {
        continue;
      }
      if (best == nullptr || best->blocks_.size() > outer->blocks_.size()) {
        best = outer.get();
      }
    }
    inner->parent_ = best;
    if (best != nullptr) {
      best->subloops_.push_back(inner.get());
    } else {
      top_level_.push_back(inner.get());
    }
  }

  // Depths.
  for (auto& loop : loops_) {
    unsigned depth = 1;
    for (Loop* p = loop->parent_; p != nullptr; p = p->parent_) {
      ++depth;
    }
    loop->depth_ = depth;
  }

  // Innermost loop per block.
  for (auto& loop : loops_) {
    for (BasicBlock* block : loop->blocks_) {
      auto it = innermost_.find(block);
      if (it == innermost_.end() || it->second->blocks_.size() > loop->blocks_.size()) {
        innermost_[block] = loop.get();
      }
    }
  }
}

Loop* LoopInfo::LoopFor(BasicBlock* block) const {
  auto it = innermost_.find(block);
  return it == innermost_.end() ? nullptr : it->second;
}

std::vector<Loop*> LoopInfo::LoopsInnermostFirst() const {
  std::vector<Loop*> result;
  for (const auto& loop : loops_) {
    result.push_back(loop.get());
  }
  std::sort(result.begin(), result.end(), [](const Loop* a, const Loop* b) {
    if (a->depth() != b->depth()) {
      return a->depth() > b->depth();
    }
    return a->blocks().size() < b->blocks().size();
  });
  return result;
}

}  // namespace overify
