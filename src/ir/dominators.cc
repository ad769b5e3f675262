#include "src/ir/dominators.h"

#include <algorithm>
#include <set>

#include "src/ir/cfg.h"

namespace overify {

DominatorTree::DominatorTree(Function& fn)
    : fn_(fn),
      rpo_(ReversePostOrder(fn)),
      rpo_index_(fn.BlockIdBound(), kUnreachable),
      idom_(fn.BlockIdBound(), nullptr),
      children_(fn.BlockIdBound()) {
  for (size_t i = 0; i < rpo_.size(); ++i) {
    rpo_index_[rpo_[i]->id()] = static_cast<uint32_t>(i);
  }

  PredecessorMap preds(fn);

  BasicBlock* entry = fn.entry();
  idom_[entry->id()] = entry;

  bool changed = true;
  while (changed) {
    changed = false;
    for (BasicBlock* block : rpo_) {
      if (block == entry) {
        continue;
      }
      BasicBlock* new_idom = nullptr;
      for (BasicBlock* pred : preds[block]) {
        if (idom_[pred->id()] == nullptr) {
          continue;  // not yet processed or unreachable
        }
        new_idom = new_idom == nullptr ? pred : Intersect(pred, new_idom);
      }
      if (new_idom != nullptr && idom_[block->id()] != new_idom) {
        idom_[block->id()] = new_idom;
        changed = true;
      }
    }
  }

  for (BasicBlock* block : rpo_) {
    if (block != entry) {
      children_[idom_[block->id()]->id()].push_back(block);
    }
  }
}

BasicBlock* DominatorTree::Intersect(BasicBlock* a, BasicBlock* b) const {
  while (a != b) {
    while (rpo_index_[a->id()] > rpo_index_[b->id()]) {
      a = idom_[a->id()];
    }
    while (rpo_index_[b->id()] > rpo_index_[a->id()]) {
      b = idom_[b->id()];
    }
  }
  return a;
}

BasicBlock* DominatorTree::ImmediateDominator(BasicBlock* block) const {
  if (!IsReachable(block)) {
    return nullptr;
  }
  BasicBlock* idom = idom_[block->id()];
  return idom == block ? nullptr : idom;
}

bool DominatorTree::Dominates(BasicBlock* a, BasicBlock* b) const {
  if (!IsReachable(a) || !IsReachable(b)) {
    return false;
  }
  while (true) {
    if (a == b) {
      return true;
    }
    BasicBlock* up = idom_[b->id()];
    if (up == b) {
      return false;  // reached the entry
    }
    b = up;
  }
}

bool DominatorTree::StrictlyDominates(BasicBlock* a, BasicBlock* b) const {
  return a != b && Dominates(a, b);
}

bool DominatorTree::ValueDominatesUse(const Instruction* def, const Instruction* user,
                                      unsigned operand_index) const {
  BasicBlock* def_block = def->parent();
  if (const auto* phi = DynCast<PhiInst>(user)) {
    // A phi use must dominate the end of the corresponding incoming block.
    BasicBlock* incoming = phi->IncomingBlock(operand_index);
    return Dominates(def_block, incoming);
  }
  BasicBlock* use_block = user->parent();
  if (def_block != use_block) {
    return Dominates(def_block, use_block);
  }
  // Same block: def must come first.
  for (const auto& inst : *def_block) {
    if (inst.get() == def) {
      return true;
    }
    if (inst.get() == user) {
      return false;
    }
  }
  return false;
}

const std::vector<BasicBlock*>& DominatorTree::Children(BasicBlock* block) const {
  return block->id() < children_.size() ? children_[block->id()] : empty_;
}

PostDominatorTree::PostDominatorTree(Function& fn) : fn_(fn) {
  // Forward-reachable blocks, in forward RPO: the node universe. The reverse
  // graph adds a virtual exit (nullptr) whose successors are the exit blocks.
  std::vector<BasicBlock*> forward_rpo = ReversePostOrder(fn);
  std::set<BasicBlock*> reachable(forward_rpo.begin(), forward_rpo.end());
  auto preds = PredecessorMap(fn);

  std::vector<BasicBlock*> exits;
  for (BasicBlock* block : forward_rpo) {
    if (block->Successors().empty()) {
      exits.push_back(block);
    }
  }

  // Reverse-graph successors: CFG predecessors (restricted to reachable
  // blocks); the virtual exit's successors are the exit blocks.
  auto rev_succs = [&](BasicBlock* node) {
    std::vector<BasicBlock*> out;
    if (node == nullptr) {
      return exits;
    }
    for (BasicBlock* pred : preds[node]) {
      if (reachable.count(pred)) {
        out.push_back(pred);
      }
    }
    return out;
  };

  // Iterative post-order DFS over the reverse graph from the virtual exit,
  // then reversed: reverse-graph RPO with the virtual exit first.
  std::vector<BasicBlock*> post_order;
  std::set<BasicBlock*> visited_blocks;
  bool visited_ve = false;
  struct Frame {
    BasicBlock* node;
    std::vector<BasicBlock*> succs;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  visited_ve = true;
  stack.push_back({nullptr, rev_succs(nullptr)});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next < frame.succs.size()) {
      BasicBlock* succ = frame.succs[frame.next++];
      if (visited_blocks.insert(succ).second) {
        stack.push_back({succ, rev_succs(succ)});
      }
      continue;
    }
    post_order.push_back(frame.node);
    stack.pop_back();
  }
  (void)visited_ve;
  rpo_.assign(post_order.rbegin(), post_order.rend());
  for (size_t i = 0; i < rpo_.size(); ++i) {
    rpo_index_[rpo_[i]] = i;
  }

  // Cooper–Harvey–Kennedy on the reverse graph. Reverse-graph predecessors
  // of a block are its CFG successors, plus the virtual exit for exit blocks.
  pdom_[nullptr] = nullptr;
  bool changed = true;
  while (changed) {
    changed = false;
    for (BasicBlock* block : rpo_) {
      if (block == nullptr) {
        continue;
      }
      BasicBlock* new_pdom = nullptr;
      bool have = false;
      auto consider = [&](BasicBlock* rev_pred) {
        if (rpo_index_.count(rev_pred) == 0 || pdom_.count(rev_pred) == 0) {
          return;
        }
        if (!have) {
          new_pdom = rev_pred;
          have = true;
        } else {
          new_pdom = Intersect(rev_pred, new_pdom);
        }
      };
      if (block->Successors().empty()) {
        consider(nullptr);  // virtual exit
      }
      for (BasicBlock* succ : block->Successors()) {
        consider(succ);
      }
      if (have && (pdom_.count(block) == 0 || pdom_[block] != new_pdom)) {
        pdom_[block] = new_pdom;
        changed = true;
      }
    }
  }
}

BasicBlock* PostDominatorTree::Intersect(BasicBlock* a, BasicBlock* b) const {
  while (a != b) {
    while (rpo_index_.at(a) > rpo_index_.at(b)) {
      a = pdom_.at(a);
    }
    while (rpo_index_.at(b) > rpo_index_.at(a)) {
      b = pdom_.at(b);
    }
  }
  return a;
}

BasicBlock* PostDominatorTree::ImmediatePostDominator(BasicBlock* block) const {
  auto it = pdom_.find(block);
  return it == pdom_.end() ? nullptr : it->second;
}

bool PostDominatorTree::HasInfo(BasicBlock* block) const {
  return block != nullptr && pdom_.count(block) != 0;
}

bool PostDominatorTree::PostDominates(BasicBlock* a, BasicBlock* b) const {
  if (!HasInfo(a) || !HasInfo(b)) {
    return false;
  }
  // Walk b's post-dominator chain up to the virtual exit.
  for (BasicBlock* node = b; node != nullptr; node = pdom_.at(node)) {
    if (node == a) {
      return true;
    }
  }
  return false;
}

const std::map<BasicBlock*, std::vector<BasicBlock*>>&
PostDominatorTree::ControlDependencies() {
  if (control_deps_computed_) {
    return control_deps_;
  }
  control_deps_computed_ = true;
  // Forward RPO for deterministic iteration and output order.
  std::vector<BasicBlock*> forward_rpo = ReversePostOrder(fn_);
  for (BasicBlock* u : forward_rpo) {
    const auto* term = u->Terminator();
    const auto* br = DynCast<BranchInst>(term);
    if (br == nullptr || !br->IsConditional() || !HasInfo(u)) {
      continue;
    }
    BasicBlock* stop = pdom_.at(u);  // may be the virtual exit (nullptr)
    for (BasicBlock* succ : u->Successors()) {
      // Every node on the pdom path from succ up to (excluding) pdom(u) is
      // control-dependent on u. Includes u itself for loop back-edges.
      BasicBlock* runner = succ;
      while (runner != stop) {
        if (!HasInfo(runner)) {
          break;  // cannot reach exit; no post-dominance info to walk
        }
        auto& deps = control_deps_[runner];
        if (std::find(deps.begin(), deps.end(), u) == deps.end()) {
          deps.push_back(u);
        }
        runner = pdom_.at(runner);
      }
    }
  }
  return control_deps_;
}

const std::vector<BasicBlock*>& DominatorTree::DominanceFrontier(BasicBlock* block) {
  if (frontiers_.empty()) {
    frontiers_.resize(idom_.size());
    PredecessorMap preds(fn_);
    for (BasicBlock* join : rpo_) {
      const BlockSpan join_preds = preds[join];
      if (join_preds.size() < 2) {
        continue;
      }
      for (BasicBlock* pred : join_preds) {
        if (!IsReachable(pred)) {
          continue;
        }
        BasicBlock* runner = pred;
        while (runner != ImmediateDominator(join) && runner != nullptr) {
          auto& frontier = frontiers_[runner->id()];
          if (std::find(frontier.begin(), frontier.end(), join) == frontier.end()) {
            frontier.push_back(join);
          }
          runner = ImmediateDominator(runner);
        }
      }
    }
  }
  return block->id() < frontiers_.size() ? frontiers_[block->id()] : empty_;
}

}  // namespace overify
