// Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/ir/function.h"

namespace overify {

class DominatorTree {
 public:
  explicit DominatorTree(Function& fn);

  // The immediate dominator of `block` (null for the entry block and for
  // unreachable blocks).
  BasicBlock* ImmediateDominator(BasicBlock* block) const;

  // True if `a` dominates `b` (reflexive).
  bool Dominates(BasicBlock* a, BasicBlock* b) const;
  // True if `a` strictly dominates `b`.
  bool StrictlyDominates(BasicBlock* a, BasicBlock* b) const;

  // True if the definition point of `def` dominates the use site
  // (instruction `user` at operand `operand_index`). Handles phi uses, which
  // must dominate the incoming edge rather than the phi itself.
  bool ValueDominatesUse(const Instruction* def, const Instruction* user,
                         unsigned operand_index) const;

  // False for blocks unreachable from the entry and for blocks created after
  // the tree was built.
  bool IsReachable(BasicBlock* block) const {
    return block->id() < rpo_index_.size() && rpo_index_[block->id()] != kUnreachable;
  }

  const std::vector<BasicBlock*>& Children(BasicBlock* block) const;

  // Dominance frontier of `block` (empty for unreachable blocks); every
  // frontier is computed on the first call and cached.
  const std::vector<BasicBlock*>& DominanceFrontier(BasicBlock* block);

  const std::vector<BasicBlock*>& ReversePostOrderBlocks() const { return rpo_; }

 private:
  static constexpr uint32_t kUnreachable = UINT32_MAX;

  BasicBlock* Intersect(BasicBlock* a, BasicBlock* b) const;

  // Every table below is indexed by block id and sized by the function's
  // BlockIdBound() when the tree was built.
  Function& fn_;
  std::vector<BasicBlock*> rpo_;
  std::vector<uint32_t> rpo_index_;               // kUnreachable if not in rpo_
  std::vector<BasicBlock*> idom_;                 // the entry maps to itself
  std::vector<std::vector<BasicBlock*>> children_;
  std::vector<std::vector<BasicBlock*>> frontiers_;  // empty until first asked
  std::vector<BasicBlock*> empty_;
};

// Post-dominator tree over the reverse CFG, with a virtual exit node unifying
// every function exit (ret and unreachable terminators). Control dependence
// (Ferrante–Ottenstein–Warren) falls out of the post-dominance frontiers: B is
// control-dependent on branch block U iff U has a successor from which every
// path reaches B but U itself is not post-dominated by B.
//
// Blocks inside an infinite loop cannot reach the virtual exit; they carry no
// post-dominance information (HasInfo() is false) and clients that need total
// information (the slicer) must detect that and fall back.
class PostDominatorTree {
 public:
  explicit PostDominatorTree(Function& fn);

  // The immediate post-dominator of `block`. Null when the virtual exit is
  // the immediate post-dominator (every path from `block` leaves the function
  // without a common later block) or when `block` has no info.
  BasicBlock* ImmediatePostDominator(BasicBlock* block) const;

  // True if `a` post-dominates `b` (reflexive). False when either block
  // lacks post-dominance info.
  bool PostDominates(BasicBlock* a, BasicBlock* b) const;

  // True when `block` can reach a function exit (the post-dominance solution
  // covers it). Forward-unreachable blocks also report false.
  bool HasInfo(BasicBlock* block) const;

  // For each block B, the blocks whose conditional terminator B is
  // control-dependent on, in deterministic forward-RPO order. Computed
  // lazily, cached. Blocks without post-dominance info are absent.
  const std::map<BasicBlock*, std::vector<BasicBlock*>>& ControlDependencies();

 private:
  // Nodes are BasicBlock* with nullptr standing for the virtual exit.
  BasicBlock* Intersect(BasicBlock* a, BasicBlock* b) const;

  Function& fn_;
  std::vector<BasicBlock*> rpo_;                 // reverse-graph RPO (VE first)
  std::map<BasicBlock*, size_t> rpo_index_;      // includes nullptr == VE
  std::map<BasicBlock*, BasicBlock*> pdom_;      // node -> immediate pdom node
  std::map<BasicBlock*, std::vector<BasicBlock*>> control_deps_;
  bool control_deps_computed_ = false;
};

}  // namespace overify
