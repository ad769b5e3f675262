#include "src/passes/simplify_cfg.h"

#include <set>

#include "src/ir/cfg.h"

namespace overify {

namespace {

// br (const) -> unconditional; br %c, X, X -> br X.
bool FoldBranch(BasicBlock* block) {
  auto* br = DynCast<BranchInst>(block->Terminator());
  if (br == nullptr || !br->IsConditional()) {
    return false;
  }
  BasicBlock* keep = nullptr;
  BasicBlock* drop = nullptr;
  if (const auto* cond = DynCast<ConstantInt>(br->condition())) {
    keep = cond->IsZero() ? br->false_dest() : br->true_dest();
    drop = cond->IsZero() ? br->true_dest() : br->false_dest();
  } else if (br->true_dest() == br->false_dest()) {
    keep = br->true_dest();
    drop = nullptr;
  } else {
    return false;
  }
  br->MakeUnconditional(keep);
  if (drop != nullptr && drop != keep) {
    // `block` is no longer a predecessor of `drop`.
    for (PhiInst* phi : drop->Phis()) {
      int index = phi->IncomingIndexFor(block);
      if (index >= 0) {
        phi->RemoveIncoming(static_cast<unsigned>(index));
      }
    }
  }
  return true;
}

// Replaces phis that have exactly one incoming entry with that value.
bool SimplifyTrivialPhis(BasicBlock* block) {
  bool changed = false;
  for (PhiInst* phi : block->Phis()) {
    if (phi->NumIncoming() == 1) {
      Value* incoming = phi->IncomingValue(0);
      phi->ReplaceAllUsesWith(incoming == phi
                                  ? static_cast<Value*>(block->parent()->parent()->context()
                                                            .GetUndef(phi->type()))
                                  : incoming);
      phi->EraseFromParent();
      changed = true;
    }
  }
  return changed;
}

// Merges `succ` into `pred` when pred's only successor is succ and succ's
// only predecessor is pred.
bool MergeChain(Function& fn) {
  auto preds = PredecessorMap(fn);
  for (BasicBlock& block : fn) {
    auto* br = DynCast<BranchInst>(block.Terminator());
    if (br == nullptr || br->IsConditional()) {
      continue;
    }
    BasicBlock* succ = br->SingleDest();
    if (succ == &block || preds[succ].size() != 1) {
      continue;
    }
    // Phis in succ have a single incoming; resolve them first.
    SimplifyTrivialPhis(succ);
    // Move instructions.
    br->EraseFromParent();
    while (!succ->empty()) {
      std::unique_ptr<Instruction> inst = succ->Remove(succ->front());
      block.Append(std::move(inst));
    }
    // succ's successors now see `block` as predecessor.
    for (BasicBlock* after : block.Successors()) {
      RedirectPhiIncoming(after, succ, &block);
    }
    fn.EraseBlock(succ);
    return true;  // predecessor map invalidated; caller loops
  }
  return false;
}

// Redirects predecessors of empty forwarding blocks (single unconditional
// branch, no phis) directly to their target when phi-safe.
bool ForwardEmptyBlocks(Function& fn) {
  auto preds = PredecessorMap(fn);
  for (BasicBlock& block : fn) {
    if (&block == fn.entry() || block.size() != 1) {
      continue;
    }
    auto* br = DynCast<BranchInst>(block.Terminator());
    if (br == nullptr || br->IsConditional()) {
      continue;
    }
    BasicBlock* target = br->SingleDest();
    if (target == &block) {
      continue;
    }
    const auto& block_preds = preds[&block];
    if (block_preds.empty()) {
      continue;  // unreachable; handled elsewhere
    }
    // Safety: for each pred P, if P already branches to target, then target's
    // phis would need two different values for P; require either no phis in
    // target or P not already a predecessor of target.
    std::vector<PhiInst*> target_phis = target->Phis();
    bool safe = true;
    std::set<BasicBlock*> target_preds(preds[target].begin(), preds[target].end());
    for (BasicBlock* p : block_preds) {
      if (!target_phis.empty() && target_preds.count(p) != 0) {
        safe = false;
        break;
      }
    }
    if (!safe) {
      continue;
    }
    // Rewrite each predecessor's branch and fix target's phis: the value that
    // flowed (block -> target) now flows (pred -> target) for every pred.
    for (PhiInst* phi : target_phis) {
      int index = phi->IncomingIndexFor(&block);
      OVERIFY_ASSERT(index >= 0, "forwarding block missing phi entry");
      Value* value = phi->IncomingValue(static_cast<unsigned>(index));
      phi->RemoveIncoming(static_cast<unsigned>(index));
      for (BasicBlock* p : block_preds) {
        phi->AddIncoming(value, p);
      }
    }
    for (BasicBlock* p : block_preds) {
      auto* pred_br = Cast<BranchInst>(p->Terminator());
      if (pred_br->true_dest() == &block) {
        pred_br->SetDest(0, target);
      }
      if (pred_br->IsConditional() && pred_br->false_dest() == &block) {
        pred_br->SetDest(1, target);
      }
    }
    fn.EraseBlock(&block);
    return true;
  }
  return false;
}

}  // namespace

bool SimplifyCfgPass::RunOnFunction(Function& fn) {
  bool changed = false;
  bool local_change = true;
  while (local_change) {
    local_change = false;
    local_change |= RemoveUnreachableBlocks(fn) > 0;
    for (BasicBlock& block : fn) {
      if (FoldBranch(&block)) {
        Count(Counter::kSimplifyCfgBranchesFolded);
        local_change = true;
      }
    }
    local_change |= RemoveUnreachableBlocks(fn) > 0;
    for (BasicBlock& block : fn) {
      local_change |= SimplifyTrivialPhis(&block);
    }
    if (MergeChain(fn)) {
      Count(Counter::kSimplifyCfgBlocksMerged);
      local_change = true;
    }
    if (ForwardEmptyBlocks(fn)) {
      Count(Counter::kSimplifyCfgBlocksForwarded);
      local_change = true;
    }
    changed |= local_change;
  }
  return changed;
}

}  // namespace overify
