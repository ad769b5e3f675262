#include "src/passes/simplify_cfg.h"

#include <algorithm>
#include <vector>

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

// Merges `succ` into `pred` wherever pred's only successor is succ and
// succ's only predecessor is pred, following each chain to its end. Returns
// the number of blocks merged away. One predecessor map serves the whole
// sweep: a merge hands succ's out-edges to pred, so the lists go stale, but
// no surviving block's predecessor count changes, and the counts are all the
// sweep reads. The layout walk survives the merges because it never erases
// the block it stands on.
size_t MergeChains(Function& fn, const PredecessorMap& preds) {
  size_t merged = 0;
  for (BasicBlock& block : fn) {
    while (true) {
      auto* br = DynCast<BranchInst>(block.Terminator());
      if (br == nullptr || br->IsConditional()) {
        break;
      }
      BasicBlock* succ = br->SingleDest();
      if (succ == &block || preds[succ].size() != 1) {
        break;
      }
      // Phis in succ have a single incoming; resolve them first.
      SimplifyTrivialPhis(succ);
      // Move instructions.
      br->EraseFromParent();
      while (!succ->empty()) {
        block.Append(succ->Remove(succ->front()));
      }
      // succ's successors now see `block` as predecessor.
      for (BasicBlock* after : block.Successors()) {
        RedirectPhiIncoming(after, succ, &block);
      }
      fn.EraseBlock(succ);
      ++merged;
    }
  }
  return merged;
}

// Redirects predecessors of empty forwarding blocks (single unconditional
// branch, no phis) directly to their target when phi-safe. `preds` must be
// current; one forward makes it stale, so at most one block is forwarded.
bool ForwardEmptyBlocks(Function& fn, const PredecessorMap& preds) {
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
    const BlockSpan target_preds = preds[target];
    if (!target_phis.empty() &&
        std::any_of(block_preds.begin(), block_preds.end(), [&](BasicBlock* p) {
          return std::find(target_preds.begin(), target_preds.end(), p) != target_preds.end();
        })) {
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
    bool folded = false;
    for (BasicBlock& block : fn) {
      if (FoldBranch(&block)) {
        Count(Counter::kSimplifyCfgBranchesFolded);
        folded = true;
      }
    }
    if (folded) {
      // Only a folded branch can strand a block after the sweep above.
      local_change = true;
      RemoveUnreachableBlocks(fn);
    }
    for (BasicBlock& block : fn) {
      local_change |= SimplifyTrivialPhis(&block);
    }
    PredecessorMap preds(fn);
    if (const size_t merged = MergeChains(fn, preds); merged > 0) {
      Count(Counter::kSimplifyCfgBlocksMerged, merged);
      local_change = true;
      preds = PredecessorMap(fn);
    }
    if (ForwardEmptyBlocks(fn, preds)) {
      Count(Counter::kSimplifyCfgBlocksForwarded);
      local_change = true;
    }
    changed |= local_change;
  }
  return changed;
}

}  // namespace overify
