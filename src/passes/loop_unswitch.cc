#include "src/passes/loop_unswitch.h"

#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/cloning.h"
#include "src/passes/loop_utils.h"

namespace overify {

namespace {

struct Candidate {
  Loop* loop = nullptr;
  BasicBlock* branch_block = nullptr;
};

size_t LoopSize(const Loop* loop) {
  size_t size = 0;
  for (BasicBlock* block : loop->blocks()) {
    size += block->size();
  }
  return size;
}

// Finds a loop containing a conditional branch on a loop-invariant,
// non-constant condition.
std::optional<Candidate> FindCandidate(DominatorTree& dom, LoopInfo& loops,
                                       size_t size_limit) {
  for (Loop* loop : loops.LoopsInnermostFirst()) {
    if (LoopSize(loop) > size_limit) {
      continue;
    }
    for (BasicBlock* block : loop->blocks()) {
      auto* br = DynCast<BranchInst>(block->Terminator());
      if (br == nullptr || !br->IsConditional()) {
        continue;
      }
      Value* cond = br->condition();
      if (Isa<ConstantInt>(cond) || !loop->IsInvariant(cond)) {
        continue;
      }
      if (br->true_dest() == br->false_dest()) {
        continue;
      }
      // The condition must be available at the preheader's branch point.
      if (const auto* cond_inst = DynCast<Instruction>(cond)) {
        BasicBlock* preheader = loop->Preheader();
        BasicBlock* anchor = preheader != nullptr
                                 ? preheader
                                 : loop->header()->Predecessors().empty()
                                       ? nullptr
                                       : loop->header()->Predecessors()[0];
        if (anchor == nullptr || !dom.IsReachable(anchor) ||
            !dom.Dominates(cond_inst->parent(), anchor)) {
          continue;
        }
      }
      return Candidate{loop, block};
    }
  }
  return std::nullopt;
}

bool UnswitchOne(Function& fn, const Candidate& candidate) {
  Loop* loop = candidate.loop;
  IRContext& ctx = fn.parent()->context();

  BasicBlock* preheader = EnsurePreheader(loop);
  EnsureDedicatedExits(loop);
  if (!FormLCSSA(fn, loop)) {
    return false;
  }

  auto* br = Cast<BranchInst>(candidate.branch_block->Terminator());
  Value* cond = br->condition();
  // Canonicalization may have restructured entry edges; re-verify that the
  // condition is actually available at the (possibly new) preheader.
  if (const auto* cond_inst = DynCast<Instruction>(cond)) {
    DominatorTree dom(fn);
    if (!dom.Dominates(cond_inst->parent(), preheader)) {
      return false;
    }
  }
  BasicBlock* true_dest = br->true_dest();
  BasicBlock* false_dest = br->false_dest();

  // Clone the loop body.
  std::vector<BasicBlock*> region(loop->blocks().begin(), loop->blocks().end());
  CloneMapping mapping;
  CloneBlocksInto(region, &fn, ".us", mapping);
  BasicBlock* header_clone = mapping.Lookup(loop->header());

  // Exit blocks now also receive edges from the cloned loop: extend their
  // phis with the mapped values.
  for (BasicBlock* exit : loop->ExitBlocks()) {
    for (PhiInst* phi : exit->Phis()) {
      // Snapshot original incoming entries before extending.
      std::vector<std::pair<Value*, BasicBlock*>> incoming;
      for (unsigned i = 0; i < phi->NumIncoming(); ++i) {
        incoming.push_back({phi->IncomingValue(i), phi->IncomingBlock(i)});
      }
      for (auto& [value, pred] : incoming) {
        if (loop->Contains(pred)) {
          phi->AddIncoming(mapping.Lookup(value), mapping.Lookup(pred));
        }
      }
    }
  }

  // The preheader now chooses between the two specialized copies.
  auto* pre_br = Cast<BranchInst>(preheader->Terminator());
  OVERIFY_ASSERT(!pre_br->IsConditional(), "preheader must branch unconditionally");
  pre_br->EraseFromParent();
  preheader->Append(std::make_unique<BranchInst>(ctx, cond, loop->header(), header_clone));

  // Specialize: original copy assumes the condition is true.
  {
    auto* orig_br = Cast<BranchInst>(candidate.branch_block->Terminator());
    orig_br->MakeUnconditional(true_dest);
    if (false_dest != true_dest) {
      for (PhiInst* phi : false_dest->Phis()) {
        int index = phi->IncomingIndexFor(candidate.branch_block);
        if (index >= 0) {
          phi->RemoveIncoming(static_cast<unsigned>(index));
        }
      }
    }
  }
  // Cloned copy assumes the condition is false.
  {
    BasicBlock* block_clone = mapping.Lookup(candidate.branch_block);
    auto* clone_br = Cast<BranchInst>(block_clone->Terminator());
    BasicBlock* true_clone = clone_br->true_dest();
    clone_br->MakeUnconditional(clone_br->false_dest());
    if (true_clone != clone_br->SingleDest()) {
      for (PhiInst* phi : true_clone->Phis()) {
        int index = phi->IncomingIndexFor(block_clone);
        if (index >= 0) {
          phi->RemoveIncoming(static_cast<unsigned>(index));
        }
      }
    }
  }

  // Dead edges may leave whole regions unreachable; clean them up now so the
  // verifier (and later passes) see consistent phis.
  RemoveUnreachableBlocks(fn);
  return true;
}

}  // namespace

bool LoopUnswitchPass::RunOnFunction(Function& fn) {
  bool changed = false;
  size_t budget = options_.max_per_function;
  while (budget > 0) {
    DominatorTree dom(fn);
    LoopInfo loops(fn, dom);
    auto candidate = FindCandidate(dom, loops, options_.loop_size_limit);
    if (!candidate.has_value()) {
      break;
    }
    if (!UnswitchOne(fn, *candidate)) {
      break;
    }
    Count(Counter::kUnswitchLoopsUnswitched);
    changed = true;
    --budget;
  }
  return changed;
}

}  // namespace overify
