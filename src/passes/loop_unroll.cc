#include "src/passes/loop_unroll.h"

#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/cloning.h"
#include "src/passes/loop_utils.h"
#include "src/support/string_utils.h"

namespace overify {

namespace {

size_t LoopSize(const Loop* loop) {
  size_t size = 0;
  for (BasicBlock* block : loop->blocks()) {
    size += block->size();
  }
  return size;
}

// Peels one iteration of `loop` in front of it. The peeled copy runs first;
// the original loop's header phis are rewired to start from the peeled
// latch values. Returns false if preconditions fail.
bool PeelIteration(Function& fn, Loop* loop) {
  IRContext& ctx = fn.parent()->context();
  BasicBlock* latch = loop->Latch();
  BasicBlock* header = loop->header();
  if (latch == nullptr) {
    return false;
  }
  // The unique entry edge into the loop. After the first peel this is the
  // previous peeled copy's latch (which may end in a conditional branch), so
  // a full preheader cannot be required here.
  BasicBlock* preheader = nullptr;
  for (BasicBlock* pred : header->Predecessors()) {
    if (loop->Contains(pred)) {
      continue;
    }
    if (preheader != nullptr) {
      return false;
    }
    preheader = pred;
  }
  if (preheader == nullptr) {
    return false;
  }

  std::vector<BasicBlock*> region(loop->blocks().begin(), loop->blocks().end());
  CloneMapping mapping;
  CloneBlocksInto(region, &fn, ".p", mapping);
  BasicBlock* header_peel = mapping.Lookup(header);
  BasicBlock* latch_peel = mapping.Lookup(latch);

  // Exit blocks gain edges from peeled exiting blocks.
  for (BasicBlock* exit : loop->ExitBlocks()) {
    for (PhiInst* phi : exit->Phis()) {
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

  // Peeled header phis: keep only the preheader entry (resolve to the value).
  for (PhiInst* phi : header_peel->Phis()) {
    int latch_index = phi->IncomingIndexFor(latch_peel);
    if (latch_index >= 0) {
      phi->RemoveIncoming(static_cast<unsigned>(latch_index));
    }
  }
  // (Trivial single-incoming phis are resolved below after rewiring.)

  // Original header phis: the entry value now comes from the peeled latch,
  // carrying the peeled copy's "next" value.
  for (PhiInst* phi : header->Phis()) {
    int pre_index = phi->IncomingIndexFor(preheader);
    if (pre_index < 0) {
      continue;
    }
    int latch_index = phi->IncomingIndexFor(latch);
    OVERIFY_ASSERT(latch_index >= 0, "header phi missing latch entry");
    Value* next_value = phi->IncomingValue(static_cast<unsigned>(latch_index));
    phi->RemoveIncoming(static_cast<unsigned>(pre_index));
    phi->AddIncoming(mapping.Lookup(next_value), latch_peel);
  }

  // Redirect: the entry edge enters the peeled copy; the peeled latch's back
  // edge goes to the original header.
  auto* pre_br = Cast<BranchInst>(preheader->Terminator());
  if (pre_br->true_dest() == header) {
    pre_br->SetDest(0, header_peel);
  }
  if (pre_br->IsConditional() && pre_br->false_dest() == header) {
    pre_br->SetDest(1, header_peel);
  }
  auto* latch_peel_br = Cast<BranchInst>(latch_peel->Terminator());
  if (latch_peel_br->true_dest() == header_peel) {
    latch_peel_br->SetDest(0, header);
  }
  if (latch_peel_br->IsConditional() && latch_peel_br->false_dest() == header_peel) {
    latch_peel_br->SetDest(1, header);
  }

  // Resolve the peeled header's now-single-incoming phis.
  for (PhiInst* phi : header_peel->Phis()) {
    if (phi->NumIncoming() == 1) {
      Value* value = phi->IncomingValue(0);
      phi->ReplaceAllUsesWith(value == phi ? static_cast<Value*>(ctx.GetUndef(phi->type()))
                                           : value);
      phi->EraseFromParent();
    }
  }
  return true;
}

}  // namespace

bool LoopUnrollPass::RunOnFunction(Function& fn) {
  bool changed = false;
  // Unroll one loop per outer iteration; each full unroll changes loop
  // structure fundamentally, so analyses are recomputed.
  bool progress = true;
  while (progress) {
    progress = false;
    DominatorTree dom(fn);
    LoopInfo loops(fn, dom);
    for (Loop* loop : loops.LoopsInnermostFirst()) {
      EnsurePreheader(loop);
      EnsureDedicatedExits(loop);
      auto trip = ComputeTripCount(loop, options_.max_trip_count);
      if (!trip.has_value() || trip->trip_count > options_.max_trip_count) {
        continue;
      }
      if (trip->trip_count * LoopSize(loop) > options_.size_limit) {
        continue;
      }
      if (!FormLCSSA(fn, loop)) {
        continue;
      }
      BasicBlock* latch = loop->Latch();
      BasicBlock* header = loop->header();
      bool ok = true;
      for (uint64_t i = 0; i < trip->trip_count; ++i) {
        if (!PeelIteration(fn, loop)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        // The residual copy's back edge is now dead: with an exact trip
        // count, a header-exit loop evaluates its condition once more and
        // leaves. Break the edge so the residual is no longer a loop (a
        // latch-exit residual is never even entered and needs no surgery;
        // its entry edge constant-folds away).
        if (trip->exiting == header && header != latch && latch != nullptr) {
          auto* latch_br = DynCast<BranchInst>(latch->Terminator());
          if (latch_br != nullptr && !latch_br->IsConditional() &&
              latch_br->SingleDest() == header) {
            for (PhiInst* phi : header->Phis()) {
              int index = phi->IncomingIndexFor(latch);
              if (index >= 0) {
                phi->RemoveIncoming(static_cast<unsigned>(index));
              }
            }
            latch_br->EraseFromParent();
            latch->Append(
                std::make_unique<UnreachableInst>(fn.parent()->context()));
          }
        }
        Count(Counter::kUnrollLoopsUnrolled);
        changed = true;
        progress = true;
        break;  // loop structures changed; recompute analyses
      }
    }
  }
  return changed;
}

}  // namespace overify
