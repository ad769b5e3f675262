#include "src/passes/licm.h"

#include <optional>
#include <unordered_set>
#include <vector>

#include "src/analysis/alias_analysis.h"
#include "src/ir/loop_info.h"
#include "src/passes/loop_utils.h"

namespace overify {

namespace {

// All operands available outside the loop?
bool OperandsInvariant(const Instruction* inst, const Loop* loop,
                       const std::unordered_set<const Instruction*>& hoisted) {
  for (const Value* op : inst->operands()) {
    const auto* def = DynCast<Instruction>(op);
    if (def == nullptr) {
      continue;
    }
    if (loop->Contains(def->parent()) && hoisted.count(def) == 0) {
      return false;
    }
  }
  return true;
}

// A loop-invariant load is hoistable when (a) its address is invariant,
// (b) no store or call in the loop may touch that address, and (c) the load
// executes on every iteration (its block dominates the latch) so hoisting
// cannot introduce a new fault.
bool IsHoistableLoad(LoadInst* load, Loop* loop, DominatorTree& dom, BasicBlock* latch) {
  uint64_t size = load->type()->SizeInBytes();
  for (BasicBlock* block : loop->blocks()) {
    for (auto& inst : *block) {
      if (auto* store = DynCast<StoreInst>(inst.get())) {
        uint64_t store_size = store->value()->type()->SizeInBytes();
        if (Alias(load->pointer(), size, store->pointer(), store_size) !=
            AliasResult::kNoAlias) {
          return false;
        }
      } else if (Isa<CallInst>(inst.get())) {
        return false;  // callee may write anything
      }
    }
  }
  if (latch == nullptr || !dom.Dominates(load->parent(), latch)) {
    return false;
  }
  return true;
}

// Returns the number of instructions hoisted.
size_t RunOnLoop(Loop* loop, DominatorTree& dom) {
  BasicBlock* preheader = EnsurePreheader(loop);
  BasicBlock* latch = loop->Latch();
  Instruction* anchor = preheader->Terminator();
  std::unordered_set<const Instruction*> hoisted;  // membership only

  // Iterate to a fixpoint: hoisting one instruction can make its users
  // hoistable.
  bool progress = true;
  while (progress) {
    progress = false;
    for (BasicBlock* block : loop->blocks()) {
      std::vector<Instruction*> candidates;
      for (auto& inst : *block) {
        candidates.push_back(inst.get());
      }
      for (Instruction* inst : candidates) {
        if (hoisted.count(inst) != 0) {
          continue;
        }
        if (!OperandsInvariant(inst, loop, hoisted)) {
          continue;
        }
        bool safe = false;
        if (inst->IsSafeToSpeculate()) {
          safe = true;
        } else if (auto* load = DynCast<LoadInst>(inst)) {
          safe = IsHoistableLoad(load, loop, dom, latch);
        }
        if (!safe) {
          continue;
        }
        preheader->InsertBefore(anchor, block->Remove(inst));
        hoisted.insert(inst);
        progress = true;
      }
    }
  }
  return hoisted.size();
}

}  // namespace

bool LicmPass::RunOnFunction(Function& fn) {
  bool changed = false;
  // One loop per round. A preheader EnsurePreheader adds changes the CFG and
  // invalidates the analyses; hoisting alone changes no block, so they carry
  // over to the next round.
  std::optional<DominatorTree> dom;
  std::optional<LoopInfo> loops;
  // Indexed by block id; preheaders created along the way grow the table.
  std::vector<char> processed_headers;
  while (true) {
    if (!loops.has_value()) {
      dom.emplace(fn);
      loops.emplace(fn, *dom);
      processed_headers.resize(fn.BlockIdBound(), 0);
    }
    Loop* next = nullptr;
    for (Loop* loop : loops->LoopsInnermostFirst()) {
      if (processed_headers[loop->header()->id()] == 0) {
        next = loop;
        break;
      }
    }
    if (next == nullptr) {
      break;
    }
    processed_headers[next->header()->id()] = 1;
    const uint32_t block_bound = fn.BlockIdBound();
    const size_t hoisted = RunOnLoop(next, *dom);
    if (fn.BlockIdBound() != block_bound) {
      loops.reset();
      dom.reset();
    }
    Count(Counter::kLicmHoisted, hoisted);
    changed |= hoisted > 0;
  }
  return changed;
}

}  // namespace overify
