#include "src/passes/if_convert.h"

#include <map>
#include <optional>
#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/dominators.h"

namespace overify {

namespace {

// True if a load/store to exactly `pointer` appears in `head` or one of its
// dominators before the branch: speculating another load of the same address
// then cannot introduce a memory fault that the original program lacked
// (bug preservation).
bool HasDominatingAccess(Value* pointer, BasicBlock* head, DominatorTree& dom) {
  BasicBlock* block = head;
  while (block != nullptr) {
    for (auto& inst : *block) {
      if (auto* load = DynCast<LoadInst>(inst.get())) {
        if (load->pointer() == pointer) {
          return true;
        }
      } else if (auto* store = DynCast<StoreInst>(inst.get())) {
        if (store->pointer() == pointer) {
          return true;
        }
      }
    }
    block = dom.ImmediateDominator(block);
  }
  return false;
}

// A block is speculatable if all its non-terminator instructions can run
// unconditionally.
bool IsSpeculatableBlock(BasicBlock* block, BasicBlock* head, DominatorTree& dom,
                         const IfConvertOptions& options, size_t& cost) {
  cost = 0;
  for (auto& inst : *block) {
    if (inst->IsTerminator()) {
      auto* br = DynCast<BranchInst>(inst.get());
      if (br == nullptr || br->IsConditional()) {
        return false;
      }
      continue;
    }
    if (inst->opcode() == Opcode::kPhi) {
      return false;
    }
    bool ok = inst->IsSafeToSpeculate();
    if (!ok && inst->opcode() == Opcode::kLoad && options.speculate_loads) {
      // Loads in the speculated side must be provably non-faulting: require
      // an identical-address access on every path to the branch. Note the
      // pointer operand must also be defined outside `block`, which holds
      // because any address computation inside the block is itself
      // speculatable and checked separately.
      ok = HasDominatingAccess(Cast<LoadInst>(inst.get())->pointer(), head, dom);
    }
    if (!ok) {
      return false;
    }
    ++cost;
    if (cost > options.max_speculated) {
      return false;
    }
  }
  return true;
}

// Moves all non-terminator instructions of `from` into `to` before `before`.
void HoistInstructions(BasicBlock* from, BasicBlock* to, Instruction* before) {
  std::vector<Instruction*> insts;
  for (auto& inst : *from) {
    if (!inst->IsTerminator()) {
      insts.push_back(inst.get());
    }
  }
  for (Instruction* inst : insts) {
    to->InsertBefore(before, from->Remove(inst));
  }
}

struct Shape {
  BasicBlock* head = nullptr;
  BasicBlock* true_side = nullptr;   // null when the true edge goes straight to join
  BasicBlock* false_side = nullptr;  // null when the false edge goes straight to join
  BasicBlock* join = nullptr;
};

// Recognizes diamonds (head -> A, B -> join) and triangles
// (head -> A -> join, head -> join).
std::optional<Shape> MatchShape(BasicBlock* head,
                                std::map<BasicBlock*, std::vector<BasicBlock*>>& preds) {
  auto* br = DynCast<BranchInst>(head->Terminator());
  if (br == nullptr || !br->IsConditional()) {
    return std::nullopt;
  }
  BasicBlock* t = br->true_dest();
  BasicBlock* f = br->false_dest();
  if (t == f) {
    return std::nullopt;
  }

  auto single_exit = [&](BasicBlock* block) -> BasicBlock* {
    auto* term = DynCast<BranchInst>(block->Terminator());
    if (term == nullptr || term->IsConditional()) {
      return nullptr;
    }
    return term->SingleDest();
  };
  auto is_simple_side = [&](BasicBlock* side) {
    return side != head && preds[side].size() == 1;
  };

  // Diamond: t and f are single-pred blocks both exiting to the same join.
  if (is_simple_side(t) && is_simple_side(f)) {
    BasicBlock* jt = single_exit(t);
    BasicBlock* jf = single_exit(f);
    if (jt != nullptr && jt == jf && jt != head && jt != t && jt != f) {
      return Shape{head, t, f, jt};
    }
  }
  // Triangle with the true side: head -> t -> f (join).
  if (is_simple_side(t)) {
    BasicBlock* jt = single_exit(t);
    if (jt == f && jt != head) {
      return Shape{head, t, nullptr, f};
    }
  }
  // Triangle with the false side: head -> f -> t (join).
  if (is_simple_side(f)) {
    BasicBlock* jf = single_exit(f);
    if (jf == t && jf != head) {
      return Shape{head, nullptr, f, t};
    }
  }
  return std::nullopt;
}

bool ConvertShape(Function& fn, const Shape& shape, DominatorTree& dom,
                  const IfConvertOptions& options) {
  size_t true_cost = 0;
  size_t false_cost = 0;
  if (shape.true_side != nullptr &&
      !IsSpeculatableBlock(shape.true_side, shape.head, dom, options, true_cost)) {
    return false;
  }
  if (shape.false_side != nullptr &&
      !IsSpeculatableBlock(shape.false_side, shape.head, dom, options, false_cost)) {
    return false;
  }

  auto* br = Cast<BranchInst>(shape.head->Terminator());
  BasicBlock* true_pred = shape.true_side != nullptr ? shape.true_side : shape.head;
  BasicBlock* false_pred = shape.false_side != nullptr ? shape.false_side : shape.head;
  std::vector<PhiInst*> phis = shape.join->Phis();
  for (PhiInst* phi : phis) {
    if (phi->IncomingIndexFor(true_pred) < 0 || phi->IncomingIndexFor(false_pred) < 0) {
      return false;
    }
  }

  // Cost model: speculation executes both sides plus one select per phi,
  // instead of one branch. Under -OVERIFY the branch cost dominates always.
  int speculation_cost = static_cast<int>(true_cost + false_cost + phis.size()) *
                         options.instruction_cost;
  if (speculation_cost > options.branch_cost) {
    return false;
  }

  // Hoist both sides into head, before its terminator.
  if (shape.true_side != nullptr) {
    HoistInstructions(shape.true_side, shape.head, br);
  }
  if (shape.false_side != nullptr) {
    HoistInstructions(shape.false_side, shape.head, br);
  }

  // Turn join phis into selects in head.
  Value* cond = br->condition();
  for (PhiInst* phi : phis) {
    Value* tv = phi->IncomingValueFor(true_pred);
    Value* fv = phi->IncomingValueFor(false_pred);
    Value* replacement;
    if (tv == fv) {
      replacement = tv;
    } else {
      auto select = std::make_unique<SelectInst>(cond, tv, fv);
      if (phi->HasName()) {
        select->set_name(phi->name() + ".sel");
      }
      replacement = shape.head->InsertBefore(br, std::move(select));
    }
    phi->RemoveIncoming(static_cast<unsigned>(phi->IncomingIndexFor(true_pred)));
    phi->RemoveIncoming(static_cast<unsigned>(phi->IncomingIndexFor(false_pred)));
    if (phi->NumIncoming() == 0) {
      phi->ReplaceAllUsesWith(replacement);
      phi->EraseFromParent();
    } else {
      phi->AddIncoming(replacement, shape.head);
    }
  }

  // Fall through to join; the emptied side blocks are erased.
  br->MakeUnconditional(shape.join);
  if (shape.true_side != nullptr) {
    fn.EraseBlock(shape.true_side);
  }
  if (shape.false_side != nullptr) {
    fn.EraseBlock(shape.false_side);
  }
  return true;
}

}  // namespace

bool IfConvertPass::RunOnFunction(Function& fn) {
  bool changed = false;
  bool progress = true;
  while (progress) {
    progress = false;
    auto preds = PredecessorMap(fn);
    DominatorTree dom(fn);
    for (BasicBlock& block : fn) {
      auto shape = MatchShape(&block, preds);
      if (!shape.has_value()) {
        continue;
      }
      if (ConvertShape(fn, *shape, dom, options_)) {
        Count(Counter::kIfConvertBranchesConverted);
        changed = true;
        progress = true;
        break;  // CFG changed; recompute analyses
      }
    }
  }
  return changed;
}

}  // namespace overify
