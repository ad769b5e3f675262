#include "src/passes/inliner.h"

#include <vector>

#include "src/analysis/call_graph.h"
#include "src/ir/cfg.h"
#include "src/ir/cloning.h"

namespace overify {

bool InlineCallSite(CallInst* call) {
  Function* callee = call->callee();
  if (callee->IsDeclaration()) {
    return false;
  }
  BasicBlock* block = call->parent();
  Function* caller = block->parent();
  Module& module = *caller->parent();
  IRContext& ctx = module.context();

  // 1. Split the containing block after the call.
  BasicBlock* cont = caller->CreateBlock(block->name() + ".cont");
  {
    // Move everything after the call (including the terminator) into cont.
    std::vector<Instruction*> tail;
    bool after = false;
    for (auto& inst : *block) {
      if (after) {
        tail.push_back(inst.get());
      }
      if (inst.get() == call) {
        after = true;
      }
    }
    for (Instruction* inst : tail) {
      cont->Append(block->Remove(inst));
    }
  }
  // Successor phis now flow from cont.
  for (BasicBlock* succ : cont->Successors()) {
    RedirectPhiIncoming(succ, block, cont);
  }

  // 2. Clone the callee body, mapping its arguments to the call operands.
  CloneMapping mapping;
  for (unsigned i = 0; i < callee->NumArgs(); ++i) {
    mapping.values[callee->Arg(i)] = call->Arg(i);
  }
  std::vector<BasicBlock*> callee_blocks;
  for (BasicBlock& bb : *callee) {
    callee_blocks.push_back(&bb);
  }
  CloneBlocksInto(callee_blocks, caller, ".i", mapping);

  // 3. Branch from the call block into the cloned entry.
  BasicBlock* cloned_entry = mapping.Lookup(callee->entry());
  block->Append(std::make_unique<BranchInst>(ctx, cloned_entry));

  // 4. Rewrite cloned returns into branches to cont, collecting return
  // values for the result phi.
  std::vector<std::pair<Value*, BasicBlock*>> returns;
  for (BasicBlock* bb : callee_blocks) {
    BasicBlock* clone = mapping.Lookup(bb);
    auto* ret = DynCast<RetInst>(clone->Terminator());
    if (ret == nullptr) {
      continue;
    }
    Value* result = ret->HasValue() ? ret->value() : nullptr;
    ret->EraseFromParent();
    clone->Append(std::make_unique<BranchInst>(ctx, cont));
    returns.push_back({result, clone});
  }

  // 5. Wire up the call's result.
  if (!call->type()->IsVoid() && call->HasUses()) {
    Value* replacement = nullptr;
    if (returns.size() == 1) {
      replacement = returns[0].first;
    } else if (returns.empty()) {
      // The callee never returns; the continuation is unreachable.
      replacement = ctx.GetUndef(call->type());
    } else {
      auto phi = std::make_unique<PhiInst>(call->type());
      phi->set_name(callee->name() + ".ret");
      for (auto& [value, from] : returns) {
        phi->AddIncoming(value, from);
      }
      PhiInst* raw = phi.get();
      cont->InsertBefore(cont->begin(), std::move(phi));
      replacement = raw;
    }
    call->ReplaceAllUsesWith(replacement);
  }

  // 6. If the callee never returns, terminate cont as unreachable... cont
  // still needs to hold the moved tail; mark entry edge instead: with no
  // returns, cont has no predecessors and later CFG cleanup removes it.
  call->EraseFromParent();
  return true;
}

bool InlinerPass::Run(Module& module) {
  CallGraph call_graph(module);
  bool changed = false;

  for (Function* fn : call_graph.BottomUpOrder()) {
    if (fn->IsDeclaration()) {
      continue;
    }
    // Iterate: inlining may expose further call sites (from inlined bodies).
    bool local_changed = true;
    while (local_changed) {
      local_changed = false;
      if (fn->InstructionCount() > options_.caller_size_cap) {
        break;
      }
      std::vector<CallInst*> sites;
      for (BasicBlock& block : *fn) {
        for (auto& inst : block) {
          if (auto* call = DynCast<CallInst>(inst.get())) {
            sites.push_back(call);
          }
        }
      }
      for (CallInst* call : sites) {
        Function* callee = call->callee();
        if (callee->IsDeclaration() || callee == fn || call_graph.IsRecursive(callee)) {
          continue;
        }
        if (callee->inline_hint() == InlineHint::kNever) {
          continue;
        }
        bool must_inline = callee->inline_hint() == InlineHint::kAlways ||
                           (options_.always_inline_libc && callee->is_libc());
        if (!must_inline && callee->InstructionCount() > options_.callee_size_threshold) {
          continue;
        }
        if (fn->InstructionCount() + callee->InstructionCount() > options_.caller_size_cap) {
          continue;
        }
        if (InlineCallSite(call)) {
          Count(Counter::kInlineFunctionsInlined);
          local_changed = true;
          changed = true;
          break;  // block structure changed; rescan
        }
      }
    }
  }
  return changed;
}

}  // namespace overify
