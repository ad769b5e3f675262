#include "src/passes/loop_utils.h"

#include <utility>
#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/fold.h"
#include "src/ir/module.h"

namespace overify {

namespace {

// Moves the phi entries of `block` that flow from `preds` into a fresh
// merge block `merge` (which must already branch to `block`), leaving the
// phis with a single combined entry from `merge`.
void MergePhiEntriesThrough(BasicBlock* block, const std::vector<BasicBlock*>& preds,
                            BasicBlock* merge) {
  for (PhiInst* phi : block->Phis()) {
    auto merged = std::make_unique<PhiInst>(phi->type());
    merged->set_name(phi->HasName() ? phi->name() + ".merge" : "merge");
    for (BasicBlock* pred : preds) {
      int index = phi->IncomingIndexFor(pred);
      OVERIFY_ASSERT(index >= 0, "predecessor missing from phi");
      merged->AddIncoming(phi->IncomingValue(static_cast<unsigned>(index)), pred);
      phi->RemoveIncoming(static_cast<unsigned>(index));
    }
    Value* incoming;
    if (merged->NumIncoming() == 1) {
      incoming = merged->IncomingValue(0);
      merged.reset();
    } else {
      PhiInst* raw = merged.get();
      merge->InsertBefore(merge->begin(), std::move(merged));
      incoming = raw;
    }
    phi->AddIncoming(incoming, merge);
  }
}

// Redirects every edge pred -> target (for pred in preds) to `replacement`.
void RedirectEdges(const std::vector<BasicBlock*>& preds, BasicBlock* target,
                   BasicBlock* replacement) {
  for (BasicBlock* pred : preds) {
    auto* br = Cast<BranchInst>(pred->Terminator());
    if (br->true_dest() == target) {
      br->SetDest(0, replacement);
    }
    if (br->IsConditional() && br->false_dest() == target) {
      br->SetDest(1, replacement);
    }
  }
}

}  // namespace

BasicBlock* EnsurePreheader(Loop* loop) {
  BasicBlock* existing = loop->Preheader();
  if (existing != nullptr) {
    return existing;
  }
  BasicBlock* header = loop->header();
  Function* fn = header->parent();
  IRContext& ctx = fn->parent()->context();

  std::vector<BasicBlock*> outside_preds;
  for (BasicBlock* pred : header->Predecessors()) {
    if (!loop->Contains(pred)) {
      outside_preds.push_back(pred);
    }
  }
  OVERIFY_ASSERT(!outside_preds.empty(), "loop header with no entry edge");

  BasicBlock* preheader = fn->CreateBlock(header->name() + ".ph");
  preheader->Append(std::make_unique<BranchInst>(ctx, header));
  MergePhiEntriesThrough(header, outside_preds, preheader);
  RedirectEdges(outside_preds, header, preheader);
  return preheader;
}

bool EnsureDedicatedExits(Loop* loop) {
  bool changed = false;
  for (BasicBlock* exit : loop->ExitBlocks()) {
    std::vector<BasicBlock*> in_loop_preds;
    bool has_outside_pred = false;
    for (BasicBlock* pred : exit->Predecessors()) {
      if (loop->Contains(pred)) {
        in_loop_preds.push_back(pred);
      } else {
        has_outside_pred = true;
      }
    }
    if (!has_outside_pred) {
      continue;
    }
    Function* fn = exit->parent();
    IRContext& ctx = fn->parent()->context();
    BasicBlock* dedicated = fn->CreateBlock(exit->name() + ".dx");
    dedicated->Append(std::make_unique<BranchInst>(ctx, exit));
    MergePhiEntriesThrough(exit, in_loop_preds, dedicated);
    RedirectEdges(in_loop_preds, exit, dedicated);
    changed = true;
  }
  return changed;
}

bool FormLCSSA(Function& fn, Loop* loop) {
  DominatorTree dom(fn);
  std::vector<BasicBlock*> exits = loop->ExitBlocks();
  // Dedicated exits required: every exit pred must be in-loop.
  for (BasicBlock* exit : exits) {
    for (BasicBlock* pred : exit->Predecessors()) {
      if (!loop->Contains(pred)) {
        return false;
      }
    }
  }

  // Collect loop instructions with outside uses.
  struct OutsideUse {
    Instruction* user;
    unsigned index;
    BasicBlock* use_block;  // for phis: the incoming block
  };

  for (BasicBlock* block : std::vector<BasicBlock*>(loop->blocks().begin(),
                                                    loop->blocks().end())) {
    for (auto& inst : *block) {
      std::vector<OutsideUse> outside;
      for (const Use& use : inst->uses()) {
        BasicBlock* use_block = use.user->parent();
        if (auto* phi = DynCast<PhiInst>(use.user)) {
          use_block = phi->IncomingBlock(use.operand_index);
        }
        if (!loop->Contains(use_block)) {
          outside.push_back(OutsideUse{use.user, use.operand_index, use_block});
        }
      }
      if (outside.empty()) {
        continue;
      }
      // Insert an LCSSA phi in every exit block the def dominates.
      std::vector<std::pair<BasicBlock*, PhiInst*>> exit_phis;  // in `exits` order
      for (BasicBlock* exit : exits) {
        if (!dom.Dominates(block, exit)) {
          continue;
        }
        auto phi = std::make_unique<PhiInst>(inst->type());
        phi->set_name(inst->HasName() ? inst->name() + ".lcssa" : "lcssa");
        for (BasicBlock* pred : exit->Predecessors()) {
          phi->AddIncoming(inst.get(), pred);
        }
        PhiInst* raw = phi.get();
        exit->InsertBefore(exit->begin(), std::move(phi));
        exit_phis.emplace_back(exit, raw);
      }
      if (exit_phis.empty()) {
        return false;
      }
      // Rewrite each outside use through the unique dominating exit phi.
      for (const OutsideUse& use : outside) {
        PhiInst* replacement = nullptr;
        for (auto& [exit, phi] : exit_phis) {
          if (phi->parent() == use.use_block && use.user == phi) {
            replacement = nullptr;  // the LCSSA phi itself; skip
            break;
          }
          if (dom.Dominates(exit, use.use_block)) {
            if (replacement != nullptr) {
              return false;  // ambiguous: multiple exits reach this use
            }
            replacement = phi;
          }
        }
        bool is_lcssa_phi_itself = false;
        for (auto& [exit, phi] : exit_phis) {
          if (use.user == phi) {
            is_lcssa_phi_itself = true;
            break;
          }
        }
        if (is_lcssa_phi_itself) {
          continue;
        }
        if (replacement == nullptr) {
          return false;
        }
        use.user->SetOperand(use.index, replacement);
      }
    }
  }
  return true;
}

std::optional<TripCountInfo> ComputeTripCount(Loop* loop, uint64_t max_iterations) {
  BasicBlock* header = loop->header();
  BasicBlock* latch = loop->Latch();
  BasicBlock* preheader = loop->Preheader();
  if (latch == nullptr || preheader == nullptr) {
    return std::nullopt;
  }
  std::vector<BasicBlock*> exiting = loop->ExitingBlocks();
  if (exiting.size() != 1) {
    return std::nullopt;
  }
  BasicBlock* exit_block = exiting[0];
  if (exit_block != header && exit_block != latch) {
    return std::nullopt;
  }
  auto* exit_br = DynCast<BranchInst>(exit_block->Terminator());
  if (exit_br == nullptr || !exit_br->IsConditional()) {
    return std::nullopt;
  }
  auto* cond = DynCast<ICmpInst>(exit_br->condition());
  if (cond == nullptr) {
    return std::nullopt;
  }
  const auto* bound = DynCast<ConstantInt>(cond->rhs());
  if (bound == nullptr) {
    return std::nullopt;
  }

  // Find the induction phi: the condition's LHS must be the phi itself or
  // phi + constant step (the "next" value).
  Value* lhs = cond->lhs();
  PhiInst* induction = DynCast<PhiInst>(lhs);
  bool cond_on_next = false;
  const ConstantInt* step = nullptr;
  Value* next = nullptr;

  auto analyze_next = [&](Value* candidate, PhiInst* phi) -> const ConstantInt* {
    auto* bin = DynCast<BinaryInst>(candidate);
    if (bin == nullptr || (bin->opcode() != Opcode::kAdd && bin->opcode() != Opcode::kSub)) {
      return nullptr;
    }
    if (bin->lhs() != phi) {
      return nullptr;
    }
    return DynCast<ConstantInt>(bin->rhs());
  };

  if (induction != nullptr && induction->parent() == header) {
    // Condition on the phi: find its latch increment.
    int latch_index = induction->IncomingIndexFor(latch);
    if (latch_index < 0) {
      return std::nullopt;
    }
    next = induction->IncomingValue(static_cast<unsigned>(latch_index));
    step = analyze_next(next, induction);
  } else if (auto* bin = DynCast<BinaryInst>(lhs)) {
    // Condition on phi+step.
    induction = DynCast<PhiInst>(bin->lhs());
    if (induction == nullptr || induction->parent() != header) {
      return std::nullopt;
    }
    int latch_index = induction->IncomingIndexFor(latch);
    if (latch_index < 0 ||
        induction->IncomingValue(static_cast<unsigned>(latch_index)) != bin) {
      return std::nullopt;
    }
    next = bin;
    step = DynCast<ConstantInt>(bin->rhs());
    cond_on_next = true;
  } else {
    return std::nullopt;
  }
  if (step == nullptr || induction == nullptr) {
    return std::nullopt;
  }
  int phi_pre_index = induction->IncomingIndexFor(preheader);
  if (phi_pre_index < 0) {
    return std::nullopt;
  }
  const auto* start = DynCast<ConstantInt>(induction->IncomingValue(
      static_cast<unsigned>(phi_pre_index)));
  if (start == nullptr) {
    return std::nullopt;
  }
  auto* next_bin = Cast<BinaryInst>(next);
  bool is_sub = next_bin->opcode() == Opcode::kSub;

  // Which branch direction leaves the loop?
  bool exit_on_true = !loop->Contains(exit_br->true_dest());
  unsigned bits = induction->type()->bits();

  // Simulate.
  uint64_t value = start->value();
  uint64_t trips = 0;
  for (uint64_t iter = 0; iter <= max_iterations; ++iter) {
    uint64_t next_value_raw;
    {
      auto folded = FoldBinary(is_sub ? Opcode::kSub : Opcode::kAdd, bits, value, step->value());
      if (!folded.has_value()) {
        return std::nullopt;
      }
      next_value_raw = *folded;
    }
    uint64_t cond_input = cond_on_next ? next_value_raw : value;
    bool cond_result = FoldICmp(cond->predicate(), bits, cond_input, bound->value());
    bool exits = (cond_result == exit_on_true);
    // A single-block loop (header == latch) evaluates its condition after the
    // body, i.e. with do-while semantics, so the latch branch handles it.
    if (exit_block == header && header != latch) {
      if (exits) {
        TripCountInfo info;
        info.trip_count = trips;  // header executed trips+1 times, body trips
        info.induction = induction;
        info.exiting = exit_block;
        return info;
      }
      ++trips;
      value = next_value_raw;
    } else {
      // Latch-exit (do-while): body executes, then the condition decides.
      ++trips;
      value = next_value_raw;
      if (exits) {
        TripCountInfo info;
        info.trip_count = trips;
        info.induction = induction;
        info.exiting = exit_block;
        return info;
      }
    }
  }
  return std::nullopt;  // did not terminate within the budget
}

}  // namespace overify
