#include "src/passes/instcombine.h"

#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "src/ir/fold.h"

namespace overify {

namespace {

bool IsCommutative(Opcode opcode) {
  switch (opcode) {
    case Opcode::kAdd:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
      return true;
    default:
      return false;
  }
}

class Combiner {
 public:
  explicit Combiner(Function& fn) : fn_(fn), ctx_(fn.parent()->context()) {}

  bool Run() {
    for (BasicBlock& block : fn_) {
      for (auto& inst : block) {
        Enqueue(inst.get());
      }
    }
    bool changed = false;
    while (!worklist_.empty()) {
      Instruction* inst = worklist_.front();
      worklist_.pop_front();
      in_worklist_.erase(inst);
      if (erased_.count(inst) != 0) {
        continue;
      }
      changed |= Visit(inst);
    }
    return changed;
  }

  uint64_t simplified() const { return simplified_; }

 private:
  void Enqueue(Instruction* inst) {
    if (erased_.count(inst) == 0 && in_worklist_.insert(inst).second) {
      worklist_.push_back(inst);
    }
  }

  void EnqueueUsers(Value* v) {
    for (const Use& use : v->uses()) {
      Enqueue(use.user);
    }
  }

  // Replaces `inst` with `replacement` everywhere and erases it.
  bool ReplaceWith(Instruction* inst, Value* replacement) {
    EnqueueUsers(inst);
    inst->ReplaceAllUsesWith(replacement);
    if (auto* rep_inst = DynCast<Instruction>(replacement)) {
      Enqueue(rep_inst);
    }
    Erase(inst);
    ++simplified_;
    return true;
  }

  // Detaches a dead instruction, dropping its operand uses now (as erasing
  // would) but keeping it allocated until the combiner is done: a freed
  // address could be reused by an instruction created later, which would
  // then read as erased and never be visited.
  void Erase(Instruction* inst) {
    OVERIFY_ASSERT(!inst->HasUses(), "erasing an instruction that still has uses");
    erased_.insert(inst);
    dead_.push_back(inst->RemoveFromParent());
    dead_.back()->DropAllOperands();
  }

  bool Visit(Instruction* inst) {
    switch (inst->opcode()) {
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kUDiv:
      case Opcode::kSDiv:
      case Opcode::kURem:
      case Opcode::kSRem:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr:
        return VisitBinary(inst);
      case Opcode::kICmp:
        return VisitICmp(Cast<ICmpInst>(inst));
      case Opcode::kSelect:
        return VisitSelect(Cast<SelectInst>(inst));
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kTrunc:
        return VisitCast(inst);
      case Opcode::kPhi:
        return VisitPhi(Cast<PhiInst>(inst));
      default:
        return false;
    }
  }

  bool VisitBinary(Instruction* inst) {
    Opcode opcode = inst->opcode();
    unsigned bits = inst->type()->bits();

    // Canonicalize: constant operand to the right for commutative ops.
    if (IsCommutative(opcode) && Isa<ConstantInt>(inst->Operand(0)) &&
        !Isa<ConstantInt>(inst->Operand(1))) {
      Value* lhs = inst->Operand(0);
      inst->SetOperand(0, inst->Operand(1));
      inst->SetOperand(1, lhs);
    }

    const auto* lhs_const = DynCast<ConstantInt>(inst->Operand(0));
    const auto* rhs_const = DynCast<ConstantInt>(inst->Operand(1));

    // Full constant fold.
    if (lhs_const != nullptr && rhs_const != nullptr) {
      if (auto folded = FoldBinary(opcode, bits, lhs_const->value(), rhs_const->value())) {
        return ReplaceWith(inst, ctx_.GetInt(inst->type(), *folded));
      }
      return false;  // trapping constant op (e.g. div by zero): leave for checks
    }

    Value* lhs = inst->Operand(0);
    Value* rhs = inst->Operand(1);

    // Identities with a constant RHS.
    if (rhs_const != nullptr) {
      uint64_t c = rhs_const->value();
      switch (opcode) {
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kShl:
        case Opcode::kLShr:
        case Opcode::kAShr:
          if (c == 0) {
            return ReplaceWith(inst, lhs);
          }
          break;
        case Opcode::kMul:
          if (c == 1) {
            return ReplaceWith(inst, lhs);
          }
          if (c == 0) {
            return ReplaceWith(inst, ctx_.GetInt(inst->type(), 0));
          }
          break;
        case Opcode::kUDiv:
        case Opcode::kSDiv:
          if (c == 1) {
            return ReplaceWith(inst, lhs);
          }
          break;
        case Opcode::kURem:
          if (c == 1) {
            return ReplaceWith(inst, ctx_.GetInt(inst->type(), 0));
          }
          break;
        case Opcode::kSRem:
          if (c == 1) {
            return ReplaceWith(inst, ctx_.GetInt(inst->type(), 0));
          }
          break;
        case Opcode::kAnd:
          if (c == 0) {
            return ReplaceWith(inst, ctx_.GetInt(inst->type(), 0));
          }
          if (rhs_const->IsAllOnes()) {
            return ReplaceWith(inst, lhs);
          }
          break;
        default:
          break;
      }

      // Reassociation: (x op c1) op c2 -> x op (c1 op c2) for associative ops.
      if (opcode == Opcode::kAdd || opcode == Opcode::kAnd || opcode == Opcode::kOr ||
          opcode == Opcode::kXor || opcode == Opcode::kMul) {
        if (auto* lhs_inst = DynCast<BinaryInst>(lhs)) {
          if (lhs_inst->opcode() == opcode) {
            if (const auto* inner_const = DynCast<ConstantInt>(lhs_inst->rhs())) {
              auto folded = FoldBinary(opcode, bits, inner_const->value(), c);
              if (folded.has_value()) {
                inst->SetOperand(0, lhs_inst->lhs());
                inst->SetOperand(1, ctx_.GetInt(inst->type(), *folded));
                Enqueue(inst);
                ++simplified_;
                return true;
              }
            }
          }
        }
      }

      // add x, negative-c stays as-is (no sub canonicalization needed).
    }

    // Operand-identical identities.
    if (lhs == rhs) {
      switch (opcode) {
        case Opcode::kSub:
        case Opcode::kXor:
          return ReplaceWith(inst, ctx_.GetInt(inst->type(), 0));
        case Opcode::kAnd:
        case Opcode::kOr:
          return ReplaceWith(inst, lhs);
        default:
          break;
      }
    }

    // or/and of i1 with constant handled above; no further rules.
    return false;
  }

  bool VisitICmp(ICmpInst* cmp) {
    unsigned bits = cmp->lhs()->type()->IsInt() ? cmp->lhs()->type()->bits() : 64;
    const auto* lhs_const = DynCast<ConstantInt>(cmp->lhs());
    const auto* rhs_const = DynCast<ConstantInt>(cmp->rhs());

    if (lhs_const != nullptr && rhs_const != nullptr) {
      bool result = FoldICmp(cmp->predicate(), bits, lhs_const->value(), rhs_const->value());
      return ReplaceWith(cmp, ctx_.GetBool(result));
    }
    // Canonicalize constant to the RHS.
    if (lhs_const != nullptr && rhs_const == nullptr) {
      Value* lhs = cmp->lhs();
      cmp->SetOperand(0, cmp->rhs());
      cmp->SetOperand(1, lhs);
      cmp->set_predicate(SwapPredicate(cmp->predicate()));
      Enqueue(cmp);
      return true;
    }
    if (cmp->lhs() == cmp->rhs()) {
      bool result = FoldICmp(cmp->predicate(), bits, 0, 0);  // reflexive outcome
      return ReplaceWith(cmp, ctx_.GetBool(result));
    }
    // icmp on i1 against constants: eq/ne to 0/1 reduce to the value or its
    // negation.
    if (cmp->lhs()->type()->IsBool() && rhs_const != nullptr) {
      bool is_one = rhs_const->IsOne();
      bool want_value = (cmp->predicate() == ICmpPredicate::kEq && is_one) ||
                        (cmp->predicate() == ICmpPredicate::kNe && !is_one);
      bool want_not = (cmp->predicate() == ICmpPredicate::kEq && !is_one) ||
                      (cmp->predicate() == ICmpPredicate::kNe && is_one);
      if (want_value) {
        return ReplaceWith(cmp, cmp->lhs());
      }
      if (want_not) {
        auto not_inst = std::make_unique<BinaryInst>(Opcode::kXor, cmp->lhs(), ctx_.True());
        Instruction* raw = not_inst.get();
        cmp->parent()->InsertBefore(cmp, std::move(not_inst));
        return ReplaceWith(cmp, raw);
      }
    }
    // icmp (zext x), C -> icmp x, C' when C fits the source width (compare in
    // the narrow domain; valid for equality and unsigned orderings).
    if (rhs_const != nullptr) {
      if (auto* cast = DynCast<CastInst>(cmp->lhs())) {
        if (cast->opcode() == Opcode::kZExt && !IsSignedPredicate(cmp->predicate())) {
          unsigned src_bits = cast->value()->type()->bits();
          if (TruncateToWidth(rhs_const->value(), src_bits) == rhs_const->value()) {
            auto narrow = std::make_unique<ICmpInst>(
                ctx_, cmp->predicate(), cast->value(),
                ctx_.GetInt(cast->value()->type(), rhs_const->value()));
            Instruction* raw = narrow.get();
            cmp->parent()->InsertBefore(cmp, std::move(narrow));
            return ReplaceWith(cmp, raw);
          }
        }
      }
    }
    return false;
  }

  bool VisitSelect(SelectInst* select) {
    if (const auto* cond = DynCast<ConstantInt>(select->condition())) {
      return ReplaceWith(select, cond->IsZero() ? select->false_value() : select->true_value());
    }
    if (select->true_value() == select->false_value()) {
      return ReplaceWith(select, select->true_value());
    }
    // Boolean selects reduce to logical operations (what a code generator
    // would emit; also far cheaper than a cmov in the execution cost model):
    //   select c, 1, x  -> or c, x        select c, x, 0 -> and c, x
    //   select c, 0, x  -> and !c, x      select c, x, 1 -> or !c, x
    // and the constant-pair forms select c,1,0 -> c; select c,0,1 -> !c.
    if (select->type()->IsBool()) {
      Value* cond = select->condition();
      Value* tv = select->true_value();
      Value* fv = select->false_value();
      const auto* tc = DynCast<ConstantInt>(tv);
      const auto* fc = DynCast<ConstantInt>(fv);
      auto emit_not = [&](Value* v) -> Value* {
        auto not_inst = std::make_unique<BinaryInst>(Opcode::kXor, v, ctx_.True());
        Instruction* raw = not_inst.get();
        select->parent()->InsertBefore(select, std::move(not_inst));
        return raw;
      };
      auto emit_binary = [&](Opcode op, Value* a, Value* b) {
        auto inst = std::make_unique<BinaryInst>(op, a, b);
        Instruction* raw = inst.get();
        select->parent()->InsertBefore(select, std::move(inst));
        return ReplaceWith(select, raw);
      };
      if (tc != nullptr && fc != nullptr) {
        if (tc->IsOne() && fc->IsZero()) {
          return ReplaceWith(select, cond);
        }
        if (tc->IsZero() && fc->IsOne()) {
          return ReplaceWith(select, emit_not(cond));
        }
      }
      if (tc != nullptr) {
        return tc->IsOne() ? emit_binary(Opcode::kOr, cond, fv)
                           : emit_binary(Opcode::kAnd, emit_not(cond), fv);
      }
      if (fc != nullptr) {
        return fc->IsZero() ? emit_binary(Opcode::kAnd, cond, tv)
                            : emit_binary(Opcode::kOr, emit_not(cond), tv);
      }
    }
    return false;
  }

  bool VisitCast(Instruction* inst) {
    if (const auto* src = DynCast<ConstantInt>(inst->Operand(0))) {
      uint64_t folded = FoldCast(inst->opcode(), src->type()->bits(), inst->type()->bits(),
                                 src->value());
      return ReplaceWith(inst, ctx_.GetInt(inst->type(), folded));
    }
    // Collapse double-extensions of the same signedness.
    if (auto* inner = DynCast<CastInst>(inst->Operand(0))) {
      if (inner->opcode() == inst->opcode() &&
          (inst->opcode() == Opcode::kZExt || inst->opcode() == Opcode::kSExt)) {
        auto merged =
            std::make_unique<CastInst>(inst->opcode(), inner->value(), inst->type());
        Instruction* raw = merged.get();
        inst->parent()->InsertBefore(inst, std::move(merged));
        return ReplaceWith(inst, raw);
      }
      // trunc(ext(x)) back to the original width is x.
      if (inst->opcode() == Opcode::kTrunc &&
          (inner->opcode() == Opcode::kZExt || inner->opcode() == Opcode::kSExt) &&
          inner->value()->type() == inst->type()) {
        return ReplaceWith(inst, inner->value());
      }
    }
    return false;
  }

  bool VisitPhi(PhiInst* phi) {
    // All incoming values identical (ignoring self-references) -> that value.
    Value* common = nullptr;
    for (unsigned i = 0; i < phi->NumIncoming(); ++i) {
      Value* incoming = phi->IncomingValue(i);
      if (incoming == phi) {
        continue;
      }
      if (common == nullptr) {
        common = incoming;
      } else if (common != incoming) {
        return false;
      }
    }
    if (common == nullptr) {
      return false;
    }
    if (phi->NumIncoming() > 0 && common != nullptr) {
      bool all_same = true;
      for (unsigned i = 0; i < phi->NumIncoming(); ++i) {
        if (phi->IncomingValue(i) != common && phi->IncomingValue(i) != phi) {
          all_same = false;
          break;
        }
      }
      if (all_same) {
        // Detach incoming edges before replacement to avoid self-use issues.
        EnqueueUsers(phi);
        phi->ReplaceAllUsesWith(common);
        while (phi->NumIncoming() > 0) {
          phi->RemoveIncoming(0);
        }
        Erase(phi);
        ++simplified_;
        return true;
      }
    }
    return false;
  }

  Function& fn_;
  IRContext& ctx_;
  std::deque<Instruction*> worklist_;
  std::set<Instruction*> in_worklist_;
  std::set<Instruction*> erased_;
  std::vector<std::unique_ptr<Instruction>> dead_;  // erased_, kept allocated
  uint64_t simplified_ = 0;
};

}  // namespace

bool InstCombinePass::RunOnFunction(Function& fn) {
  Combiner combiner(fn);
  const bool changed = combiner.Run();
  Count(Counter::kInstCombineSimplified, combiner.simplified());
  return changed;
}

}  // namespace overify
