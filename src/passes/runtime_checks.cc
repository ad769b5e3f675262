#include "src/passes/runtime_checks.h"

#include <vector>

#include "src/analysis/range_analysis.h"
#include "src/support/string_utils.h"

namespace overify {

bool RuntimeCheckPass::RunOnFunction(Function& fn) {
  IRContext& ctx = fn.parent()->context();
  RangeAnalysis ranges(fn);
  bool changed = false;

  std::vector<Instruction*> worklist;
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      worklist.push_back(inst.get());
    }
  }

  for (Instruction* inst : worklist) {
    switch (inst->opcode()) {
      case Opcode::kUDiv:
      case Opcode::kSDiv:
      case Opcode::kURem:
      case Opcode::kSRem: {
        if (!options_.division) {
          break;
        }
        Value* divisor = inst->Operand(1);
        if (const auto* c = DynCast<ConstantInt>(divisor)) {
          if (!c->IsZero()) {
            break;  // statically safe
          }
        }
        // Elide when range analysis proves the divisor non-zero.
        ValueRange r = ranges.RangeOf(divisor);
        if (r.lo > 0 || r.hi < 0) {
          break;
        }
        BasicBlock* block = inst->parent();
        auto cmp = std::make_unique<ICmpInst>(ctx, ICmpPredicate::kNe, divisor,
                                              ctx.GetInt(divisor->type(), 0));
        Value* cond = block->InsertBefore(inst, std::move(cmp));
        block->InsertBefore(inst, std::make_unique<CheckInst>(ctx, cond, CheckKind::kDivByZero,
                                                              "division by zero"));
        Count(Counter::kChecksInserted);
        changed = true;
        break;
      }
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr: {
        if (!options_.shifts) {
          break;
        }
        Value* amount = inst->Operand(1);
        unsigned bits = inst->type()->bits();
        if (const auto* c = DynCast<ConstantInt>(amount)) {
          if (c->value() < bits) {
            break;
          }
        }
        ValueRange r = ranges.RangeOf(amount);
        if (r.lo >= 0 && r.hi < static_cast<int64_t>(bits)) {
          break;
        }
        BasicBlock* block = inst->parent();
        auto cmp = std::make_unique<ICmpInst>(ctx, ICmpPredicate::kULT, amount,
                                              ctx.GetInt(amount->type(), bits));
        Value* cond = block->InsertBefore(inst, std::move(cmp));
        block->InsertBefore(inst, std::make_unique<CheckInst>(ctx, cond, CheckKind::kShift,
                                                              "oversized shift amount"));
        Count(Counter::kChecksInserted);
        changed = true;
        break;
      }
      case Opcode::kGep: {
        if (!options_.array_bounds) {
          break;
        }
        auto* gep = Cast<GepInst>(inst);
        // Guard variable indices stepping inside a sized array.
        Type* current = gep->source_type();
        for (unsigned i = 1; i < gep->NumIndices(); ++i) {
          if (current->IsArray()) {
            Value* index = gep->Index(i);
            uint64_t count = current->array_count();
            current = current->element();
            if (Isa<ConstantInt>(index)) {
              continue;
            }
            ValueRange r = ranges.RangeOf(index);
            if (r.lo >= 0 && r.hi < static_cast<int64_t>(count)) {
              continue;  // provably in range
            }
            BasicBlock* block = gep->parent();
            auto cmp = std::make_unique<ICmpInst>(ctx, ICmpPredicate::kULT, index,
                                                  ctx.GetInt(index->type(), count));
            Value* cond = block->InsertBefore(gep, std::move(cmp));
            block->InsertBefore(
                gep, std::make_unique<CheckInst>(
                         ctx, cond, CheckKind::kBounds,
                         StrFormat("array index out of bounds (size %llu)",
                                   static_cast<unsigned long long>(count))));
            Count(Counter::kChecksInserted);
            changed = true;
          } else if (current->IsStruct()) {
            uint64_t field = Cast<ConstantInt>(gep->Index(i))->value();
            current = current->fields()[static_cast<unsigned>(field)];
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return changed;
}

}  // namespace overify
