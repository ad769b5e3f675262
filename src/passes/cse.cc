#include "src/passes/cse.h"

#include <map>
#include <tuple>
#include <vector>

#include "src/analysis/alias_analysis.h"
#include "src/ir/dominators.h"

namespace overify {

namespace {

// Structural key for pure instructions. Extras fold predicate/type variation.
struct ExprKey {
  Opcode opcode;
  int extra;  // icmp predicate, or 0
  const Type* type;
  std::vector<const Value*> operands;

  bool operator<(const ExprKey& other) const {
    return std::tie(opcode, extra, type, operands) <
           std::tie(other.opcode, other.extra, other.type, other.operands);
  }
};

std::optional<ExprKey> KeyFor(Instruction* inst) {
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
    case Opcode::kSelect:
    case Opcode::kZExt:
    case Opcode::kSExt:
    case Opcode::kTrunc:
    case Opcode::kGep: {
      ExprKey key;
      key.opcode = inst->opcode();
      key.extra = 0;
      key.type = inst->type();
      if (auto* gep = DynCast<GepInst>(inst)) {
        // Distinguish geps by source type as well.
        key.extra = static_cast<int>(gep->source_type()->SizeInBytes());
      }
      for (const Value* op : inst->operands()) {
        key.operands.push_back(op);
      }
      // Canonical order for commutative binaries.
      if (inst->opcode() == Opcode::kAdd || inst->opcode() == Opcode::kMul ||
          inst->opcode() == Opcode::kAnd || inst->opcode() == Opcode::kOr ||
          inst->opcode() == Opcode::kXor) {
        if (key.operands[1] < key.operands[0]) {
          std::swap(key.operands[0], key.operands[1]);
        }
      }
      return key;
    }
    case Opcode::kICmp: {
      ExprKey key;
      key.opcode = Opcode::kICmp;
      key.extra = static_cast<int>(Cast<ICmpInst>(inst)->predicate());
      key.type = inst->Operand(0)->type();
      key.operands = {inst->Operand(0), inst->Operand(1)};
      return key;
    }
    default:
      return std::nullopt;
  }
}

class ScopedCse {
 public:
  explicit ScopedCse(Function& fn) : fn_(fn), dom_(fn) {}

  // Returns the number of instructions eliminated.
  uint64_t Run() {
    Visit(fn_.entry());
    return eliminated_;
  }

 private:
  // Pre-order dominator tree walk; available expressions accumulate down the
  // tree (a map snapshot per recursion level).
  void Visit(BasicBlock* block) {
    std::vector<std::pair<ExprKey, Value*>> added;
    std::map<const Value*, Value*> block_loads;  // pointer -> last value in this block

    std::vector<Instruction*> insts;
    for (auto& inst : *block) {
      insts.push_back(inst.get());
    }
    for (Instruction* inst : insts) {
      // Redundant load elimination, block-local.
      if (auto* load = DynCast<LoadInst>(inst)) {
        auto it = block_loads.find(load->pointer());
        if (it != block_loads.end() && it->second->type() == load->type()) {
          load->ReplaceAllUsesWith(it->second);
          load->EraseFromParent();
          ++eliminated_;
          continue;
        }
        block_loads[load->pointer()] = load;
        continue;
      }
      if (auto* store = DynCast<StoreInst>(inst)) {
        // Forward the stored value to later loads of the same pointer and
        // invalidate anything the store may alias.
        uint64_t size = store->value()->type()->SizeInBytes();
        for (auto it = block_loads.begin(); it != block_loads.end();) {
          if (Alias(const_cast<Value*>(it->first), it->second->type()->SizeInBytes(),
                    store->pointer(), size) != AliasResult::kNoAlias) {
            it = block_loads.erase(it);
          } else {
            ++it;
          }
        }
        block_loads[store->pointer()] = store->value();
        continue;
      }
      if (Isa<CallInst>(inst)) {
        block_loads.clear();
        continue;
      }
      auto key = KeyFor(inst);
      if (!key.has_value()) {
        continue;
      }
      auto it = available_.find(*key);
      if (it != available_.end()) {
        inst->ReplaceAllUsesWith(it->second);
        inst->EraseFromParent();
        ++eliminated_;
        continue;
      }
      available_[*key] = inst;
      added.push_back({*key, inst});
    }

    for (BasicBlock* child : dom_.Children(block)) {
      Visit(child);
    }
    for (auto& [key, value] : added) {
      available_.erase(key);
    }
  }

  Function& fn_;
  DominatorTree dom_;
  std::map<ExprKey, Value*> available_;
  uint64_t eliminated_ = 0;
};

}  // namespace

bool CsePass::RunOnFunction(Function& fn) {
  const uint64_t eliminated = ScopedCse(fn).Run();
  Count(Counter::kCseEliminated, eliminated);
  return eliminated > 0;
}

}  // namespace overify
