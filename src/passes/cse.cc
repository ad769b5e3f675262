#include "src/passes/cse.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>
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

  bool operator==(const ExprKey& other) const {
    return opcode == other.opcode && extra == other.extra && type == other.type &&
           operands == other.operands;
  }
};

struct ExprKeyHash {
  size_t operator()(const ExprKey& key) const {
    size_t h = std::hash<int>()(static_cast<int>(key.opcode)) * 31 + std::hash<int>()(key.extra);
    h = h * 31 + std::hash<const Type*>()(key.type);
    for (const Value* op : key.operands) {
      h = h * 31 + std::hash<const Value*>()(op);
    }
    return h;
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
      key.operands.assign(inst->operands().begin(), inst->operands().end());
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
    // Keys this block made available; map nodes keep their addresses.
    std::vector<const ExprKey*> added;
    // (pointer, last value loaded from or stored to it) in this block.
    std::vector<std::pair<const Value*, Value*>> block_loads;
    auto find_load = [&](const Value* pointer) {
      return std::find_if(block_loads.begin(), block_loads.end(),
                          [&](const auto& entry) { return entry.first == pointer; });
    };

    std::vector<Instruction*> insts;
    for (auto& inst : *block) {
      insts.push_back(inst.get());
    }
    for (Instruction* inst : insts) {
      // Redundant load elimination, block-local.
      if (auto* load = DynCast<LoadInst>(inst)) {
        auto it = find_load(load->pointer());
        if (it != block_loads.end() && it->second->type() == load->type()) {
          load->ReplaceAllUsesWith(it->second);
          load->EraseFromParent();
          ++eliminated_;
          continue;
        }
        if (it != block_loads.end()) {
          it->second = load;
        } else {
          block_loads.emplace_back(load->pointer(), load);
        }
        continue;
      }
      if (auto* store = DynCast<StoreInst>(inst)) {
        // Forward the stored value to later loads of the same pointer and
        // invalidate anything the store may alias.
        uint64_t size = store->value()->type()->SizeInBytes();
        block_loads.erase(
            std::remove_if(block_loads.begin(), block_loads.end(),
                           [&](const auto& entry) {
                             return Alias(const_cast<Value*>(entry.first),
                                          entry.second->type()->SizeInBytes(), store->pointer(),
                                          size) != AliasResult::kNoAlias;
                           }),
            block_loads.end());
        if (auto it = find_load(store->pointer()); it != block_loads.end()) {
          it->second = store->value();
        } else {
          block_loads.emplace_back(store->pointer(), store->value());
        }
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
      auto [it, inserted] = available_.try_emplace(std::move(*key), inst);
      if (!inserted) {
        inst->ReplaceAllUsesWith(it->second);
        inst->EraseFromParent();
        ++eliminated_;
        continue;
      }
      added.push_back(&it->first);
    }

    for (BasicBlock* child : dom_.Children(block)) {
      Visit(child);
    }
    for (const ExprKey* key : added) {
      available_.erase(available_.find(*key));
    }
  }

  Function& fn_;
  DominatorTree dom_;
  std::unordered_map<ExprKey, Value*, ExprKeyHash> available_;  // lookup only
  uint64_t eliminated_ = 0;
};

}  // namespace

bool CsePass::RunOnFunction(Function& fn) {
  const uint64_t eliminated = ScopedCse(fn).Run();
  Count(Counter::kCseEliminated, eliminated);
  return eliminated > 0;
}

}  // namespace overify
