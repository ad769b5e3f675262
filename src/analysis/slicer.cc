#include "src/analysis/slicer.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "src/analysis/dependence_graph.h"
#include "src/ir/cfg.h"
#include "src/ir/cloning.h"
#include "src/ir/constant.h"
#include "src/ir/context.h"
#include "src/ir/verifier.h"

namespace overify {

namespace {

// How much of an instruction the cone needs. Gate mode keeps only what the
// instruction's own trap condition depends on (a load/store's address);
// full mode also keeps the produced/stored value and its memory sources.
enum class Need { kGate, kFull };

Constant* ZeroOf(IRContext& ctx, Type* type) {
  return type->IsPointer() ? static_cast<Constant*>(ctx.GetNull(type))
                           : static_cast<Constant*>(ctx.GetInt(type, 0));
}

// Appends `ret 0` (typed to the function's return type) to `block` after
// erasing its current terminator. Returns the new terminator.
Instruction* ReplaceTerminatorWithRet(IRContext& ctx, Function* fn, BasicBlock* block) {
  block->Erase(block->Terminator());
  auto ret = fn->return_type()->IsVoid()
                 ? std::make_unique<RetInst>(ctx)
                 : std::make_unique<RetInst>(ctx, ZeroOf(ctx, fn->return_type()));
  Instruction* raw = ret.get();
  block->Append(std::move(ret));
  return raw;
}

}  // namespace

Slicer::Slicer(Module& module, Function* entry) : module_(module), entry_(entry) {}

SliceResult Slicer::Run() {
  SliceResult result;
  if (entry_ == nullptr || entry_->IsDeclaration()) {
    result.error = "no entry function body to slice";
    return result;
  }

  CallGraph call_graph(module_);
  ModRefSummaries summaries(module_, call_graph);
  DependenceGraph dg(*entry_, call_graph, summaries);
  if (!dg.ok()) {
    result.error = dg.error();
    return result;
  }

  const std::vector<Instruction*>& insts = dg.Instructions();
  const std::vector<Instruction*>& traps = dg.TrapSites();
  result.checks_found = traps.size();
  result.entry_instructions = insts.size();
  if (traps.empty()) {
    result.ok = true;  // nothing can trap: nothing to verify
    return result;
  }

  // Keep-set per criterion: every trap that can execute before it (or is it).
  // Criteria with the same keep-set share a slice; keep-sets strictly
  // contained in another are subsumed by the larger slice.
  std::map<std::vector<unsigned>, std::vector<const Instruction*>> groups;
  for (Instruction* criterion : traps) {
    std::vector<unsigned> keep;
    for (Instruction* trap : traps) {
      if (trap == criterion || dg.CanExecuteBefore(trap, criterion)) {
        keep.push_back(dg.IndexOf(trap));
      }
    }
    groups[keep].push_back(criterion);
  }
  std::vector<std::vector<unsigned>> keep_sets;
  for (const auto& [keep, criteria] : groups) {
    (void)criteria;
    keep_sets.push_back(keep);
  }
  auto is_subset = [](const std::vector<unsigned>& a, const std::vector<unsigned>& b) {
    return a.size() < b.size() && std::includes(b.begin(), b.end(), a.begin(), a.end());
  };
  std::vector<std::vector<unsigned>> maximal;
  for (const auto& keep : keep_sets) {
    bool subsumed = false;
    for (const auto& other : keep_sets) {
      if (is_subset(keep, other)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) {
      maximal.push_back(keep);
    }
  }

  IRContext& ctx = module_.context();
  const PostDominatorTree& pdt = dg.post_dominators();

  for (const auto& keep : maximal) {
    // ---- Cone closure over data, control, and memory dependences.
    std::map<unsigned, Need> need;
    std::vector<unsigned> worklist;
    auto add = [&](const Instruction* inst, Need n) {
      if (!dg.Covers(inst)) {
        return;  // constants/arguments/unreachable code terminate the walk
      }
      unsigned idx = dg.IndexOf(inst);
      auto it = need.find(idx);
      if (it != need.end() && (it->second == Need::kFull || n == Need::kGate)) {
        return;
      }
      need[idx] = n;
      worklist.push_back(idx);
    };
    auto add_value = [&](Value* v, Need n) {
      if (auto* inst = DynCast<Instruction>(v)) {
        add(inst, n);
      }
    };
    for (unsigned idx : keep) {
      Instruction* trap = insts[idx];
      Opcode op = trap->opcode();
      add(trap, (op == Opcode::kLoad || op == Opcode::kStore) ? Need::kGate
                                                              : Need::kFull);
    }
    while (!worklist.empty()) {
      unsigned idx = worklist.back();
      worklist.pop_back();
      Instruction* inst = insts[idx];
      Need mode = need.at(idx);
      for (Instruction* branch : dg.ControllingBranches(inst)) {
        add(branch, Need::kFull);
      }
      switch (inst->opcode()) {
        case Opcode::kLoad:
          add_value(inst->Operand(0), Need::kFull);
          if (mode == Need::kFull) {
            for (Instruction* def : dg.MemoryDepsOfLoad(inst)) {
              add(def, Need::kFull);
            }
          }
          break;
        case Opcode::kStore:
          add_value(inst->Operand(1), Need::kFull);
          if (mode == Need::kFull) {
            add_value(inst->Operand(0), Need::kFull);
          }
          break;
        case Opcode::kCall:
          for (unsigned i = 0; i < inst->NumOperands(); ++i) {
            add_value(inst->Operand(i), Need::kFull);
          }
          for (Instruction* def : dg.MemoryDepsOfCall(inst)) {
            add(def, Need::kFull);
          }
          break;
        case Opcode::kPhi: {
          const auto* phi = Cast<PhiInst>(inst);
          for (unsigned i = 0; i < phi->NumIncoming(); ++i) {
            add_value(phi->IncomingValue(i), Need::kFull);
            add(phi->IncomingBlock(i)->Terminator(), Need::kFull);
          }
          break;
        }
        default:
          for (unsigned i = 0; i < inst->NumOperands(); ++i) {
            add_value(inst->Operand(i), Need::kFull);
          }
          break;
      }
    }

    // ---- Extraction: clone the entry, then reduce to the cone.
    std::vector<Type*> param_types;
    for (unsigned i = 0; i < entry_->NumArgs(); ++i) {
      param_types.push_back(entry_->Arg(i)->type());
    }
    Function* slice_fn = module_.CreateFunction(
        entry_->name() + ".slice." + std::to_string(result.slices.size()),
        entry_->return_type(), param_types);
    CloneMapping mapping;
    for (unsigned i = 0; i < entry_->NumArgs(); ++i) {
      mapping.values[entry_->Arg(i)] = slice_fn->Arg(i);
    }
    CloneBlocksInto(entry_->BlockList(), slice_fn, "", mapping);
    // Slice instruction -> original, kept current as terminators are
    // replaced. Read back only for instructions still in the slice once
    // reduction is done: erased clones leave stale keys whose addresses a
    // later allocation may reuse, so no key is ever dereferenced or trusted
    // on its own.
    std::unordered_map<const Instruction*, const Instruction*> origin;
    for (const auto& [orig, clone] : mapping.values) {
      if (const auto* orig_inst = DynCast<Instruction>(orig)) {
        origin[Cast<Instruction>(clone)] = orig_inst;
      }
    }

    auto clone_of = [&](Instruction* orig) {
      return Cast<Instruction>(mapping.values.at(orig));
    };
    auto in_cone = [&](unsigned idx) { return need.count(idx) != 0; };
    std::set<unsigned> kept_traps(keep.begin(), keep.end());

    // Rewrite terminators first (collapsing a branch drops its condition
    // use), then null out gate-only operands, then erase non-cone bodies.
    std::vector<Instruction*> to_erase;
    for (unsigned idx = 0; idx < insts.size(); ++idx) {
      Instruction* orig = insts[idx];
      Instruction* clone = clone_of(orig);
      switch (orig->opcode()) {
        case Opcode::kBr: {
          auto* branch = Cast<BranchInst>(clone);
          if (!branch->IsConditional() || in_cone(idx)) {
            break;
          }
          BasicBlock* join = pdt.ImmediatePostDominator(orig->parent());
          if (join == nullptr) {
            // Both arms leave the function with no common join: end the
            // path benignly.
            origin[ReplaceTerminatorWithRet(ctx, slice_fn, clone->parent())] = orig;
          } else {
            branch->MakeUnconditional(mapping.Lookup(join));
          }
          break;
        }
        case Opcode::kUnreachable:
          if (kept_traps.count(idx) == 0) {
            // Not a kept trap: reaching it must not re-introduce a bug the
            // criterion's slice does not own.
            origin[ReplaceTerminatorWithRet(ctx, slice_fn, clone->parent())] = orig;
          }
          break;
        case Opcode::kRet: {
          auto* ret = Cast<RetInst>(clone);
          if (ret->HasValue()) {
            auto* def = DynCast<Instruction>(ret->value());
            if (def != nullptr && (!dg.Covers(def) || !in_cone(dg.IndexOf(def)))) {
              ret->SetOperand(0, ZeroOf(ctx, ret->value()->type()));
            }
          }
          break;
        }
        case Opcode::kStore:
          if (in_cone(idx) && need.at(idx) == Need::kGate) {
            // Gate-only store: the address decides the trap; the stored
            // value is never read by anything kept.
            clone->SetOperand(0, ZeroOf(ctx, clone->Operand(0)->type()));
          } else if (!in_cone(idx)) {
            to_erase.push_back(clone);
          }
          break;
        default:
          if (!orig->IsTerminator() && !in_cone(idx)) {
            to_erase.push_back(clone);
          }
          break;
      }
    }
    for (Instruction* clone : to_erase) {
      if (!clone->type()->IsVoid()) {
        clone->ReplaceAllUsesWith(ctx.GetUndef(clone->type()));
      }
    }
    for (Instruction* clone : to_erase) {
      clone->parent()->Erase(clone);
    }
    RemoveUnreachableBlocks(*slice_fn);

    std::vector<std::string> violations = VerifyFunction(*slice_fn);
    if (!violations.empty()) {
      // Strict conservatism: a malformed slice aborts slice mode entirely.
      result.error = "slice '" + slice_fn->name() +
                     "' failed IR verification: " + violations.front();
      module_.EraseFunction(slice_fn);
      EraseSlices(module_, result);
      result.ok = false;
      return result;
    }

    Slice slice;
    slice.fn = slice_fn;
    for (const auto& [group_keep, criteria] : groups) {
      // Every criterion whose keep-set this maximal set contains is covered.
      if (group_keep == keep ||
          std::includes(keep.begin(), keep.end(), group_keep.begin(), group_keep.end())) {
        slice.criteria.insert(slice.criteria.end(), criteria.begin(), criteria.end());
      }
    }
    slice.instructions = slice_fn->InstructionCount();
    for (BasicBlock& block : *slice_fn) {
      for (const auto& inst : block) {
        result.to_original[inst.get()] = origin.at(inst.get());
      }
    }
    result.slices.push_back(slice);
  }

  result.ok = true;
  return result;
}

void Slicer::EraseSlices(Module& module, SliceResult& result) {
  for (Slice& slice : result.slices) {
    if (slice.fn != nullptr) {
      module.EraseFunction(slice.fn);
      slice.fn = nullptr;
    }
  }
  result.slices.clear();
  result.to_original.clear();
}

}  // namespace overify
