#include "src/passes/mem2reg.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/cfg.h"
#include "src/ir/dominators.h"

namespace overify {

namespace {

// An alloca is promotable if it is a first-class scalar and only ever used
// directly by loads and stores (no GEPs, no address escapes).
bool IsPromotable(const AllocaInst* alloca) {
  if (!alloca->allocated_type()->IsFirstClass()) {
    return false;
  }
  for (const Use& use : alloca->uses()) {
    const Instruction* user = use.user;
    if (user->opcode() == Opcode::kLoad) {
      continue;
    }
    if (user->opcode() == Opcode::kStore && use.operand_index == 1) {
      continue;
    }
    return false;
  }
  return true;
}

class Promoter {
 public:
  Promoter(Function& fn, const std::vector<AllocaInst*>& allocas, DominatorTree& dom)
      : fn_(fn), allocas_(allocas), dom_(dom), ctx_(fn.parent()->context()) {}

  void Run() {
    for (size_t i = 0; i < allocas_.size(); ++i) {
      index_of_[allocas_[i]] = i;
    }
    PlacePhis();
    RenameRecursive();
    Cleanup();
  }

 private:
  // Inserts empty phis at the iterated dominance frontier of each alloca's
  // store blocks (pruned: only where the variable is live-in, approximated
  // by "has any load").
  void PlacePhis() {
    // Per-block stamps, indexed by block id: the index of the last alloca
    // that queued the block as a store block, and that placed a phi in it.
    std::vector<size_t> queued(fn_.BlockIdBound(), allocas_.size());
    std::vector<size_t> has_phi(fn_.BlockIdBound(), allocas_.size());
    for (size_t i = 0; i < allocas_.size(); ++i) {
      AllocaInst* alloca = allocas_[i];
      std::vector<BasicBlock*> worklist;
      bool has_load = false;
      for (const Use& use : alloca->uses()) {
        if (use.user->opcode() != Opcode::kStore) {
          has_load = true;
        } else if (queued[use.user->parent()->id()] != i) {
          queued[use.user->parent()->id()] = i;
          worklist.push_back(use.user->parent());
        }
      }
      if (!has_load) {
        continue;  // stores only: phis unnecessary, loads never happen
      }
      while (!worklist.empty()) {
        BasicBlock* block = worklist.back();
        worklist.pop_back();
        for (BasicBlock* frontier : dom_.DominanceFrontier(block)) {
          if (has_phi[frontier->id()] == i) {
            continue;
          }
          has_phi[frontier->id()] = i;
          auto phi = std::make_unique<PhiInst>(alloca->allocated_type());
          phi->set_name(alloca->HasName() ? alloca->name() + ".phi" : "m2r.phi");
          PhiInst* raw = phi.get();
          frontier->InsertBefore(frontier->begin(), std::move(phi));
          phi_alloca_[raw] = i;
          placed_.push_back(raw);
          worklist.push_back(frontier);
        }
      }
    }
  }

  // Depth-first walk of the dominator tree carrying the current SSA value of
  // each alloca; rewrites loads, removes stores, fills phi operands.
  void RenameRecursive() {
    std::vector<Value*> initial(allocas_.size(), nullptr);
    struct WorkItem {
      BasicBlock* block;
      std::vector<Value*> values;
    };
    std::vector<WorkItem> worklist;
    worklist.push_back(WorkItem{fn_.entry(), std::move(initial)});
    std::vector<char> visited(fn_.BlockIdBound(), 0);

    while (!worklist.empty()) {
      WorkItem item = std::move(worklist.back());
      worklist.pop_back();
      BasicBlock* block = item.block;
      if (visited[block->id()] != 0) {
        continue;
      }
      visited[block->id()] = 1;
      std::vector<Value*>& values = item.values;

      std::vector<Instruction*> to_erase;
      for (auto& inst : *block) {
        if (auto* phi = DynCast<PhiInst>(inst.get())) {
          auto it = phi_alloca_.find(phi);
          if (it != phi_alloca_.end()) {
            values[it->second] = phi;
          }
          continue;
        }
        if (auto* load = DynCast<LoadInst>(inst.get())) {
          auto* alloca = DynCast<AllocaInst>(load->pointer());
          if (alloca == nullptr || index_of_.count(alloca) == 0) {
            continue;
          }
          size_t index = index_of_[alloca];
          Value* current = values[index];
          if (current == nullptr) {
            // Load before any store: undefined value.
            current = ctx_.GetUndef(alloca->allocated_type());
          }
          load->ReplaceAllUsesWith(current);
          to_erase.push_back(load);
          continue;
        }
        if (auto* store = DynCast<StoreInst>(inst.get())) {
          auto* alloca = DynCast<AllocaInst>(store->pointer());
          if (alloca == nullptr || index_of_.count(alloca) == 0) {
            continue;
          }
          values[index_of_[alloca]] = store->value();
          to_erase.push_back(store);
          continue;
        }
      }
      for (Instruction* inst : to_erase) {
        inst->EraseFromParent();
      }

      // Fill phi incomings of successors.
      for (BasicBlock* succ : block->Successors()) {
        for (PhiInst* phi : succ->Phis()) {
          auto it = phi_alloca_.find(phi);
          if (it == phi_alloca_.end()) {
            continue;
          }
          Value* incoming = values[it->second];
          if (incoming == nullptr) {
            incoming = ctx_.GetUndef(phi->type());
          }
          if (phi->IncomingIndexFor(block) < 0) {
            phi->AddIncoming(incoming, block);
          }
        }
      }

      // Recurse into dominator-tree children with a copy of the value state.
      // Note: the CFG walk must follow successors for phi filling (done
      // above); renaming state propagates along the dominator tree.
      for (BasicBlock* child : dom_.Children(block)) {
        worklist.push_back(WorkItem{child, values});
      }
    }
  }

  void Cleanup() {
    for (AllocaInst* alloca : allocas_) {
      OVERIFY_ASSERT(!alloca->HasUses(), "promoted alloca still has uses");
      alloca->EraseFromParent();
    }
    // Remove placed phis that ended up dead. Liveness must be computed as a
    // closure because loop-carried phis can form use cycles among
    // themselves (phi A feeding phi B feeding phi A) with no real consumer.
    std::unordered_set<const PhiInst*> live;  // membership only
    std::vector<PhiInst*> worklist;
    for (PhiInst* phi : placed_) {
      for (const Use& use : phi->uses()) {
        auto* user_phi = DynCast<PhiInst>(use.user);
        if (user_phi == nullptr || phi_alloca_.count(user_phi) == 0) {
          if (live.insert(phi).second) {
            worklist.push_back(phi);
          }
          break;
        }
      }
    }
    while (!worklist.empty()) {
      PhiInst* phi = worklist.back();
      worklist.pop_back();
      for (Value* op : phi->operands()) {
        auto* op_phi = DynCast<PhiInst>(op);
        if (op_phi != nullptr && phi_alloca_.count(op_phi) != 0 && live.insert(op_phi).second) {
          worklist.push_back(op_phi);
        }
      }
    }
    std::vector<PhiInst*> dead;
    for (PhiInst* phi : placed_) {
      if (live.count(phi) == 0) {
        dead.push_back(phi);
      }
    }
    for (PhiInst* phi : dead) {
      while (phi->NumIncoming() > 0) {
        phi->RemoveIncoming(0);
      }
    }
    for (PhiInst* phi : dead) {
      phi->EraseFromParent();
    }
  }

  Function& fn_;
  const std::vector<AllocaInst*>& allocas_;
  DominatorTree& dom_;
  IRContext& ctx_;
  // Lookup only: never iterated, so their address order cannot leak.
  std::unordered_map<const AllocaInst*, size_t> index_of_;
  std::unordered_map<const PhiInst*, size_t> phi_alloca_;
  std::vector<PhiInst*> placed_;  // phi_alloca_'s keys, in placement order
};

}  // namespace

bool Mem2RegPass::RunOnFunction(Function& fn) {
  // Unreachable blocks would never be renamed; drop them first so promoted
  // allocas cannot retain uses there.
  RemoveUnreachableBlocks(fn);
  std::vector<AllocaInst*> promotable;
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (auto* alloca = DynCast<AllocaInst>(inst.get())) {
        if (IsPromotable(alloca)) {
          promotable.push_back(alloca);
        }
      }
    }
  }
  if (promotable.empty()) {
    return false;
  }
  DominatorTree dom(fn);
  Promoter(fn, promotable, dom).Run();
  Count(Counter::kMem2RegPromotedAllocas, promotable.size());
  return true;
}

}  // namespace overify
