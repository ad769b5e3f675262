#include "src/passes/sroa.h"

#include <map>
#include <tuple>
#include <vector>


namespace overify {

namespace {

// Byte offset of a fully-constant gep from its base (declared early for the
// overlap check below).
uint64_t GepByteOffsetOf(const GepInst* gep);

// An aggregate alloca is splittable when every use is a GEP with all-constant
// indices whose first index is 0, resolving to a first-class element, each
// such GEP is used only by loads and stores, and no two access paths
// partially overlap (identical paths are fine; they share one scalar).
bool IsSplittable(const AllocaInst* alloca) {
  Type* type = alloca->allocated_type();
  if (!type->IsArray() && !type->IsStruct()) {
    return false;
  }
  for (const Use& use : alloca->uses()) {
    const auto* gep = DynCast<GepInst>(use.user);
    if (gep == nullptr || gep->base() != alloca) {
      return false;
    }
    const auto* first = DynCast<ConstantInt>(gep->Index(0));
    if (first == nullptr || !first->IsZero()) {
      return false;
    }
    for (unsigned i = 1; i < gep->NumIndices(); ++i) {
      if (!Isa<ConstantInt>(gep->Index(i))) {
        return false;
      }
    }
    if (!gep->type()->pointee()->IsFirstClass()) {
      return false;
    }
    for (const Use& gep_use : gep->uses()) {
      const Instruction* user = gep_use.user;
      bool ok = user->opcode() == Opcode::kLoad ||
                (user->opcode() == Opcode::kStore && gep_use.operand_index == 1);
      if (!ok) {
        return false;
      }
    }
  }
  // Overlap check: distinct access paths must be byte-disjoint.
  std::vector<std::tuple<uint64_t, uint64_t, Type*>> accesses;  // offset, size, type
  for (const Use& use : alloca->uses()) {
    const auto* gep = Cast<GepInst>(use.user);
    Type* elem = gep->type()->pointee();
    accesses.push_back({GepByteOffsetOf(gep), elem->SizeInBytes(), elem});
  }
  for (size_t i = 0; i < accesses.size(); ++i) {
    for (size_t j = i + 1; j < accesses.size(); ++j) {
      auto& [ao, asz, at] = accesses[i];
      auto& [bo, bsz, bt] = accesses[j];
      bool identical = ao == bo && at == bt;
      bool disjoint = ao + asz <= bo || bo + bsz <= ao;
      if (!identical && !disjoint) {
        return false;
      }
    }
  }
  return true;
}

// Byte offset of a fully-constant gep from its base.
uint64_t GepByteOffsetOf(const GepInst* gep) {
  uint64_t offset = 0;
  Type* current = gep->source_type();
  for (unsigned i = 1; i < gep->NumIndices(); ++i) {
    uint64_t index = Cast<ConstantInt>(gep->Index(i))->value();
    if (current->IsArray()) {
      current = current->element();
      offset += index * current->SizeInBytes();
    } else {
      offset += current->FieldOffset(static_cast<unsigned>(index));
      current = current->fields()[static_cast<unsigned>(index)];
    }
  }
  return offset;
}

void Split(Function& fn, AllocaInst* alloca) {
  IRContext& ctx = fn.parent()->context();
  // One scalar alloca per distinct (offset, element type) access path.
  std::map<std::pair<uint64_t, Type*>, Value*> elements;
  std::vector<GepInst*> geps;
  for (const Use& use : alloca->uses()) {
    geps.push_back(Cast<GepInst>(use.user));
  }
  for (GepInst* gep : geps) {
    Type* elem_type = gep->type()->pointee();
    uint64_t offset = GepByteOffsetOf(gep);
    auto key = std::make_pair(offset, elem_type);
    auto it = elements.find(key);
    Value* scalar;
    if (it != elements.end()) {
      scalar = it->second;
    } else {
      auto fresh = std::make_unique<AllocaInst>(ctx, elem_type);
      fresh->set_name(alloca->HasName()
                          ? alloca->name() + "." + std::to_string(offset)
                          : "sroa." + std::to_string(offset));
      scalar = alloca->parent()->InsertBefore(alloca, std::move(fresh));
      elements[key] = scalar;
    }
    gep->ReplaceAllUsesWith(scalar);
    gep->EraseFromParent();
  }
  alloca->EraseFromParent();
}

}  // namespace

bool SroaPass::RunOnFunction(Function& fn) {
  std::vector<AllocaInst*> candidates;
  for (BasicBlock& block : fn) {
    for (auto& inst : block) {
      if (auto* alloca = DynCast<AllocaInst>(inst.get())) {
        if (IsSplittable(alloca)) {
          candidates.push_back(alloca);
        }
      }
    }
  }
  for (AllocaInst* alloca : candidates) {
    Split(fn, alloca);
    Count(Counter::kSroaSplitAllocas);
  }
  return !candidates.empty();
}

}  // namespace overify
