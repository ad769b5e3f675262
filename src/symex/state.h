// Execution states for the symbolic engine: call stack, SSA value bindings,
// path constraints, and the (copy-on-write) address space.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/ir/function.h"
#include "src/symex/memory.h"
#include "src/symex/preprocess.h"

namespace overify {

// A pointer value: which object, at what (possibly symbolic) byte offset.
// Object id 0 is the null pointer.
struct SymPointer {
  uint64_t object_id = 0;
  const Expr* offset = nullptr;  // 64-bit expr; null only for the null pointer

  bool IsNull() const { return object_id == 0; }
};

struct RuntimeValue {
  enum class Kind { kNone, kInt, kPointer };
  Kind kind = Kind::kNone;
  const Expr* expr = nullptr;
  SymPointer pointer;

  static RuntimeValue Int(const Expr* e) {
    RuntimeValue v;
    v.kind = Kind::kInt;
    v.expr = e;
    return v;
  }
  static RuntimeValue Pointer(SymPointer p) {
    RuntimeValue v;
    v.kind = Kind::kPointer;
    v.pointer = p;
    return v;
  }
};

// The module is immutable while the engine runs, so instruction-list
// iterators are stable and can be shared freely between forked states.
struct StackFrame {
  Function* fn = nullptr;
  BasicBlock* block = nullptr;
  BasicBlock* prev_block = nullptr;  // for phi resolution
  BasicBlock::iterator pc;
  // SSA bindings, indexed by each value's dense local slot (see
  // Function::AssignLocalSlots); kind == kNone marks an unbound slot. Flat
  // storage makes forking a state a straight vector copy.
  std::vector<RuntimeValue> locals;
  std::vector<uint64_t> alloca_objects;  // freed when the frame pops
  const CallInst* call_site = nullptr;   // in the caller frame
};

struct ExecState {
  uint64_t id = 0;
  // Deterministic path identity: a rolling hash of the fork decisions taken
  // along this path (root constant below; the executor mixes in a per-side
  // salt at every fork). Unlike `id`, it does not depend on scheduling
  // order, so it is identical for the same path no matter which worker ran
  // it — the canonical tie-breaker for bug-report selection.
  static constexpr uint64_t kRootPathId = 0x9e3779b97f4a7c15ULL;
  uint64_t path_id = kRootPathId;
  std::vector<StackFrame> stack;
  AddressSpace memory;
  std::vector<const Expr*> constraints;
  // The path model: one byte per input symbol (bytes beyond the end count
  // as 0) under which every member of `constraints` evaluates to 1. Each
  // branch decision reads one side's feasibility off it and asks the
  // solver only about the other (docs/engine.md).
  std::vector<uint8_t> model;
  std::vector<const Expr*> output;  // bytes written via putchar
  // Pointer-typed memory slots: pointers carry an object id and are not
  // byte-serializable, so they live beside the byte memory, keyed by
  // (object id, constant byte offset). Path-local like all memory.
  std::map<std::pair<uint64_t, uint64_t>, SymPointer> pointer_slots;
  // Incremental constraint-preprocessing summary for this path's solver
  // queries (src/symex/preprocess.h). A pure cache over `constraints`:
  // cloned with the state and kept across a steal, which detaches only its
  // interval-memo generation handle (src/sched/worker_pool.cc).
  PathPrefix solver_prefix;
  uint64_t instructions_executed = 0;
  uint64_t depth = 0;  // number of forks along this path

  StackFrame& Frame() { return stack.back(); }

  Instruction* CurrentInstruction() { return Frame().pc->get(); }
  void AdvancePC() { ++Frame().pc; }
  void JumpTo(BasicBlock* block) {
    Frame().prev_block = Frame().block;
    Frame().block = block;
    Frame().pc = block->begin();
  }

  RuntimeValue Local(const Value* v) const;
  void SetLocal(const Value* v, RuntimeValue value) {
    uint32_t slot = v->local_slot();
    OVERIFY_ASSERT(slot < Frame().locals.size(), "value has no slot in this frame");
    Frame().locals[slot] = std::move(value);
  }

  void AddConstraint(const Expr* e) { constraints.push_back(e); }

  // Forked copy (fresh id is assigned by the executor).
  std::unique_ptr<ExecState> Clone() const { return std::make_unique<ExecState>(*this); }
};

}  // namespace overify
