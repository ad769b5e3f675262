// VIR instructions.
//
// One flat Opcode enum with thin subclasses carrying per-opcode extras.
// Operands are data values only; control-flow targets (branch destinations,
// phi incoming blocks) are stored out-of-band so use-lists stay purely
// data-flow, which keeps ReplaceAllUsesWith and dead-code queries simple.
#pragma once

#include <list>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/type.h"
#include "src/ir/value.h"

namespace overify {

class BasicBlock;
class Function;
class IRContext;

enum class Opcode {
  kAlloca,
  kLoad,
  kStore,
  kGep,
  // Binary arithmetic/bitwise. Keep contiguous: BinaryInst::ClassOf uses the range.
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kURem,
  kSRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  kICmp,
  kSelect,
  // Casts. Keep contiguous.
  kZExt,
  kSExt,
  kTrunc,
  kCall,
  kPhi,
  kCheck,
  // Terminators. Keep contiguous.
  kBr,
  kRet,
  kUnreachable,
};

const char* OpcodeName(Opcode opcode);

enum class ICmpPredicate {
  kEq,
  kNe,
  kULT,
  kULE,
  kUGT,
  kUGE,
  kSLT,
  kSLE,
  kSGT,
  kSGE,
};

const char* PredicateName(ICmpPredicate pred);
// The predicate P' with P'(a,b) == P(b,a).
ICmpPredicate SwapPredicate(ICmpPredicate pred);
// The predicate P' with P'(a,b) == !P(a,b).
ICmpPredicate InvertPredicate(ICmpPredicate pred);
bool IsSignedPredicate(ICmpPredicate pred);

enum class CheckKind {
  kAssert,      // user-level __check()
  kBounds,      // memory access in range
  kDivByZero,   // divisor non-zero
  kOverflow,    // arithmetic did not wrap
  kNullDeref,   // pointer non-null
  kShift,       // shift amount < bit width
};

const char* CheckKindName(CheckKind kind);

class Instruction : public Value {
 public:
  ~Instruction() override;

  Opcode opcode() const { return opcode_; }

  size_t NumOperands() const { return operands_.size(); }
  Value* Operand(unsigned i) const {
    OVERIFY_ASSERT(i < operands_.size(), "operand index out of range");
    return operands_[i];
  }
  const std::vector<Value*>& operands() const { return operands_; }
  void SetOperand(unsigned i, Value* value);

  BasicBlock* parent() const { return parent_; }
  Function* ParentFunction() const;

  bool IsTerminator() const { return opcode_ >= Opcode::kBr; }
  bool IsBinaryOp() const { return opcode_ >= Opcode::kAdd && opcode_ <= Opcode::kAShr; }
  bool IsCast() const { return opcode_ >= Opcode::kZExt && opcode_ <= Opcode::kTrunc; }
  // True if the instruction writes memory, transfers control, or otherwise
  // cannot be erased just because its result is unused.
  bool HasSideEffects() const;
  // True if the instruction can be speculatively executed on a path where it
  // was originally guarded by a branch (no side effects, no traps, no loads).
  bool IsSafeToSpeculate() const;
  // Like IsSafeToSpeculate but permits loads; used where the dominating
  // context guarantees the address stays dereferenceable.
  bool IsSpeculatableOrLoad() const;

  // Detaches this instruction from its block and destroys it.
  // The instruction must have no remaining uses.
  void EraseFromParent();
  // Detaches without destroying; caller receives ownership.
  std::unique_ptr<Instruction> RemoveFromParent();
  // Clears every operand, dropping its use record, as destruction would.
  void DropAllOperands();

  // Creates an un-parented copy of this instruction with the same operands.
  // Phi incoming blocks and branch targets are copied verbatim; callers remap
  // them via the cloning utilities.
  std::unique_ptr<Instruction> Clone(IRContext& ctx) const;

  static bool ClassOf(const Value* v) { return v->value_kind() == ValueKind::kInstruction; }

 protected:
  Instruction(Opcode opcode, Type* type, std::vector<Value*> operands);

  // Raw operand storage for subclasses that grow/shrink their operand list
  // (phi incoming edges, branch condition removal). Callers must keep
  // use-lists consistent.
  std::vector<Value*>& operands_ref() { return operands_; }
  // Drops the use record of operand `i` prior to removing it from the list.
  void UnregisterOperandUse(unsigned i) { operands_[i]->RemoveUse(this, i); }

 private:
  friend class BasicBlock;

  Opcode opcode_;
  std::vector<Value*> operands_;
  BasicBlock* parent_ = nullptr;
  std::list<std::unique_ptr<Instruction>>::iterator self_;
};

// `%p = alloca T` — reserves stack storage for one T; result type T*.
class AllocaInst : public Instruction {
 public:
  AllocaInst(IRContext& ctx, Type* allocated_type);

  Type* allocated_type() const { return allocated_type_; }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kAlloca;
  }

 private:
  Type* allocated_type_;
};

class LoadInst : public Instruction {
 public:
  explicit LoadInst(Value* pointer);

  Value* pointer() const { return Operand(0); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kLoad;
  }
};

class StoreInst : public Instruction {
 public:
  StoreInst(IRContext& ctx, Value* value, Value* pointer);

  Value* value() const { return Operand(0); }
  Value* pointer() const { return Operand(1); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kStore;
  }
};

// `%q = gep T, %p, i0, i1, ...` — classic LLVM getelementptr: the first index
// steps over whole T objects; later indices walk into arrays and structs.
// Struct field indices must be ConstantInt.
class GepInst : public Instruction {
 public:
  GepInst(IRContext& ctx, Type* source_type, Value* base, std::vector<Value*> indices);

  Type* source_type() const { return source_type_; }
  Value* base() const { return Operand(0); }
  size_t NumIndices() const { return NumOperands() - 1; }
  Value* Index(unsigned i) const { return Operand(i + 1); }

  // The element type the full index list resolves to (result is pointer to it).
  static Type* ResolveType(Type* source_type, const std::vector<Value*>& indices);

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kGep;
  }

 private:
  Type* source_type_;
};

class BinaryInst : public Instruction {
 public:
  BinaryInst(Opcode opcode, Value* lhs, Value* rhs);

  Value* lhs() const { return Operand(0); }
  Value* rhs() const { return Operand(1); }

  static bool ClassOf(const Value* v) {
    if (!Instruction::ClassOf(v)) {
      return false;
    }
    return static_cast<const Instruction*>(v)->IsBinaryOp();
  }
};

class ICmpInst : public Instruction {
 public:
  ICmpInst(IRContext& ctx, ICmpPredicate pred, Value* lhs, Value* rhs);

  ICmpPredicate predicate() const { return predicate_; }
  void set_predicate(ICmpPredicate pred) { predicate_ = pred; }
  Value* lhs() const { return Operand(0); }
  Value* rhs() const { return Operand(1); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kICmp;
  }

 private:
  ICmpPredicate predicate_;
};

class SelectInst : public Instruction {
 public:
  SelectInst(Value* cond, Value* true_value, Value* false_value);

  Value* condition() const { return Operand(0); }
  Value* true_value() const { return Operand(1); }
  Value* false_value() const { return Operand(2); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kSelect;
  }
};

class CastInst : public Instruction {
 public:
  CastInst(Opcode opcode, Value* value, Type* dest_type);

  Value* value() const { return Operand(0); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->IsCast();
  }
};

class CallInst : public Instruction {
 public:
  CallInst(Function* callee, std::vector<Value*> args);

  Function* callee() const { return callee_; }
  void set_callee(Function* callee) { callee_ = callee; }
  size_t NumArgs() const { return NumOperands(); }
  Value* Arg(unsigned i) const { return Operand(i); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kCall;
  }

 private:
  Function* callee_;
};

class PhiInst : public Instruction {
 public:
  explicit PhiInst(Type* type);

  size_t NumIncoming() const { return NumOperands(); }
  Value* IncomingValue(unsigned i) const { return Operand(i); }
  BasicBlock* IncomingBlock(unsigned i) const { return incoming_blocks_[i]; }
  void AddIncoming(Value* value, BasicBlock* block);
  // Returns the incoming value for `block`; asserts the block is present.
  Value* IncomingValueFor(const BasicBlock* block) const;
  // Returns -1 if absent.
  int IncomingIndexFor(const BasicBlock* block) const;
  void RemoveIncoming(unsigned i);
  void ReplaceIncomingBlock(BasicBlock* from, BasicBlock* to);

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kPhi;
  }

 private:
  friend class Instruction;
  std::vector<BasicBlock*> incoming_blocks_;
};

// `check cond, kind, "message"` — verification-oriented runtime check: traps
// (reports a bug) if cond is false, otherwise falls through.
class CheckInst : public Instruction {
 public:
  CheckInst(IRContext& ctx, Value* cond, CheckKind check_kind, std::string message);

  Value* condition() const { return Operand(0); }
  CheckKind check_kind() const { return check_kind_; }
  const std::string& message() const { return message_; }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kCheck;
  }

 private:
  friend class Instruction;
  CheckKind check_kind_;
  std::string message_;
};

class BranchInst : public Instruction {
 public:
  // Unconditional branch.
  BranchInst(IRContext& ctx, BasicBlock* dest);
  // Conditional branch.
  BranchInst(IRContext& ctx, Value* cond, BasicBlock* true_dest, BasicBlock* false_dest);

  bool IsConditional() const { return NumOperands() == 1; }
  Value* condition() const {
    OVERIFY_ASSERT(IsConditional(), "condition() on unconditional branch");
    return Operand(0);
  }
  BasicBlock* true_dest() const { return true_dest_; }
  BasicBlock* false_dest() const { return false_dest_; }
  BasicBlock* SingleDest() const {
    OVERIFY_ASSERT(!IsConditional(), "SingleDest() on conditional branch");
    return true_dest_;
  }
  void SetDest(unsigned i, BasicBlock* dest);
  // Rewrites this conditional branch into an unconditional one to `dest`.
  void MakeUnconditional(BasicBlock* dest);

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kBr;
  }

 private:
  friend class Instruction;
  BasicBlock* true_dest_;
  BasicBlock* false_dest_;  // null for unconditional branches
};

class RetInst : public Instruction {
 public:
  // `ret void`
  explicit RetInst(IRContext& ctx);
  // `ret %value`
  RetInst(IRContext& ctx, Value* value);

  bool HasValue() const { return NumOperands() == 1; }
  Value* value() const { return Operand(0); }

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) && static_cast<const Instruction*>(v)->opcode() == Opcode::kRet;
  }
};

class UnreachableInst : public Instruction {
 public:
  explicit UnreachableInst(IRContext& ctx);

  static bool ClassOf(const Value* v) {
    return Instruction::ClassOf(v) &&
           static_cast<const Instruction*>(v)->opcode() == Opcode::kUnreachable;
  }
};

}  // namespace overify
