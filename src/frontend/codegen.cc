#include "src/frontend/codegen.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/frontend/ast.h"
#include "src/frontend/lexer.h"
#include "src/frontend/parser.h"
#include "src/ir/irbuilder.h"
#include "src/ir/cfg.h"
#include "src/support/string_utils.h"

namespace overify {

namespace {

// An rvalue with its C type.
struct TypedValue {
  Value* value = nullptr;
  CType* type = nullptr;
};

// An lvalue: address plus the C type of the object at that address.
struct LValue {
  Value* address = nullptr;
  CType* type = nullptr;
};

struct FunctionInfo {
  Function* fn = nullptr;
  CType* return_type = nullptr;
  std::vector<CType*> params;
  bool defined = false;
};

class Codegen {
 public:
  Codegen(Module& module, CTypeContext& ctypes, DiagnosticEngine& diags)
      : module_(module), ctypes_(ctypes), diags_(diags), builder_(module) {}

  bool CompileUnit(const CTranslationUnit& unit, bool is_libc) {
    for (const auto& global : unit.globals) {
      EmitGlobal(*global);
    }
    // Declare all functions first so any order of definition works.
    for (const auto& fn : unit.functions) {
      DeclareFunction(*fn, is_libc);
    }
    for (const auto& fn : unit.functions) {
      if (fn->body != nullptr && !diags_.HasErrors()) {
        EmitFunction(*fn);
      }
    }
    return !diags_.HasErrors();
  }

 private:
  void Error(SourceLoc loc, const std::string& message) {
    if (!diags_.HasErrors()) {
      diags_.Error(loc, message);
    }
  }

  // ---- Types ----

  Type* IrTypeOf(CType* type) {
    IRContext& ctx = module_.context();
    switch (type->kind()) {
      case CTypeKind::kVoid:
        return ctx.VoidTy();
      case CTypeKind::kChar:
      case CTypeKind::kUChar:
        return ctx.I8();
      case CTypeKind::kInt:
      case CTypeKind::kUInt:
        return ctx.I32();
      case CTypeKind::kLong:
      case CTypeKind::kULong:
        return ctx.I64();
      case CTypeKind::kPointer:
        return ctx.PtrTy(IrTypeOf(type->pointee()));
      case CTypeKind::kArray:
        return ctx.ArrayTy(IrTypeOf(type->element()), type->array_count());
    }
    OVERIFY_UNREACHABLE("bad CType");
  }

  // Integer promotion: char/uchar promote to int.
  CType* Promote(CType* type) {
    if (type->kind() == CTypeKind::kChar || type->kind() == CTypeKind::kUChar) {
      return ctypes_.Int();
    }
    return type;
  }

  CType* CommonArithType(CType* a, CType* b) {
    a = Promote(a);
    b = Promote(b);
    if (a == b) {
      return a;
    }
    if (a->Rank() != b->Rank()) {
      CType* wider = a->Rank() > b->Rank() ? a : b;
      CType* narrower = a->Rank() > b->Rank() ? b : a;
      // If the wider type is unsigned, or it can represent all values of the
      // narrower (true here since widths strictly increase with rank), use
      // the wider type's signedness.
      (void)narrower;
      return wider;
    }
    // Same rank, different signedness: unsigned wins.
    return a->IsSigned() ? b : a;
  }

  Value* ConvertValue(SourceLoc loc, TypedValue from, CType* to) {
    if (from.type == to) {
      return from.value;
    }
    if (from.type->IsInteger() && to->IsInteger()) {
      unsigned from_bits = from.type->BitWidth();
      unsigned to_bits = to->BitWidth();
      if (from_bits == to_bits) {
        return from.value;  // same representation; signedness is a C-level fact
      }
      if (from_bits < to_bits) {
        return builder_.CreateCast(from.type->IsSigned() ? Opcode::kSExt : Opcode::kZExt,
                                   from.value, module_.context().IntTy(to_bits));
      }
      return builder_.CreateCast(Opcode::kTrunc, from.value, module_.context().IntTy(to_bits));
    }
    if (from.type->IsPointer() && to->IsPointer()) {
      // MiniC permits pointer conversions only between identically-laid-out
      // pointees (e.g. char* <-> unsigned char*).
      if (IrTypeOf(from.type) == IrTypeOf(to)) {
        return from.value;
      }
      Error(loc, StrFormat("cannot convert %s to %s", from.type->ToString().c_str(),
                           to->ToString().c_str()));
      return module_.context().GetUndef(IrTypeOf(to));
    }
    if (from.type->IsInteger() && to->IsPointer()) {
      // Only the null constant converts implicitly.
      if (const auto* c = DynCast<ConstantInt>(from.value)) {
        if (c->IsZero()) {
          return module_.context().GetNull(IrTypeOf(to));
        }
      }
      Error(loc, "cannot convert integer to pointer");
      return module_.context().GetUndef(IrTypeOf(to));
    }
    Error(loc, StrFormat("cannot convert %s to %s", from.type->ToString().c_str(),
                         to->ToString().c_str()));
    return module_.context().GetUndef(IrTypeOf(to));
  }

  // ---- Globals ----

  std::optional<int64_t> EvalConst(const CExpr& expr) {
    switch (expr.kind) {
      case CExprKind::kIntLit:
        return expr.int_value;
      case CExprKind::kSizeof:
        return static_cast<int64_t>(IrTypeOf(expr.sizeof_type)->SizeInBytes());
      case CExprKind::kUnary: {
        auto inner = EvalConst(*expr.children[0]);
        if (!inner.has_value()) {
          return std::nullopt;
        }
        switch (expr.unary_op) {
          case '-':
            return -*inner;
          case '~':
            return ~*inner;
          case '!':
            return *inner == 0 ? 1 : 0;
          default:
            return std::nullopt;
        }
      }
      case CExprKind::kBinary: {
        auto lhs = EvalConst(*expr.children[0]);
        auto rhs = EvalConst(*expr.children[1]);
        if (!lhs.has_value() || !rhs.has_value()) {
          return std::nullopt;
        }
        switch (expr.op) {
          case TokKind::kPlus:
            return *lhs + *rhs;
          case TokKind::kMinus:
            return *lhs - *rhs;
          case TokKind::kStar:
            return *lhs * *rhs;
          case TokKind::kSlash:
            return *rhs == 0 ? std::optional<int64_t>() : *lhs / *rhs;
          case TokKind::kPercent:
            return *rhs == 0 ? std::optional<int64_t>() : *lhs % *rhs;
          case TokKind::kShl:
            return *lhs << (*rhs & 63);
          case TokKind::kShr:
            return *lhs >> (*rhs & 63);
          case TokKind::kAmp:
            return *lhs & *rhs;
          case TokKind::kPipe:
            return *lhs | *rhs;
          case TokKind::kCaret:
            return *lhs ^ *rhs;
          default:
            return std::nullopt;
        }
      }
      case CExprKind::kCast:
        return EvalConst(*expr.children[0]);
      default:
        return std::nullopt;
    }
  }

  void SerializeInt(std::vector<uint8_t>& bytes, int64_t value, unsigned size) {
    for (unsigned i = 0; i < size; ++i) {
      bytes.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  void EmitGlobal(const CGlobalDecl& decl) {
    if (module_.GetGlobal(decl.name) != nullptr || globals_.count(decl.name) != 0) {
      Error(decl.loc, StrFormat("redefinition of '%s'", decl.name.c_str()));
      return;
    }
    CType* type = decl.type;
    std::vector<uint8_t> bytes;
    if (decl.has_string_init) {
      if (!type->IsArray() || type->element()->BitWidth() != 8) {
        Error(decl.loc, "string initializer requires a char array");
        return;
      }
      if (type->array_count() < decl.string_init.size() + 1) {
        Error(decl.loc, "string initializer does not fit");
        return;
      }
      bytes.assign(decl.string_init.begin(), decl.string_init.end());
      bytes.resize(type->IsArray() ? static_cast<size_t>(type->array_count()) : bytes.size(), 0);
    } else if (decl.has_init_list) {
      if (!type->IsArray()) {
        Error(decl.loc, "brace initializer requires an array");
        return;
      }
      unsigned elem_size = static_cast<unsigned>(IrTypeOf(type->element())->SizeInBytes());
      for (const auto& item : decl.init_list) {
        auto value = EvalConst(*item);
        if (!value.has_value()) {
          Error(item->loc, "global initializer must be a constant expression");
          return;
        }
        SerializeInt(bytes, *value, elem_size);
      }
      if (decl.init_list.size() > type->array_count()) {
        Error(decl.loc, "too many initializers");
        return;
      }
      bytes.resize(IrTypeOf(type)->SizeInBytes(), 0);
    } else if (decl.init != nullptr) {
      auto value = EvalConst(*decl.init);
      if (!value.has_value()) {
        Error(decl.init->loc, "global initializer must be a constant expression");
        return;
      }
      SerializeInt(bytes, *value, static_cast<unsigned>(IrTypeOf(type)->SizeInBytes()));
    }
    GlobalVariable* global =
        module_.CreateGlobal(decl.name, IrTypeOf(type), decl.is_const, std::move(bytes));
    globals_[decl.name] = {global, type};
  }

  // ---- Functions ----

  void DeclareFunction(const CFunctionDecl& decl, bool is_libc) {
    auto it = functions_.find(decl.name);
    if (it != functions_.end()) {
      FunctionInfo& info = it->second;
      // Re-declaration must match; a second definition is an error.
      bool matches = info.return_type == decl.return_type &&
                     info.params.size() == decl.params.size();
      if (matches) {
        for (size_t i = 0; i < decl.params.size(); ++i) {
          matches &= info.params[i] == decl.params[i].type;
        }
      }
      if (!matches) {
        Error(decl.loc, StrFormat("conflicting declaration of '%s'", decl.name.c_str()));
        return;
      }
      if (decl.body != nullptr) {
        if (info.defined) {
          Error(decl.loc, StrFormat("redefinition of '%s'", decl.name.c_str()));
        }
        info.defined = true;
      }
      return;
    }
    std::vector<Type*> ir_params;
    FunctionInfo info;
    info.return_type = decl.return_type;
    for (const CParam& param : decl.params) {
      if (!param.type->IsScalar()) {
        Error(decl.loc, "parameters must be scalar");
        return;
      }
      info.params.push_back(param.type);
      ir_params.push_back(IrTypeOf(param.type));
    }
    info.fn = module_.CreateFunction(decl.name, IrTypeOf(decl.return_type), ir_params);
    info.fn->set_is_libc(is_libc);
    info.defined = decl.body != nullptr;
    functions_[decl.name] = info;
  }

  // Known external functions get declarations on first use.
  FunctionInfo* LookupOrBuiltin(SourceLoc loc, const std::string& name) {
    auto it = functions_.find(name);
    if (it != functions_.end()) {
      return &it->second;
    }
    FunctionInfo info;
    if (name == "putchar") {
      info.return_type = ctypes_.Int();
      info.params = {ctypes_.Int()};
      info.fn = module_.CreateFunction("putchar", IrTypeOf(ctypes_.Int()),
                                       {IrTypeOf(ctypes_.Int())});
    } else if (name == "getchar") {
      info.return_type = ctypes_.Int();
      info.fn = module_.CreateFunction("getchar", IrTypeOf(ctypes_.Int()), {});
    } else if (name == "abort") {
      info.return_type = ctypes_.Void();
      info.fn = module_.CreateFunction("abort", module_.context().VoidTy(), {});
    } else {
      Error(loc, StrFormat("call to undeclared function '%s'", name.c_str()));
      return nullptr;
    }
    functions_[name] = info;
    return &functions_[name];
  }

  void EmitFunction(const CFunctionDecl& decl) {
    FunctionInfo& info = functions_[decl.name];
    fn_ = info.fn;
    return_type_ = decl.return_type;
    scopes_.clear();
    break_targets_.clear();
    continue_targets_.clear();
    next_block_id_ = 0;

    BasicBlock* entry = fn_->CreateBlock("entry");
    builder_.SetInsertPoint(entry);
    PushScope();
    // Parameters are spilled to allocas, exactly like clang -O0.
    for (unsigned i = 0; i < decl.params.size(); ++i) {
      const CParam& param = decl.params[i];
      Value* slot = builder_.CreateAlloca(IrTypeOf(param.type),
                                          param.name.empty() ? StrFormat("p%u", i) : param.name);
      builder_.CreateStore(fn_->Arg(i), slot);
      if (!param.name.empty()) {
        fn_->Arg(i)->set_name(param.name + ".arg");
        DefineLocal(decl.loc, param.name, slot, param.type);
      }
    }
    EmitStmt(*decl.body);
    PopScope();

    // Fall-off-the-end: return a zero value (void functions just return).
    if (!builder_.BlockTerminated()) {
      if (return_type_->IsVoid()) {
        builder_.CreateRetVoid();
      } else if (return_type_->IsPointer()) {
        builder_.CreateRet(module_.context().GetNull(IrTypeOf(return_type_)));
      } else {
        builder_.CreateRet(module_.context().GetInt(IrTypeOf(return_type_), 0));
      }
    }
    RemoveUnreachableBlocks(*fn_);
    fn_ = nullptr;
  }

  // ---- Scopes ----

  struct Local {
    Value* address = nullptr;
    CType* type = nullptr;
  };

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  void DefineLocal(SourceLoc loc, const std::string& name, Value* address, CType* type) {
    if (scopes_.back().count(name) != 0) {
      Error(loc, StrFormat("redefinition of '%s'", name.c_str()));
      return;
    }
    scopes_.back()[name] = Local{address, type};
  }

  const Local* LookupLocal(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return &found->second;
      }
    }
    return nullptr;
  }

  BasicBlock* NewBlock(const char* hint) {
    return fn_->CreateBlock(StrFormat("%s%u", hint, next_block_id_++));
  }

  // ---- Statements ----

  void EmitStmt(const CStmt& stmt) {
    // Code after a terminator (return/break/continue) is unreachable; give
    // it a fresh block so emission stays structurally valid, and let
    // RemoveUnreachableBlocks clean it up.
    if (builder_.BlockTerminated()) {
      builder_.SetInsertPoint(NewBlock("dead"));
    }
    switch (stmt.kind) {
      case CStmtKind::kEmpty:
        return;
      case CStmtKind::kBlock: {
        PushScope();
        for (const auto& child : stmt.stmts) {
          EmitStmt(*child);
        }
        PopScope();
        return;
      }
      case CStmtKind::kExpr:
        EmitRValue(*stmt.expr);
        return;
      case CStmtKind::kDecl:
        EmitDecl(stmt);
        return;
      case CStmtKind::kReturn: {
        if (stmt.expr == nullptr) {
          if (!return_type_->IsVoid()) {
            Error(stmt.loc, "non-void function must return a value");
            return;
          }
          builder_.CreateRetVoid();
          return;
        }
        TypedValue value = EmitRValue(*stmt.expr);
        if (return_type_->IsVoid()) {
          Error(stmt.loc, "void function cannot return a value");
          return;
        }
        builder_.CreateRet(ConvertValue(stmt.loc, value, return_type_));
        return;
      }
      case CStmtKind::kIf: {
        Value* cond = EmitCondition(*stmt.cond);
        BasicBlock* then_bb = NewBlock("if.then");
        BasicBlock* end_bb = NewBlock("if.end");
        BasicBlock* else_bb = stmt.else_branch != nullptr ? NewBlock("if.else") : end_bb;
        builder_.CreateCondBr(cond, then_bb, else_bb);
        builder_.SetInsertPoint(then_bb);
        EmitStmt(*stmt.then_branch);
        if (!builder_.BlockTerminated()) {
          builder_.CreateBr(end_bb);
        }
        if (stmt.else_branch != nullptr) {
          builder_.SetInsertPoint(else_bb);
          EmitStmt(*stmt.else_branch);
          if (!builder_.BlockTerminated()) {
            builder_.CreateBr(end_bb);
          }
        }
        builder_.SetInsertPoint(end_bb);
        return;
      }
      case CStmtKind::kWhile: {
        BasicBlock* cond_bb = NewBlock("while.cond");
        BasicBlock* body_bb = NewBlock("while.body");
        BasicBlock* end_bb = NewBlock("while.end");
        builder_.CreateBr(cond_bb);
        builder_.SetInsertPoint(cond_bb);
        builder_.CreateCondBr(EmitCondition(*stmt.cond), body_bb, end_bb);
        builder_.SetInsertPoint(body_bb);
        break_targets_.push_back(end_bb);
        continue_targets_.push_back(cond_bb);
        EmitStmt(*stmt.body);
        break_targets_.pop_back();
        continue_targets_.pop_back();
        if (!builder_.BlockTerminated()) {
          builder_.CreateBr(cond_bb);
        }
        builder_.SetInsertPoint(end_bb);
        return;
      }
      case CStmtKind::kDoWhile: {
        BasicBlock* body_bb = NewBlock("do.body");
        BasicBlock* cond_bb = NewBlock("do.cond");
        BasicBlock* end_bb = NewBlock("do.end");
        builder_.CreateBr(body_bb);
        builder_.SetInsertPoint(body_bb);
        break_targets_.push_back(end_bb);
        continue_targets_.push_back(cond_bb);
        EmitStmt(*stmt.body);
        break_targets_.pop_back();
        continue_targets_.pop_back();
        if (!builder_.BlockTerminated()) {
          builder_.CreateBr(cond_bb);
        }
        builder_.SetInsertPoint(cond_bb);
        builder_.CreateCondBr(EmitCondition(*stmt.cond), body_bb, end_bb);
        builder_.SetInsertPoint(end_bb);
        return;
      }
      case CStmtKind::kFor: {
        PushScope();
        if (stmt.for_init != nullptr) {
          EmitStmt(*stmt.for_init);
        }
        BasicBlock* cond_bb = NewBlock("for.cond");
        BasicBlock* body_bb = NewBlock("for.body");
        BasicBlock* step_bb = NewBlock("for.step");
        BasicBlock* end_bb = NewBlock("for.end");
        builder_.CreateBr(cond_bb);
        builder_.SetInsertPoint(cond_bb);
        if (stmt.cond != nullptr) {
          builder_.CreateCondBr(EmitCondition(*stmt.cond), body_bb, end_bb);
        } else {
          builder_.CreateBr(body_bb);
        }
        builder_.SetInsertPoint(body_bb);
        break_targets_.push_back(end_bb);
        continue_targets_.push_back(step_bb);
        EmitStmt(*stmt.body);
        break_targets_.pop_back();
        continue_targets_.pop_back();
        if (!builder_.BlockTerminated()) {
          builder_.CreateBr(step_bb);
        }
        builder_.SetInsertPoint(step_bb);
        if (stmt.for_step != nullptr) {
          EmitRValue(*stmt.for_step);
        }
        builder_.CreateBr(cond_bb);
        builder_.SetInsertPoint(end_bb);
        PopScope();
        return;
      }
      case CStmtKind::kBreak: {
        if (break_targets_.empty()) {
          Error(stmt.loc, "'break' outside a loop");
          return;
        }
        builder_.CreateBr(break_targets_.back());
        return;
      }
      case CStmtKind::kContinue: {
        if (continue_targets_.empty()) {
          Error(stmt.loc, "'continue' outside a loop");
          return;
        }
        builder_.CreateBr(continue_targets_.back());
        return;
      }
    }
  }

  void EmitDecl(const CStmt& stmt) {
    CType* type = stmt.decl_type;
    Value* slot = builder_.CreateAlloca(IrTypeOf(type), stmt.decl_name);
    DefineLocal(stmt.loc, stmt.decl_name, slot, type);
    if (stmt.has_init_list) {
      if (!type->IsArray()) {
        Error(stmt.loc, "brace initializer requires an array");
        return;
      }
      if (stmt.init_list.size() > type->array_count()) {
        Error(stmt.loc, "too many initializers");
        return;
      }
      IRContext& ctx = module_.context();
      for (size_t i = 0; i < stmt.init_list.size(); ++i) {
        TypedValue v = EmitRValue(*stmt.init_list[i]);
        Value* converted = ConvertValue(stmt.loc, v, type->element());
        Value* addr = builder_.CreateGep(IrTypeOf(type), slot,
                                         {ctx.GetInt(64, 0), ctx.GetInt(64, i)});
        builder_.CreateStore(converted, addr);
      }
      // Remaining elements are zero-initialized (C array init semantics).
      for (uint64_t i = stmt.init_list.size(); i < type->array_count(); ++i) {
        Value* addr = builder_.CreateGep(IrTypeOf(type), slot,
                                         {ctx.GetInt(64, 0), ctx.GetInt(64, i)});
        builder_.CreateStore(ctx.GetInt(IrTypeOf(type->element()), 0), addr);
      }
      return;
    }
    if (stmt.init != nullptr) {
      TypedValue v = EmitRValue(*stmt.init);
      if (!type->IsScalar()) {
        Error(stmt.loc, "cannot initialize a non-scalar with an expression");
        return;
      }
      builder_.CreateStore(ConvertValue(stmt.loc, v, type), slot);
    }
  }

  // ---- Expressions ----

  // Converts a scalar rvalue to an i1 condition.
  Value* EmitCondition(const CExpr& expr) {
    TypedValue v = EmitRValue(expr);
    return ToBool(expr.loc, v);
  }

  Value* ToBool(SourceLoc loc, TypedValue v) {
    IRContext& ctx = module_.context();
    if (v.type->IsPointer()) {
      return builder_.CreateICmp(ICmpPredicate::kNe, v.value,
                                 ctx.GetNull(IrTypeOf(v.type)));
    }
    if (!v.type->IsInteger()) {
      Error(loc, "condition must be scalar");
      return ctx.False();
    }
    return builder_.CreateICmp(ICmpPredicate::kNe, v.value,
                               ctx.GetInt(IrTypeOf(v.type), 0));
  }

  // C boolean result: i1 -> int 0/1.
  TypedValue BoolToInt(Value* i1) {
    Value* z = builder_.CreateCast(Opcode::kZExt, i1, module_.context().I32());
    return TypedValue{z, ctypes_.Int()};
  }

  std::optional<LValue> EmitLValue(const CExpr& expr) {
    switch (expr.kind) {
      case CExprKind::kIdent: {
        if (const Local* local = LookupLocal(expr.text)) {
          return LValue{local->address, local->type};
        }
        auto it = globals_.find(expr.text);
        if (it != globals_.end()) {
          return LValue{it->second.first, it->second.second};
        }
        Error(expr.loc, StrFormat("use of undeclared identifier '%s'", expr.text.c_str()));
        return std::nullopt;
      }
      case CExprKind::kUnary: {
        if (expr.unary_op != '*') {
          break;
        }
        TypedValue ptr = EmitRValue(*expr.children[0]);
        if (!ptr.type->IsPointer()) {
          Error(expr.loc, "cannot dereference a non-pointer");
          return std::nullopt;
        }
        return LValue{ptr.value, ptr.type->pointee()};
      }
      case CExprKind::kIndex: {
        TypedValue base = EmitRValue(*expr.children[0]);
        TypedValue index = EmitRValue(*expr.children[1]);
        if (!base.type->IsPointer()) {
          Error(expr.loc, "subscripted value must be a pointer or array");
          return std::nullopt;
        }
        if (!index.type->IsInteger()) {
          Error(expr.loc, "array index must be an integer");
          return std::nullopt;
        }
        Value* idx = ConvertValue(expr.loc, index, index.type->IsSigned() ? ctypes_.Long()
                                                                          : ctypes_.ULong());
        Value* addr =
            builder_.CreateGep(IrTypeOf(base.type->pointee()), base.value, {idx});
        return LValue{addr, base.type->pointee()};
      }
      default:
        break;
    }
    Error(expr.loc, "expression is not assignable");
    return std::nullopt;
  }

  TypedValue LoadLValue(SourceLoc loc, const LValue& lv) {
    if (lv.type->IsArray()) {
      // Array lvalues decay to a pointer to the first element.
      IRContext& ctx = module_.context();
      Value* decayed = builder_.CreateGep(IrTypeOf(lv.type), lv.address,
                                          {ctx.GetInt(64, 0), ctx.GetInt(64, 0)});
      return TypedValue{decayed, ctypes_.Pointer(lv.type->element())};
    }
    (void)loc;
    return TypedValue{builder_.CreateLoad(lv.address), lv.type};
  }

  TypedValue Undef(CType* type) {
    return TypedValue{module_.context().GetUndef(IrTypeOf(type)), type};
  }

  TypedValue EmitRValue(const CExpr& expr) {
    IRContext& ctx = module_.context();
    switch (expr.kind) {
      case CExprKind::kIntLit: {
        // Literal type: int if it fits, else long.
        bool fits = expr.int_value >= INT32_MIN && expr.int_value <= INT32_MAX;
        CType* type = fits ? ctypes_.Int() : ctypes_.Long();
        return TypedValue{ctx.GetInt(IrTypeOf(type), static_cast<uint64_t>(expr.int_value)),
                          type};
      }
      case CExprKind::kStringLit: {
        GlobalVariable* global = InternString(expr.text);
        Value* decayed = builder_.CreateGep(global->value_type(), global,
                                            {ctx.GetInt(64, 0), ctx.GetInt(64, 0)});
        return TypedValue{decayed, ctypes_.Pointer(ctypes_.Char())};
      }
      case CExprKind::kSizeof:
        return TypedValue{
            ctx.GetInt(64, IrTypeOf(expr.sizeof_type)->SizeInBytes()), ctypes_.ULong()};
      case CExprKind::kIdent:
      case CExprKind::kIndex: {
        auto lv = EmitLValue(expr);
        if (!lv.has_value()) {
          return Undef(ctypes_.Int());
        }
        return LoadLValue(expr.loc, *lv);
      }
      case CExprKind::kCast: {
        TypedValue v = EmitRValue(*expr.children[0]);
        if (expr.cast_type->IsVoid()) {
          return TypedValue{ctx.GetUndef(ctx.VoidTy()), expr.cast_type};
        }
        // Explicit casts additionally allow pointer<->pointer with distinct
        // layouts... which MiniC does not need; integer<->integer and the
        // implicit rules cover the suite.
        if (v.type->IsPointer() && expr.cast_type->IsPointer()) {
          if (IrTypeOf(v.type) == IrTypeOf(expr.cast_type)) {
            return TypedValue{v.value, expr.cast_type};
          }
          Error(expr.loc, "unsupported pointer cast");
          return Undef(expr.cast_type);
        }
        return TypedValue{ConvertValue(expr.loc, v, expr.cast_type), expr.cast_type};
      }
      case CExprKind::kUnary:
        return EmitUnary(expr);
      case CExprKind::kBinary:
        return EmitBinary(expr);
      case CExprKind::kAssign:
        return EmitAssign(expr);
      case CExprKind::kCond:
        return EmitConditionalExpr(expr);
      case CExprKind::kCall:
        return EmitCall(expr);
      case CExprKind::kIncDec:
        return EmitIncDec(expr);
      case CExprKind::kComma: {
        EmitRValue(*expr.children[0]);
        return EmitRValue(*expr.children[1]);
      }
    }
    OVERIFY_UNREACHABLE("bad expression kind");
  }

  TypedValue EmitUnary(const CExpr& expr) {
    IRContext& ctx = module_.context();
    switch (expr.unary_op) {
      case '-': {
        TypedValue v = EmitRValue(*expr.children[0]);
        if (!v.type->IsInteger()) {
          Error(expr.loc, "unary '-' requires an integer");
          return Undef(ctypes_.Int());
        }
        CType* type = Promote(v.type);
        Value* value = ConvertValue(expr.loc, v, type);
        return TypedValue{
            builder_.CreateSub(ctx.GetInt(IrTypeOf(type), 0), value), type};
      }
      case '~': {
        TypedValue v = EmitRValue(*expr.children[0]);
        if (!v.type->IsInteger()) {
          Error(expr.loc, "unary '~' requires an integer");
          return Undef(ctypes_.Int());
        }
        CType* type = Promote(v.type);
        Value* value = ConvertValue(expr.loc, v, type);
        return TypedValue{
            builder_.CreateXor(value, ctx.GetInt(IrTypeOf(type), ~uint64_t{0})), type};
      }
      case '!': {
        TypedValue v = EmitRValue(*expr.children[0]);
        Value* b = ToBool(expr.loc, v);
        Value* inverted = builder_.CreateXor(b, ctx.True());
        return BoolToInt(inverted);
      }
      case '*': {
        auto lv = EmitLValue(expr);
        if (!lv.has_value()) {
          return Undef(ctypes_.Int());
        }
        return LoadLValue(expr.loc, *lv);
      }
      case '&': {
        auto lv = EmitLValue(*expr.children[0]);
        if (!lv.has_value()) {
          return Undef(ctypes_.Pointer(ctypes_.Int()));
        }
        if (lv->type->IsArray()) {
          // &array is the array address; MiniC types it as pointer-to-element.
          IRContext& c = module_.context();
          Value* decayed = builder_.CreateGep(IrTypeOf(lv->type), lv->address,
                                              {c.GetInt(64, 0), c.GetInt(64, 0)});
          return TypedValue{decayed, ctypes_.Pointer(lv->type->element())};
        }
        return TypedValue{lv->address, ctypes_.Pointer(lv->type)};
      }
      default:
        OVERIFY_UNREACHABLE("bad unary op");
    }
  }

  // Pointer +/- integer via gep (index scaled by element size).
  TypedValue EmitPointerArith(SourceLoc loc, TypedValue ptr, TypedValue offset, bool negate) {
    Value* idx = ConvertValue(loc, offset,
                              offset.type->IsSigned() ? ctypes_.Long() : ctypes_.ULong());
    if (negate) {
      idx = builder_.CreateSub(module_.context().GetInt(64, 0), idx);
    }
    Value* addr = builder_.CreateGep(IrTypeOf(ptr.type->pointee()), ptr.value, {idx});
    return TypedValue{addr, ptr.type};
  }

  TypedValue EmitBinary(const CExpr& expr) {
    IRContext& ctx = module_.context();
    // Short-circuit operators first (they control evaluation order).
    if (expr.op == TokKind::kAmpAmp || expr.op == TokKind::kPipePipe) {
      bool is_and = expr.op == TokKind::kAmpAmp;
      Value* lhs = EmitCondition(*expr.children[0]);
      BasicBlock* lhs_bb = builder_.insert_block();
      BasicBlock* rhs_bb = NewBlock(is_and ? "and.rhs" : "or.rhs");
      BasicBlock* end_bb = NewBlock(is_and ? "and.end" : "or.end");
      if (is_and) {
        builder_.CreateCondBr(lhs, rhs_bb, end_bb);
      } else {
        builder_.CreateCondBr(lhs, end_bb, rhs_bb);
      }
      builder_.SetInsertPoint(rhs_bb);
      Value* rhs = EmitCondition(*expr.children[1]);
      BasicBlock* rhs_end = builder_.insert_block();
      builder_.CreateBr(end_bb);
      builder_.SetInsertPoint(end_bb);
      PhiInst* phi = builder_.CreatePhi(ctx.I1(), is_and ? "and" : "or");
      phi->AddIncoming(ctx.GetBool(!is_and), lhs_bb);
      phi->AddIncoming(rhs, rhs_end);
      return BoolToInt(phi);
    }

    TypedValue lhs = EmitRValue(*expr.children[0]);
    TypedValue rhs = EmitRValue(*expr.children[1]);

    // Pointer arithmetic and pointer comparisons.
    if (lhs.type->IsPointer() || rhs.type->IsPointer()) {
      switch (expr.op) {
        case TokKind::kPlus:
          if (lhs.type->IsPointer() && rhs.type->IsInteger()) {
            return EmitPointerArith(expr.loc, lhs, rhs, false);
          }
          if (rhs.type->IsPointer() && lhs.type->IsInteger()) {
            return EmitPointerArith(expr.loc, rhs, lhs, false);
          }
          Error(expr.loc, "invalid pointer addition");
          return Undef(ctypes_.Int());
        case TokKind::kMinus:
          if (lhs.type->IsPointer() && rhs.type->IsInteger()) {
            return EmitPointerArith(expr.loc, lhs, rhs, true);
          }
          Error(expr.loc, "pointer difference is not supported in MiniC");
          return Undef(ctypes_.Int());
        case TokKind::kEq:
        case TokKind::kNe:
        case TokKind::kLt:
        case TokKind::kGt:
        case TokKind::kLe:
        case TokKind::kGe: {
          // Allow ptr vs ptr (same layout) and ptr vs the 0 literal.
          Value* l = lhs.value;
          Value* r = rhs.value;
          if (lhs.type->IsPointer() && rhs.type->IsInteger()) {
            r = ConvertValue(expr.loc, rhs, lhs.type);
          } else if (rhs.type->IsPointer() && lhs.type->IsInteger()) {
            l = ConvertValue(expr.loc, lhs, rhs.type);
          } else if (IrTypeOf(lhs.type) != IrTypeOf(rhs.type)) {
            Error(expr.loc, "comparison of incompatible pointers");
            return Undef(ctypes_.Int());
          }
          ICmpPredicate pred = expr.op == TokKind::kEq   ? ICmpPredicate::kEq
                               : expr.op == TokKind::kNe ? ICmpPredicate::kNe
                               : expr.op == TokKind::kLt ? ICmpPredicate::kULT
                               : expr.op == TokKind::kGt ? ICmpPredicate::kUGT
                               : expr.op == TokKind::kLe ? ICmpPredicate::kULE
                                                         : ICmpPredicate::kUGE;
          return BoolToInt(builder_.CreateICmp(pred, l, r));
        }
        default:
          Error(expr.loc, "invalid pointer operation");
          return Undef(ctypes_.Int());
      }
    }

    if (!lhs.type->IsInteger() || !rhs.type->IsInteger()) {
      Error(expr.loc, "binary operator requires integer operands");
      return Undef(ctypes_.Int());
    }

    // Shifts: result type is the promoted LHS; RHS converts independently.
    if (expr.op == TokKind::kShl || expr.op == TokKind::kShr) {
      CType* type = Promote(lhs.type);
      Value* l = ConvertValue(expr.loc, lhs, type);
      Value* r = ConvertValue(expr.loc, rhs, type);
      Opcode opcode = expr.op == TokKind::kShl ? Opcode::kShl
                      : type->IsSigned()       ? Opcode::kAShr
                                               : Opcode::kLShr;
      return TypedValue{builder_.CreateBinary(opcode, l, r), type};
    }

    CType* type = CommonArithType(lhs.type, rhs.type);
    Value* l = ConvertValue(expr.loc, lhs, type);
    Value* r = ConvertValue(expr.loc, rhs, type);
    bool is_signed = type->IsSigned();

    switch (expr.op) {
      case TokKind::kPlus:
        return TypedValue{builder_.CreateAdd(l, r), type};
      case TokKind::kMinus:
        return TypedValue{builder_.CreateSub(l, r), type};
      case TokKind::kStar:
        return TypedValue{builder_.CreateMul(l, r), type};
      case TokKind::kSlash:
        return TypedValue{
            builder_.CreateBinary(is_signed ? Opcode::kSDiv : Opcode::kUDiv, l, r), type};
      case TokKind::kPercent:
        return TypedValue{
            builder_.CreateBinary(is_signed ? Opcode::kSRem : Opcode::kURem, l, r), type};
      case TokKind::kAmp:
        return TypedValue{builder_.CreateAnd(l, r), type};
      case TokKind::kPipe:
        return TypedValue{builder_.CreateOr(l, r), type};
      case TokKind::kCaret:
        return TypedValue{builder_.CreateXor(l, r), type};
      case TokKind::kEq:
      case TokKind::kNe:
      case TokKind::kLt:
      case TokKind::kGt:
      case TokKind::kLe:
      case TokKind::kGe: {
        ICmpPredicate pred;
        switch (expr.op) {
          case TokKind::kEq:
            pred = ICmpPredicate::kEq;
            break;
          case TokKind::kNe:
            pred = ICmpPredicate::kNe;
            break;
          case TokKind::kLt:
            pred = is_signed ? ICmpPredicate::kSLT : ICmpPredicate::kULT;
            break;
          case TokKind::kGt:
            pred = is_signed ? ICmpPredicate::kSGT : ICmpPredicate::kUGT;
            break;
          case TokKind::kLe:
            pred = is_signed ? ICmpPredicate::kSLE : ICmpPredicate::kULE;
            break;
          default:
            pred = is_signed ? ICmpPredicate::kSGE : ICmpPredicate::kUGE;
            break;
        }
        return BoolToInt(builder_.CreateICmp(pred, l, r));
      }
      default:
        Error(expr.loc, "unsupported binary operator");
        return Undef(ctypes_.Int());
    }
  }

  TypedValue EmitAssign(const CExpr& expr) {
    auto lv = EmitLValue(*expr.children[0]);
    if (!lv.has_value()) {
      return Undef(ctypes_.Int());
    }
    if (!lv->type->IsScalar()) {
      Error(expr.loc, "assignment target must be scalar");
      return Undef(ctypes_.Int());
    }
    Value* result;
    if (expr.op == TokKind::kAssign) {
      TypedValue rhs = EmitRValue(*expr.children[1]);
      result = ConvertValue(expr.loc, rhs, lv->type);
    } else {
      // Compound assignment: build the equivalent binary expression on the
      // loaded value.
      TypedValue lhs{builder_.CreateLoad(lv->address), lv->type};
      TypedValue rhs = EmitRValue(*expr.children[1]);
      TokKind op;
      switch (expr.op) {
        case TokKind::kPlusAssign:
          op = TokKind::kPlus;
          break;
        case TokKind::kMinusAssign:
          op = TokKind::kMinus;
          break;
        case TokKind::kStarAssign:
          op = TokKind::kStar;
          break;
        case TokKind::kSlashAssign:
          op = TokKind::kSlash;
          break;
        case TokKind::kPercentAssign:
          op = TokKind::kPercent;
          break;
        case TokKind::kAmpAssign:
          op = TokKind::kAmp;
          break;
        case TokKind::kPipeAssign:
          op = TokKind::kPipe;
          break;
        case TokKind::kCaretAssign:
          op = TokKind::kCaret;
          break;
        case TokKind::kShlAssign:
          op = TokKind::kShl;
          break;
        default:
          op = TokKind::kShr;
          break;
      }
      TypedValue combined = EmitBinaryOnValues(expr.loc, op, lhs, rhs);
      result = ConvertValue(expr.loc, combined, lv->type);
    }
    builder_.CreateStore(result, lv->address);
    return TypedValue{result, lv->type};
  }

  // Applies a binary operator to already-emitted operands (compound assigns,
  // pointer ops included).
  TypedValue EmitBinaryOnValues(SourceLoc loc, TokKind op, TypedValue lhs, TypedValue rhs) {
    // Reuse EmitBinary's logic by faking a tiny expression tree would be
    // clumsy; replicate the pointer/integer dispatch minimally.
    if (lhs.type->IsPointer() && rhs.type->IsInteger()) {
      if (op == TokKind::kPlus) {
        return EmitPointerArith(loc, lhs, rhs, false);
      }
      if (op == TokKind::kMinus) {
        return EmitPointerArith(loc, lhs, rhs, true);
      }
      Error(loc, "invalid pointer operation");
      return Undef(ctypes_.Int());
    }
    if (!lhs.type->IsInteger() || !rhs.type->IsInteger()) {
      Error(loc, "operands must be integers");
      return Undef(ctypes_.Int());
    }
    if (op == TokKind::kShl || op == TokKind::kShr) {
      CType* type = Promote(lhs.type);
      Value* l = ConvertValue(loc, lhs, type);
      Value* r = ConvertValue(loc, rhs, type);
      Opcode opcode = op == TokKind::kShl ? Opcode::kShl
                      : type->IsSigned()  ? Opcode::kAShr
                                          : Opcode::kLShr;
      return TypedValue{builder_.CreateBinary(opcode, l, r), type};
    }
    CType* type = CommonArithType(lhs.type, rhs.type);
    Value* l = ConvertValue(loc, lhs, type);
    Value* r = ConvertValue(loc, rhs, type);
    bool is_signed = type->IsSigned();
    Opcode opcode;
    switch (op) {
      case TokKind::kPlus:
        opcode = Opcode::kAdd;
        break;
      case TokKind::kMinus:
        opcode = Opcode::kSub;
        break;
      case TokKind::kStar:
        opcode = Opcode::kMul;
        break;
      case TokKind::kSlash:
        opcode = is_signed ? Opcode::kSDiv : Opcode::kUDiv;
        break;
      case TokKind::kPercent:
        opcode = is_signed ? Opcode::kSRem : Opcode::kURem;
        break;
      case TokKind::kAmp:
        opcode = Opcode::kAnd;
        break;
      case TokKind::kPipe:
        opcode = Opcode::kOr;
        break;
      case TokKind::kCaret:
        opcode = Opcode::kXor;
        break;
      default:
        Error(loc, "unsupported compound operator");
        return Undef(ctypes_.Int());
    }
    return TypedValue{builder_.CreateBinary(opcode, l, r), type};
  }

  TypedValue EmitConditionalExpr(const CExpr& expr) {
    Value* cond = EmitCondition(*expr.children[0]);
    BasicBlock* then_bb = NewBlock("cond.then");
    BasicBlock* else_bb = NewBlock("cond.else");
    BasicBlock* end_bb = NewBlock("cond.end");
    builder_.CreateCondBr(cond, then_bb, else_bb);

    builder_.SetInsertPoint(then_bb);
    TypedValue tv = EmitRValue(*expr.children[1]);
    BasicBlock* then_end = builder_.insert_block();

    builder_.SetInsertPoint(else_bb);
    TypedValue fv = EmitRValue(*expr.children[2]);
    BasicBlock* else_end = builder_.insert_block();

    CType* type;
    if (tv.type->IsPointer() && fv.type->IsPointer()) {
      type = tv.type;
    } else if (tv.type->IsPointer() || fv.type->IsPointer()) {
      type = tv.type->IsPointer() ? tv.type : fv.type;
    } else {
      type = CommonArithType(tv.type, fv.type);
    }

    builder_.SetInsertPoint(then_end);
    Value* tvc = ConvertValue(expr.loc, tv, type);
    builder_.CreateBr(end_bb);
    builder_.SetInsertPoint(else_end);
    Value* fvc = ConvertValue(expr.loc, fv, type);
    builder_.CreateBr(end_bb);

    builder_.SetInsertPoint(end_bb);
    PhiInst* phi = builder_.CreatePhi(IrTypeOf(type), "cond");
    phi->AddIncoming(tvc, then_end);
    phi->AddIncoming(fvc, else_end);
    return TypedValue{phi, type};
  }

  TypedValue EmitCall(const CExpr& expr) {
    // __check(cond) / __check(cond, "message") builtin.
    if (expr.text == "__check") {
      if (expr.children.empty() || expr.children.size() > 2) {
        Error(expr.loc, "__check takes (condition[, message])");
        return Undef(ctypes_.Int());
      }
      std::string message = "__check failed";
      if (expr.children.size() == 2) {
        if (expr.children[1]->kind != CExprKind::kStringLit) {
          Error(expr.loc, "__check message must be a string literal");
          return Undef(ctypes_.Int());
        }
        message = expr.children[1]->text;
      }
      Value* cond = EmitCondition(*expr.children[0]);
      builder_.CreateCheck(cond, CheckKind::kAssert, message);
      return TypedValue{module_.context().GetInt(32, 0), ctypes_.Int()};
    }

    FunctionInfo* info = LookupOrBuiltin(expr.loc, expr.text);
    if (info == nullptr) {
      return Undef(ctypes_.Int());
    }
    if (expr.children.size() != info->params.size()) {
      Error(expr.loc, StrFormat("wrong number of arguments to '%s'", expr.text.c_str()));
      return Undef(info->return_type->IsVoid() ? ctypes_.Int() : info->return_type);
    }
    std::vector<Value*> args;
    for (size_t i = 0; i < expr.children.size(); ++i) {
      TypedValue arg = EmitRValue(*expr.children[i]);
      args.push_back(ConvertValue(expr.children[i]->loc, arg, info->params[i]));
    }
    Value* result = builder_.CreateCall(info->fn, std::move(args),
                                        info->return_type->IsVoid() ? "" : expr.text + ".r");
    if (info->return_type->IsVoid()) {
      return TypedValue{result, ctypes_.Void()};
    }
    return TypedValue{result, info->return_type};
  }

  TypedValue EmitIncDec(const CExpr& expr) {
    IRContext& ctx = module_.context();
    auto lv = EmitLValue(*expr.children[0]);
    if (!lv.has_value() || !lv->type->IsScalar()) {
      Error(expr.loc, "++/-- requires a scalar lvalue");
      return Undef(ctypes_.Int());
    }
    bool is_inc = expr.op == TokKind::kPlusPlus;
    Value* old_value = builder_.CreateLoad(lv->address);
    Value* new_value;
    if (lv->type->IsPointer()) {
      Value* one = ctx.GetInt(64, is_inc ? 1 : static_cast<uint64_t>(-1));
      new_value = builder_.CreateGep(IrTypeOf(lv->type->pointee()), old_value, {one});
    } else {
      Value* one = ctx.GetInt(IrTypeOf(lv->type), 1);
      new_value = is_inc ? builder_.CreateAdd(old_value, one)
                         : builder_.CreateSub(old_value, one);
    }
    builder_.CreateStore(new_value, lv->address);
    return TypedValue{expr.is_prefix ? new_value : old_value, lv->type};
  }

  GlobalVariable* InternString(const std::string& text) {
    auto it = string_globals_.find(text);
    if (it != string_globals_.end()) {
      return it->second;
    }
    GlobalVariable* global =
        module_.CreateStringGlobal(StrFormat(".str.%zu", string_globals_.size()), text);
    string_globals_[text] = global;
    return global;
  }

  Module& module_;
  CTypeContext& ctypes_;
  DiagnosticEngine& diags_;
  IRBuilder builder_;

  std::map<std::string, FunctionInfo> functions_;
  std::map<std::string, std::pair<GlobalVariable*, CType*>> globals_;
  std::map<std::string, GlobalVariable*> string_globals_;

  Function* fn_ = nullptr;
  CType* return_type_ = nullptr;
  std::vector<std::map<std::string, Local>> scopes_;
  std::vector<BasicBlock*> break_targets_;
  std::vector<BasicBlock*> continue_targets_;
  unsigned next_block_id_ = 0;
};

// ---- Libc linking ----
//
// A libc source is read like a static archive: a compile parses and emits
// only the libc functions the program can reach, so its cost follows what
// the program uses instead of the size of the library.

// Appends the callee name of every call in `expr` / `stmt`.
void CollectCalls(const CExpr& expr, std::vector<const std::string*>& out) {
  if (expr.kind == CExprKind::kCall) {
    out.push_back(&expr.text);
  }
  for (const auto& child : expr.children) {
    CollectCalls(*child, out);
  }
}

void CollectCalls(const CStmt& stmt, std::vector<const std::string*>& out) {
  for (const CExpr* expr : {stmt.init.get(), stmt.expr.get(), stmt.cond.get(),
                            stmt.for_step.get()}) {
    if (expr != nullptr) {
      CollectCalls(*expr, out);
    }
  }
  for (const auto& item : stmt.init_list) {
    CollectCalls(*item, out);
  }
  for (const CStmt* child : {stmt.for_init.get(), stmt.then_branch.get(),
                             stmt.else_branch.get(), stmt.body.get()}) {
    if (child != nullptr) {
      CollectCalls(*child, out);
    }
  }
  for (const auto& child : stmt.stmts) {
    CollectCalls(*child, out);
  }
}

// A libc text split into its top-level declarations. Built once per process
// per text and then only read, by compiles on any thread.
struct LibcArchive {
  struct Member {
    std::string name;
    size_t first_token = 0;  // the declaration is tokens[first_token, end_token)
    size_t end_token = 0;
    // Global variables are always linked; functions only when reached.
    bool is_global = false;
    // The distinct names the function's body calls.
    std::vector<std::string> callees;
  };

  std::vector<CToken> tokens;  // the whole text, ending with kEof
  std::vector<Member> members;  // in libc order
  std::unordered_map<std::string, std::vector<size_t>> functions_by_name;
  std::vector<Diagnostic> errors;  // why the text does not parse, if it does not
};

std::unique_ptr<const LibcArchive> ReadArchive(const std::string& text) {
  auto archive = std::make_unique<LibcArchive>();
  DiagnosticEngine diags;
  archive->tokens = CLexer(text, diags).Tokenize();
  CTypeContext ctypes;
  std::unique_ptr<CTranslationUnit> unit;
  if (!diags.HasErrors()) {
    unit = ParseMiniCTokens(archive->tokens, ctypes, diags);
  }
  if (unit == nullptr) {
    archive->errors = diags.Diagnostics();
    return archive;
  }

  // A declaration starts at the token at its location and runs up to the
  // next declaration (or kEof). Tokens are in source order.
  const std::vector<CToken>& tokens = archive->tokens;
  auto token_at = [&tokens](SourceLoc loc) {
    auto it = std::lower_bound(tokens.begin(), tokens.end(), loc,
                               [](const CToken& token, SourceLoc at) {
                                 return token.loc.line < at.line ||
                                        (token.loc.line == at.line && token.loc.col < at.col);
                               });
    return static_cast<size_t>(it - tokens.begin());
  };
  std::vector<LibcArchive::Member>& members = archive->members;
  for (const auto& global : unit->globals) {
    LibcArchive::Member member;
    member.name = global->name;
    member.first_token = token_at(global->loc);
    member.is_global = true;
    members.push_back(std::move(member));
  }
  for (const auto& fn : unit->functions) {
    LibcArchive::Member member;
    member.name = fn->name;
    member.first_token = token_at(fn->loc);
    if (fn->body != nullptr) {
      std::vector<const std::string*> calls;
      CollectCalls(*fn->body, calls);
      for (const std::string* callee : calls) {
        member.callees.push_back(*callee);
      }
      std::sort(member.callees.begin(), member.callees.end());
      member.callees.erase(std::unique(member.callees.begin(), member.callees.end()),
                           member.callees.end());
    }
    members.push_back(std::move(member));
  }
  std::sort(members.begin(), members.end(),
            [](const LibcArchive::Member& a, const LibcArchive::Member& b) {
              return a.first_token < b.first_token;
            });
  for (size_t i = 0; i < members.size(); ++i) {
    members[i].end_token =
        i + 1 < members.size() ? members[i + 1].first_token : tokens.size() - 1;
    if (!members[i].is_global) {
      archive->functions_by_name[members[i].name].push_back(i);
    }
  }
  return archive;
}

// The archive of `text`, read on first use and kept for the life of the
// process.
const LibcArchive& ArchiveOf(const std::string& text) {
  static std::mutex mutex;
  static std::unordered_map<std::string, std::unique_ptr<const LibcArchive>> archives;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<const LibcArchive>& archive = archives[text];
  if (archive == nullptr) {
    archive = ReadArchive(text);
  }
  return *archive;
}

// Marks every function member reachable from the names in `worklist`
// through the members' calls, across all archives. A name may be defined in
// any archive.
void CloseOverCalls(const std::vector<const LibcArchive*>& archives,
                    std::vector<const std::string*> worklist,
                    std::vector<std::vector<bool>>& linked) {
  while (!worklist.empty()) {
    const std::string* name = worklist.back();
    worklist.pop_back();
    for (size_t a = 0; a < archives.size(); ++a) {
      auto it = archives[a]->functions_by_name.find(*name);
      if (it == archives[a]->functions_by_name.end()) {
        continue;
      }
      for (size_t index : it->second) {
        if (linked[a][index]) {
          continue;
        }
        linked[a][index] = true;
        for (const std::string& callee : archives[a]->members[index].callees) {
          worklist.push_back(&callee);
        }
      }
    }
  }
}

// The tokens of the linked members of `archive`, in libc order, then kEof.
std::vector<CToken> LinkedTokens(const LibcArchive& archive, const std::vector<bool>& linked) {
  std::vector<CToken> tokens;
  for (size_t i = 0; i < archive.members.size(); ++i) {
    const LibcArchive::Member& member = archive.members[i];
    if (linked[i]) {
      tokens.insert(tokens.end(), archive.tokens.begin() + member.first_token,
                    archive.tokens.begin() + member.end_token);
    }
  }
  tokens.push_back(archive.tokens.back());
  return tokens;
}

}  // namespace

std::unique_ptr<Module> CompileMiniC(const std::vector<MiniCSource>& sources,
                                     const std::string& module_name, DiagnosticEngine& diags) {
  std::vector<const LibcArchive*> archives;
  for (const MiniCSource& source : sources) {
    if (!source.is_libc) {
      continue;
    }
    const LibcArchive& archive = ArchiveOf(source.code);
    if (!archive.errors.empty()) {
      for (const Diagnostic& error : archive.errors) {
        diags.Report(error.severity, error.loc, error.message);
      }
      return nullptr;
    }
    archives.push_back(&archive);
  }

  CTypeContext ctypes;
  std::vector<std::unique_ptr<CTranslationUnit>> program;
  std::vector<const std::string*> roots;
  for (const MiniCSource& source : sources) {
    if (source.is_libc) {
      continue;
    }
    program.push_back(ParseMiniC(source.code, ctypes, diags));
    if (program.back() == nullptr) {
      return nullptr;
    }
    // A program function links every name it calls, and its own name, so
    // a prototype or a clashing definition still meets the libc's.
    for (const auto& fn : program.back()->functions) {
      roots.push_back(&fn->name);
      if (fn->body != nullptr) {
        CollectCalls(*fn->body, roots);
      }
    }
  }

  // A compile without a program links the whole library.
  std::vector<std::vector<bool>> linked;
  for (const LibcArchive* archive : archives) {
    std::vector<bool>& marks = linked.emplace_back();
    for (const LibcArchive::Member& member : archive->members) {
      marks.push_back(program.empty() || member.is_global);
    }
  }
  CloseOverCalls(archives, std::move(roots), linked);

  auto module = std::make_unique<Module>(module_name);
  Codegen codegen(*module, ctypes, diags);
  for (size_t a = 0; a < archives.size(); ++a) {
    auto unit = ParseMiniCTokens(LinkedTokens(*archives[a], linked[a]), ctypes, diags);
    if (unit == nullptr || !codegen.CompileUnit(*unit, /*is_libc=*/true)) {
      return nullptr;
    }
  }
  for (const auto& unit : program) {
    if (!codegen.CompileUnit(*unit, /*is_libc=*/false)) {
      return nullptr;
    }
  }
  return module;
}

std::unique_ptr<Module> CompileMiniC(const std::string& source, const std::string& module_name,
                                     DiagnosticEngine& diags) {
  return CompileMiniC({MiniCSource{source, false}}, module_name, diags);
}

}  // namespace overify
