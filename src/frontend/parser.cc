#include "src/frontend/parser.h"

#include "src/frontend/lexer.h"
#include "src/support/string_utils.h"

namespace overify {

namespace {

class MiniCParser {
 public:
  MiniCParser(std::vector<CToken> tokens, CTypeContext& types, DiagnosticEngine& diags)
      : tokens_(std::move(tokens)), types_(types), diags_(diags) {}

  std::unique_ptr<CTranslationUnit> Run() {
    auto unit = std::make_unique<CTranslationUnit>();
    while (Cur().kind != TokKind::kEof && !diags_.HasErrors()) {
      ParseTopLevel(*unit);
    }
    if (diags_.HasErrors()) {
      return nullptr;
    }
    return unit;
  }

 private:
  const CToken& Cur() const { return tokens_[pos_]; }
  const CToken& Ahead(size_t n) const {
    size_t index = pos_ + n;
    return index < tokens_.size() ? tokens_[index] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }
  bool At(TokKind kind) const { return Cur().kind == kind; }
  bool Eat(TokKind kind) {
    if (At(kind)) {
      Advance();
      return true;
    }
    return false;
  }
  void Error(const std::string& message) {
    if (!diags_.HasErrors()) {
      diags_.Error(Cur().loc, message);
    }
  }
  bool Expect(TokKind kind, const char* what) {
    if (!Eat(kind)) {
      Error(StrFormat("expected %s", what));
      return false;
    }
    return true;
  }

  static bool IsTypeStart(TokKind kind) {
    switch (kind) {
      case TokKind::kKwVoid:
      case TokKind::kKwChar:
      case TokKind::kKwInt:
      case TokKind::kKwLong:
      case TokKind::kKwUnsigned:
      case TokKind::kKwSigned:
      case TokKind::kKwConst:
        return true;
      default:
        return false;
    }
  }

  // type-specifier := const? (void | [signed|unsigned] (char|int|long)?) const?
  // Returns null on error. Sets *is_const when a const qualifier was seen.
  CType* ParseTypeSpecifier(bool* is_const = nullptr) {
    bool konst = Eat(TokKind::kKwConst);
    CType* base = nullptr;
    if (Eat(TokKind::kKwVoid)) {
      base = types_.Void();
    } else if (Eat(TokKind::kKwChar)) {
      base = types_.Char();
    } else if (Eat(TokKind::kKwInt)) {
      base = types_.Int();
    } else if (Eat(TokKind::kKwLong)) {
      Eat(TokKind::kKwInt);  // "long int"
      base = types_.Long();
    } else if (Eat(TokKind::kKwSigned)) {
      if (Eat(TokKind::kKwChar)) {
        base = types_.Char();
      } else if (Eat(TokKind::kKwLong)) {
        Eat(TokKind::kKwInt);
        base = types_.Long();
      } else {
        Eat(TokKind::kKwInt);
        base = types_.Int();
      }
    } else if (Eat(TokKind::kKwUnsigned)) {
      if (Eat(TokKind::kKwChar)) {
        base = types_.UChar();
      } else if (Eat(TokKind::kKwLong)) {
        Eat(TokKind::kKwInt);
        base = types_.ULong();
      } else {
        Eat(TokKind::kKwInt);
        base = types_.UInt();
      }
    } else {
      Error("expected type");
      return nullptr;
    }
    konst |= Eat(TokKind::kKwConst);
    // Pointer declarators.
    while (Eat(TokKind::kStar)) {
      base = types_.Pointer(base);
      konst = Eat(TokKind::kKwConst) || false;  // `T* const` qualifies the pointer
    }
    if (is_const != nullptr) {
      *is_const = konst;
    }
    return base;
  }

  void ParseTopLevel(CTranslationUnit& unit) {
    bool is_const = false;
    SourceLoc loc = Cur().loc;
    CType* type = ParseTypeSpecifier(&is_const);
    if (type == nullptr) {
      return;
    }
    if (!At(TokKind::kIdent)) {
      Error("expected name");
      return;
    }
    std::string name = Cur().text;
    Advance();

    if (At(TokKind::kLParen)) {
      ParseFunctionRest(unit, loc, type, std::move(name));
      return;
    }
    // Global variable.
    auto global = std::make_unique<CGlobalDecl>();
    global->loc = loc;
    global->name = std::move(name);
    global->is_const = is_const;
    CType* full_type = type;
    if (Eat(TokKind::kLBracket)) {
      if (!At(TokKind::kIntLit)) {
        Error("expected array size");
        return;
      }
      uint64_t count = static_cast<uint64_t>(Cur().int_value);
      Advance();
      Expect(TokKind::kRBracket, "']'");
      full_type = types_.Array(type, count);
    }
    global->type = full_type;
    if (Eat(TokKind::kAssign)) {
      if (At(TokKind::kStringLit)) {
        global->has_string_init = true;
        global->string_init = Cur().text;
        Advance();
      } else if (Eat(TokKind::kLBrace)) {
        global->has_init_list = true;
        if (!At(TokKind::kRBrace)) {
          global->init_list.push_back(ParseAssign());
          while (Eat(TokKind::kComma)) {
            if (At(TokKind::kRBrace)) {
              break;  // trailing comma
            }
            global->init_list.push_back(ParseAssign());
          }
        }
        Expect(TokKind::kRBrace, "'}'");
      } else {
        global->init = ParseAssign();
      }
    }
    Expect(TokKind::kSemi, "';'");
    unit.globals.push_back(std::move(global));
  }

  void ParseFunctionRest(CTranslationUnit& unit, SourceLoc loc, CType* return_type,
                         std::string name) {
    auto fn = std::make_unique<CFunctionDecl>();
    fn->loc = loc;
    fn->name = std::move(name);
    fn->return_type = return_type;
    Expect(TokKind::kLParen, "'('");
    if (!At(TokKind::kRParen)) {
      if (At(TokKind::kKwVoid) && Ahead(1).kind == TokKind::kRParen) {
        Advance();  // f(void)
      } else {
        while (true) {
          CParam param;
          param.type = ParseTypeSpecifier();
          if (param.type == nullptr) {
            return;
          }
          if (At(TokKind::kIdent)) {
            param.name = Cur().text;
            Advance();
          }
          if (Eat(TokKind::kLBracket)) {
            // Array parameters decay to pointers; size (if any) is ignored.
            if (At(TokKind::kIntLit)) {
              Advance();
            }
            Expect(TokKind::kRBracket, "']'");
            param.type = types_.Pointer(param.type);
          }
          fn->params.push_back(std::move(param));
          if (!Eat(TokKind::kComma)) {
            break;
          }
        }
      }
    }
    Expect(TokKind::kRParen, "')'");
    if (Eat(TokKind::kSemi)) {
      unit.functions.push_back(std::move(fn));  // prototype
      return;
    }
    fn->body = ParseBlock();
    unit.functions.push_back(std::move(fn));
  }

  std::unique_ptr<CStmt> ParseBlock() {
    auto block = std::make_unique<CStmt>(CStmtKind::kBlock, Cur().loc);
    if (!Expect(TokKind::kLBrace, "'{'")) {
      return block;
    }
    while (!At(TokKind::kRBrace) && !At(TokKind::kEof) && !diags_.HasErrors()) {
      block->stmts.push_back(ParseStatement());
    }
    Expect(TokKind::kRBrace, "'}'");
    return block;
  }

  std::unique_ptr<CStmt> ParseDeclStatement() {
    SourceLoc loc = Cur().loc;
    CType* type = ParseTypeSpecifier();
    auto stmt = std::make_unique<CStmt>(CStmtKind::kDecl, loc);
    if (type == nullptr) {
      return stmt;
    }
    if (!At(TokKind::kIdent)) {
      Error("expected variable name");
      return stmt;
    }
    stmt->decl_name = Cur().text;
    Advance();
    if (Eat(TokKind::kLBracket)) {
      if (!At(TokKind::kIntLit)) {
        Error("expected array size");
        return stmt;
      }
      type = types_.Array(type, static_cast<uint64_t>(Cur().int_value));
      Advance();
      Expect(TokKind::kRBracket, "']'");
    }
    stmt->decl_type = type;
    if (Eat(TokKind::kAssign)) {
      if (Eat(TokKind::kLBrace)) {
        stmt->has_init_list = true;
        if (!At(TokKind::kRBrace)) {
          stmt->init_list.push_back(ParseAssign());
          while (Eat(TokKind::kComma)) {
            if (At(TokKind::kRBrace)) {
              break;
            }
            stmt->init_list.push_back(ParseAssign());
          }
        }
        Expect(TokKind::kRBrace, "'}'");
      } else {
        stmt->init = ParseAssign();
      }
    }
    Expect(TokKind::kSemi, "';'");
    return stmt;
  }

  std::unique_ptr<CStmt> ParseStatement() {
    SourceLoc loc = Cur().loc;
    switch (Cur().kind) {
      case TokKind::kLBrace:
        return ParseBlock();
      case TokKind::kSemi: {
        Advance();
        return std::make_unique<CStmt>(CStmtKind::kEmpty, loc);
      }
      case TokKind::kKwIf: {
        Advance();
        auto stmt = std::make_unique<CStmt>(CStmtKind::kIf, loc);
        Expect(TokKind::kLParen, "'('");
        stmt->cond = ParseExpr();
        Expect(TokKind::kRParen, "')'");
        stmt->then_branch = ParseStatement();
        if (Eat(TokKind::kKwElse)) {
          stmt->else_branch = ParseStatement();
        }
        return stmt;
      }
      case TokKind::kKwWhile: {
        Advance();
        auto stmt = std::make_unique<CStmt>(CStmtKind::kWhile, loc);
        Expect(TokKind::kLParen, "'('");
        stmt->cond = ParseExpr();
        Expect(TokKind::kRParen, "')'");
        stmt->body = ParseStatement();
        return stmt;
      }
      case TokKind::kKwDo: {
        Advance();
        auto stmt = std::make_unique<CStmt>(CStmtKind::kDoWhile, loc);
        stmt->body = ParseStatement();
        if (!Eat(TokKind::kKwWhile)) {
          Error("expected 'while' after do-body");
          return stmt;
        }
        Expect(TokKind::kLParen, "'('");
        stmt->cond = ParseExpr();
        Expect(TokKind::kRParen, "')'");
        Expect(TokKind::kSemi, "';'");
        return stmt;
      }
      case TokKind::kKwFor: {
        Advance();
        auto stmt = std::make_unique<CStmt>(CStmtKind::kFor, loc);
        Expect(TokKind::kLParen, "'('");
        if (!At(TokKind::kSemi)) {
          if (IsTypeStart(Cur().kind)) {
            stmt->for_init = ParseDeclStatement();  // consumes the ';'
          } else {
            auto init = std::make_unique<CStmt>(CStmtKind::kExpr, Cur().loc);
            init->expr = ParseExpr();
            stmt->for_init = std::move(init);
            Expect(TokKind::kSemi, "';'");
          }
        } else {
          Advance();
        }
        if (!At(TokKind::kSemi)) {
          stmt->cond = ParseExpr();
        }
        Expect(TokKind::kSemi, "';'");
        if (!At(TokKind::kRParen)) {
          stmt->for_step = ParseExpr();
        }
        Expect(TokKind::kRParen, "')'");
        stmt->body = ParseStatement();
        return stmt;
      }
      case TokKind::kKwReturn: {
        Advance();
        auto stmt = std::make_unique<CStmt>(CStmtKind::kReturn, loc);
        if (!At(TokKind::kSemi)) {
          stmt->expr = ParseExpr();
        }
        Expect(TokKind::kSemi, "';'");
        return stmt;
      }
      case TokKind::kKwBreak: {
        Advance();
        Expect(TokKind::kSemi, "';'");
        return std::make_unique<CStmt>(CStmtKind::kBreak, loc);
      }
      case TokKind::kKwContinue: {
        Advance();
        Expect(TokKind::kSemi, "';'");
        return std::make_unique<CStmt>(CStmtKind::kContinue, loc);
      }
      default:
        if (IsTypeStart(Cur().kind)) {
          return ParseDeclStatement();
        }
        auto stmt = std::make_unique<CStmt>(CStmtKind::kExpr, loc);
        stmt->expr = ParseExpr();
        Expect(TokKind::kSemi, "';'");
        return stmt;
    }
  }

  // ---- Expressions ----

  std::unique_ptr<CExpr> ParseExpr() {
    auto lhs = ParseAssign();
    while (At(TokKind::kComma)) {
      SourceLoc loc = Cur().loc;
      Advance();
      auto expr = std::make_unique<CExpr>(CExprKind::kComma, loc);
      expr->children.push_back(std::move(lhs));
      expr->children.push_back(ParseAssign());
      lhs = std::move(expr);
    }
    return lhs;
  }

  static bool IsAssignOp(TokKind kind) {
    switch (kind) {
      case TokKind::kAssign:
      case TokKind::kPlusAssign:
      case TokKind::kMinusAssign:
      case TokKind::kStarAssign:
      case TokKind::kSlashAssign:
      case TokKind::kPercentAssign:
      case TokKind::kAmpAssign:
      case TokKind::kPipeAssign:
      case TokKind::kCaretAssign:
      case TokKind::kShlAssign:
      case TokKind::kShrAssign:
        return true;
      default:
        return false;
    }
  }

  std::unique_ptr<CExpr> ParseAssign() {
    auto lhs = ParseConditional();
    if (IsAssignOp(Cur().kind)) {
      SourceLoc loc = Cur().loc;
      TokKind op = Cur().kind;
      Advance();
      auto expr = std::make_unique<CExpr>(CExprKind::kAssign, loc);
      expr->op = op;
      expr->children.push_back(std::move(lhs));
      expr->children.push_back(ParseAssign());  // right associative
      return expr;
    }
    return lhs;
  }

  std::unique_ptr<CExpr> ParseConditional() {
    auto cond = ParseBinary(0);
    if (!At(TokKind::kQuestion)) {
      return cond;
    }
    SourceLoc loc = Cur().loc;
    Advance();
    auto expr = std::make_unique<CExpr>(CExprKind::kCond, loc);
    expr->children.push_back(std::move(cond));
    expr->children.push_back(ParseExpr());
    Expect(TokKind::kColon, "':'");
    expr->children.push_back(ParseConditional());
    return expr;
  }

  static int BinaryPrecedence(TokKind kind) {
    switch (kind) {
      case TokKind::kPipePipe:
        return 1;
      case TokKind::kAmpAmp:
        return 2;
      case TokKind::kPipe:
        return 3;
      case TokKind::kCaret:
        return 4;
      case TokKind::kAmp:
        return 5;
      case TokKind::kEq:
      case TokKind::kNe:
        return 6;
      case TokKind::kLt:
      case TokKind::kGt:
      case TokKind::kLe:
      case TokKind::kGe:
        return 7;
      case TokKind::kShl:
      case TokKind::kShr:
        return 8;
      case TokKind::kPlus:
      case TokKind::kMinus:
        return 9;
      case TokKind::kStar:
      case TokKind::kSlash:
      case TokKind::kPercent:
        return 10;
      default:
        return -1;
    }
  }

  std::unique_ptr<CExpr> ParseBinary(int min_prec) {
    auto lhs = ParseUnary();
    while (true) {
      int prec = BinaryPrecedence(Cur().kind);
      if (prec < 0 || prec < min_prec) {
        return lhs;
      }
      TokKind op = Cur().kind;
      SourceLoc loc = Cur().loc;
      Advance();
      auto rhs = ParseBinary(prec + 1);
      auto expr = std::make_unique<CExpr>(CExprKind::kBinary, loc);
      expr->op = op;
      expr->children.push_back(std::move(lhs));
      expr->children.push_back(std::move(rhs));
      lhs = std::move(expr);
    }
  }

  std::unique_ptr<CExpr> ParseUnary() {
    SourceLoc loc = Cur().loc;
    switch (Cur().kind) {
      case TokKind::kPlus:
        Advance();
        return ParseUnary();  // unary plus is a no-op
      case TokKind::kMinus:
      case TokKind::kTilde:
      case TokKind::kBang:
      case TokKind::kStar:
      case TokKind::kAmp: {
        char op = Cur().kind == TokKind::kMinus   ? '-'
                  : Cur().kind == TokKind::kTilde ? '~'
                  : Cur().kind == TokKind::kBang  ? '!'
                  : Cur().kind == TokKind::kStar  ? '*'
                                                  : '&';
        Advance();
        auto expr = std::make_unique<CExpr>(CExprKind::kUnary, loc);
        expr->unary_op = op;
        expr->children.push_back(ParseUnary());
        return expr;
      }
      case TokKind::kPlusPlus:
      case TokKind::kMinusMinus: {
        TokKind op = Cur().kind;
        Advance();
        auto expr = std::make_unique<CExpr>(CExprKind::kIncDec, loc);
        expr->op = op;
        expr->is_prefix = true;
        expr->children.push_back(ParseUnary());
        return expr;
      }
      case TokKind::kKwSizeof: {
        Advance();
        Expect(TokKind::kLParen, "'('");
        auto expr = std::make_unique<CExpr>(CExprKind::kSizeof, loc);
        expr->sizeof_type = ParseTypeSpecifier();
        Expect(TokKind::kRParen, "')'");
        return expr;
      }
      case TokKind::kLParen:
        // Cast or parenthesized expression.
        if (IsTypeStart(Ahead(1).kind)) {
          Advance();
          auto expr = std::make_unique<CExpr>(CExprKind::kCast, loc);
          expr->cast_type = ParseTypeSpecifier();
          Expect(TokKind::kRParen, "')'");
          expr->children.push_back(ParseUnary());
          return expr;
        }
        return ParsePostfix();
      default:
        return ParsePostfix();
    }
  }

  std::unique_ptr<CExpr> ParsePostfix() {
    auto expr = ParsePrimary();
    while (true) {
      SourceLoc loc = Cur().loc;
      if (At(TokKind::kLBracket)) {
        Advance();
        auto index = std::make_unique<CExpr>(CExprKind::kIndex, loc);
        index->children.push_back(std::move(expr));
        index->children.push_back(ParseExpr());
        Expect(TokKind::kRBracket, "']'");
        expr = std::move(index);
      } else if (At(TokKind::kLParen)) {
        if (expr->kind != CExprKind::kIdent) {
          Error("called object is not a function name");
          return expr;
        }
        Advance();
        auto call = std::make_unique<CExpr>(CExprKind::kCall, loc);
        call->text = expr->text;
        if (!At(TokKind::kRParen)) {
          call->children.push_back(ParseAssign());
          while (Eat(TokKind::kComma)) {
            call->children.push_back(ParseAssign());
          }
        }
        Expect(TokKind::kRParen, "')'");
        expr = std::move(call);
      } else if (At(TokKind::kPlusPlus) || At(TokKind::kMinusMinus)) {
        auto inc = std::make_unique<CExpr>(CExprKind::kIncDec, loc);
        inc->op = Cur().kind;
        inc->is_prefix = false;
        Advance();
        inc->children.push_back(std::move(expr));
        expr = std::move(inc);
      } else {
        return expr;
      }
    }
  }

  std::unique_ptr<CExpr> ParsePrimary() {
    SourceLoc loc = Cur().loc;
    switch (Cur().kind) {
      case TokKind::kIntLit: {
        auto expr = std::make_unique<CExpr>(CExprKind::kIntLit, loc);
        expr->int_value = Cur().int_value;
        Advance();
        return expr;
      }
      case TokKind::kStringLit: {
        auto expr = std::make_unique<CExpr>(CExprKind::kStringLit, loc);
        expr->text = Cur().text;
        Advance();
        return expr;
      }
      case TokKind::kIdent: {
        auto expr = std::make_unique<CExpr>(CExprKind::kIdent, loc);
        expr->text = Cur().text;
        Advance();
        return expr;
      }
      case TokKind::kLParen: {
        Advance();
        auto expr = ParseExpr();
        Expect(TokKind::kRParen, "')'");
        return expr;
      }
      default:
        Error("expected expression");
        return std::make_unique<CExpr>(CExprKind::kIntLit, loc);
    }
  }

  std::vector<CToken> tokens_;
  CTypeContext& types_;
  DiagnosticEngine& diags_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<CTranslationUnit> ParseMiniC(const std::string& source, CTypeContext& types,
                                             DiagnosticEngine& diags) {
  CLexer lexer(source, diags);
  std::vector<CToken> tokens = lexer.Tokenize();
  if (diags.HasErrors()) {
    return nullptr;
  }
  return MiniCParser(std::move(tokens), types, diags).Run();
}

std::unique_ptr<CTranslationUnit> ParseMiniCTokens(std::vector<CToken> tokens,
                                                   CTypeContext& types, DiagnosticEngine& diags) {
  OVERIFY_ASSERT(!tokens.empty() && tokens.back().kind == TokKind::kEof,
                 "token stream must end with kEof");
  return MiniCParser(std::move(tokens), types, diags).Run();
}

}  // namespace overify
