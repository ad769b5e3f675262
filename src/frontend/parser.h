// MiniC parser: token stream -> CTranslationUnit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/frontend/ast.h"
#include "src/support/diagnostics.h"

namespace overify {

// Parses MiniC source. Types are allocated in `types`, which must outlive
// the returned AST. Returns null (with diagnostics) on error.
std::unique_ptr<CTranslationUnit> ParseMiniC(const std::string& source, CTypeContext& types,
                                             DiagnosticEngine& diags);

// Parses an already tokenized source; the last token must be kEof.
std::unique_ptr<CTranslationUnit> ParseMiniCTokens(std::vector<CToken> tokens,
                                                   CTypeContext& types, DiagnosticEngine& diags);

}  // namespace overify
