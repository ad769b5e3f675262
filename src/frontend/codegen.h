// MiniC -> VIR code generation (with integrated type checking).
//
// Code is emitted naively, the way a non-optimizing C compiler would: every
// local lives in an alloca, short-circuit operators branch, comparisons
// produce icmp+zext. That naivety is load-bearing: it is exactly the -O0
// baseline whose verification cost Table 1 of the paper measures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/support/diagnostics.h"

namespace overify {

struct MiniCSource {
  std::string code;
  // A libc source is linked like an archive: only the functions the program
  // reaches are emitted (see CompileMiniC). They are marked
  // Function::is_libc (the -OVERIFY pipeline always-inlines them).
  bool is_libc = false;
};

// Compiles the given sources, sharing one symbol table, into a fresh
// module: first the linked functions of every libc source, in libc order,
// then the other sources in order. A libc function is linked when a
// program function names it (calls it, declares it or defines it) or when
// a linked libc function calls it; a libc global always is. With no
// program source, every libc function is linked. Returns null and fills
// `diags` on error.
std::unique_ptr<Module> CompileMiniC(const std::vector<MiniCSource>& sources,
                                     const std::string& module_name, DiagnosticEngine& diags);

// Single-source convenience wrapper.
std::unique_ptr<Module> CompileMiniC(const std::string& source, const std::string& module_name,
                                     DiagnosticEngine& diags);

}  // namespace overify
