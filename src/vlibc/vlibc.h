// Two flavors of the C library subset, both written in MiniC.
//
// The paper (§3, "Library-level changes") ships a verification-tailored libC
// alongside the compiler: KLEE did the same with uClibc, KLOVER rewrote C++
// library functions. Here:
//
//  - The STANDARD flavor is written the way a performance-oriented libc is:
//    short-circuit range-check chains in the ctype predicates, early-exit
//    loops. Under symbolic execution each predicate contributes multiple
//    branch alternatives per input byte (the O(3^n) of Table 1 at -O0).
//
//  - The VERIFY flavor computes the same functions branch-free (bitwise
//    range tricks) and adds precondition checks (`__check`) so that misuse
//    is caught "closer to the root cause" (§3).
//
// Both flavors are linked as MiniC source ahead of the program, one function
// at a time as the program reaches it (docs/compiler.md); functions are
// marked Function::is_libc so -OVERIFY always inlines them.
#pragma once

#include <string>

namespace overify {

// The performance-oriented flavor.
const std::string& StandardLibcSource();

// The verification-oriented flavor (same observable behaviour on all
// well-defined inputs; extra precondition checks on misuse).
const std::string& VerifyLibcSource();

}  // namespace overify
