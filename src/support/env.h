// Strict environment-variable parsing for the OVERIFY_* knobs.
//
// The engine's tuning variables (OVERIFY_FAULT_*) used to go through
// atoi-style parsing, which silently turns "abc" into 0 and accepts
// trailing garbage — a mistyped CI sweep value then runs a *different
// experiment* without anyone noticing. These helpers reject
// anything that is not a complete, in-range literal and return a structured
// diagnostic naming the variable, the offending value, and the accepted
// range; callers keep their compiled-in default and surface the diagnostic
// instead of guessing.
#pragma once

#include <cstdint>
#include <string>

namespace overify {

// Outcome of one environment lookup. `present` distinguishes "unset" (not
// an error: the default applies silently) from "set but rejected".
struct EnvParse {
  bool present = false;  // the variable was set (to anything, even garbage)
  bool ok = false;       // present and parsed as a complete in-range literal
  std::string error;     // structured diagnostic when present && !ok

  // Present and rejected — the caller should report `error`.
  bool Rejected() const { return present && !ok; }
};

// Parses `name` as an unsigned decimal/hex integer (0x prefix accepted) in
// [min_value, max_value]. On success writes `*out`; otherwise `*out` is
// untouched, so callers can pre-load it with the default.
EnvParse ParseEnvUint64(const char* name, uint64_t min_value, uint64_t max_value,
                        uint64_t* out);

// Reports a rejected parse on stderr (one line, prefixed "overify:"), and
// returns the same diagnostic so callers embedding it elsewhere (structured
// errors, logs) do not re-format. No-op (empty string) when !Rejected().
std::string ReportEnvError(const EnvParse& parse);

}  // namespace overify
