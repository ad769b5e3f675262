#include "src/support/env.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace overify {
namespace {

// Shared shape of a rejection diagnostic: variable, offending value, reason,
// accepted range. Keeping it in one place keeps the CI grep for these
// messages trivial.
std::string Diagnostic(const char* name, const char* value, const char* reason,
                       const std::string& range) {
  std::string msg = "invalid ";
  msg += name;
  msg += "=\"";
  msg += value;
  msg += "\": ";
  msg += reason;
  msg += " (expected ";
  msg += range;
  msg += "); using default";
  return msg;
}

bool IsSpaceOnly(const char* s) {
  for (; *s; ++s) {
    if (!std::isspace(static_cast<unsigned char>(*s))) return false;
  }
  return true;
}

}  // namespace

EnvParse ParseEnvUint64(const char* name, uint64_t min_value, uint64_t max_value,
                        uint64_t* out) {
  EnvParse parse;
  const char* raw = std::getenv(name);
  if (raw == nullptr) return parse;
  parse.present = true;

  const std::string range = "integer in [" + std::to_string(min_value) + ", " +
                            std::to_string(max_value) + "]";
  if (*raw == '\0' || IsSpaceOnly(raw)) {
    parse.error = Diagnostic(name, raw, "empty value", range);
    return parse;
  }
  // strtoull skips leading whitespace and parses "-1" as a huge unsigned;
  // a complete literal allows neither.
  if (std::isspace(static_cast<unsigned char>(*raw))) {
    parse.error = Diagnostic(name, raw, "leading whitespace", range);
    return parse;
  }
  if (*raw == '-' || *raw == '+') {
    parse.error = Diagnostic(name, raw, "sign not allowed", range);
    return parse;
  }

  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(raw, &end, 0);
  if (end == raw || *end != '\0') {
    parse.error = Diagnostic(name, raw, "not a number", range);
    return parse;
  }
  if (errno == ERANGE || value < min_value || value > max_value) {
    parse.error = Diagnostic(name, raw, "out of range", range);
    return parse;
  }
  parse.ok = true;
  *out = static_cast<uint64_t>(value);
  return parse;
}

std::string ReportEnvError(const EnvParse& parse) {
  if (!parse.Rejected()) return std::string();
  std::fprintf(stderr, "overify: %s\n", parse.error.c_str());
  return parse.error;
}

}  // namespace overify
