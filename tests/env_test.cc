// Strict parsing of the OVERIFY_* environment knobs (src/support/env.h and
// its consumer, OVERIFY_FAULT_* in src/support/fault.cc).
//
// The contract under test: unset or empty means the compiled-in default,
// silently; anything else must be a complete in-range literal or the
// default is kept *and* a structured diagnostic names the variable, the
// offending value, and the accepted range. The failure mode this kills is
// the atoi one — a mistyped CI sweep value silently parsing to 0 and
// running a different experiment than the matrix claimed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/support/env.h"
#include "src/support/fault.h"

namespace overify {
namespace {

// Scoped setenv: every test leaves the environment as it found it, so
// suites can run in any order (and under CI sweeps that export real
// OVERIFY_* values — those are cleared for the duration too).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

// ---- The primitives ----

TEST(ParseEnvUint64, UnsetIsSilentDefault) {
  ScopedEnv env("OVERIFY_TEST_KNOB", nullptr);
  uint64_t out = 42;
  EnvParse parse = ParseEnvUint64("OVERIFY_TEST_KNOB", 1, 100, &out);
  EXPECT_FALSE(parse.present);
  EXPECT_FALSE(parse.ok);
  EXPECT_FALSE(parse.Rejected());
  EXPECT_EQ(out, 42u) << "out must be untouched";
}

TEST(ParseEnvUint64, ParsesCompleteLiterals) {
  ScopedEnv env("OVERIFY_TEST_KNOB", "64");
  uint64_t out = 0;
  EnvParse parse = ParseEnvUint64("OVERIFY_TEST_KNOB", 1, 100, &out);
  EXPECT_TRUE(parse.ok);
  EXPECT_EQ(out, 64u);

  ScopedEnv hex("OVERIFY_TEST_KNOB", "0x40");
  parse = ParseEnvUint64("OVERIFY_TEST_KNOB", 1, 100, &out);
  EXPECT_TRUE(parse.ok);
  EXPECT_EQ(out, 64u);
}

TEST(ParseEnvUint64, RejectsGarbageKeepingDefault) {
  // Each of these used to pass through atoi-style parsing as *something*.
  for (const char* bad : {"abc", "12abc", "12 ", " 12", "-5", "1e3", "", "0x", "++1"}) {
    ScopedEnv env("OVERIFY_TEST_KNOB", bad);
    uint64_t out = 42;
    EnvParse parse = ParseEnvUint64("OVERIFY_TEST_KNOB", 1, 100, &out);
    EXPECT_TRUE(parse.Rejected()) << "value '" << bad << "' must be rejected";
    EXPECT_EQ(out, 42u) << "default must survive '" << bad << "'";
    EXPECT_NE(parse.error.find("OVERIFY_TEST_KNOB"), std::string::npos)
        << "diagnostic must name the variable: " << parse.error;
  }
}

TEST(ParseEnvUint64, RejectsOutOfRange) {
  for (const char* bad : {"0", "101", "18446744073709551616"}) {
    ScopedEnv env("OVERIFY_TEST_KNOB", bad);
    uint64_t out = 42;
    EnvParse parse = ParseEnvUint64("OVERIFY_TEST_KNOB", 1, 100, &out);
    EXPECT_TRUE(parse.Rejected()) << bad;
    EXPECT_EQ(out, 42u);
  }
}

// ---- OVERIFY_FAULT_*: the robustness sweep knobs ----

TEST(FaultEnv, UnsetOrEmptySeedSilentlyDisables) {
  {
    ScopedEnv seed("OVERIFY_FAULT_SEED", nullptr);
    EXPECT_FALSE(FaultConfig::FromEnv().enabled());
  }
  {
    ScopedEnv seed("OVERIFY_FAULT_SEED", "");
    EXPECT_FALSE(FaultConfig::FromEnv().enabled());
  }
}

TEST(FaultEnv, GarbageSeedDisablesLoudly) {
  // strtoull("banana") == 0 used to silently disable the very injection a
  // robustness sweep thought it was running. Still disabled — injection
  // must never start from a value the user didn't write — but rejected as
  // a parse, not misread as "off".
  ScopedEnv seed("OVERIFY_FAULT_SEED", "banana");
  ScopedEnv period("OVERIFY_FAULT_PERIOD", nullptr);
  ScopedEnv sites("OVERIFY_FAULT_SITES", nullptr);
  const FaultConfig config = FaultConfig::FromEnv();
  EXPECT_FALSE(config.enabled());
}

TEST(FaultEnv, ValidSeedAndPeriod) {
  ScopedEnv seed("OVERIFY_FAULT_SEED", "12345");
  ScopedEnv period("OVERIFY_FAULT_PERIOD", "8");
  ScopedEnv sites("OVERIFY_FAULT_SITES", nullptr);
  const FaultConfig config = FaultConfig::FromEnv();
  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(config.seed, 12345u);
  EXPECT_EQ(config.period, 8u);
  EXPECT_EQ(config.sites, ~0u) << "absent sites list = all sites";
}

TEST(FaultEnv, GarbagePeriodKeepsDefault) {
  ScopedEnv seed("OVERIFY_FAULT_SEED", "1");
  ScopedEnv period("OVERIFY_FAULT_PERIOD", "soon");
  ScopedEnv sites("OVERIFY_FAULT_SITES", nullptr);
  const FaultConfig config = FaultConfig::FromEnv();
  EXPECT_TRUE(config.enabled()) << "a bad period must not disable injection";
  EXPECT_EQ(config.period, FaultConfig().period);
}

TEST(FaultEnv, SiteListParsesKnownNames) {
  ScopedEnv seed("OVERIFY_FAULT_SEED", "1");
  ScopedEnv period("OVERIFY_FAULT_PERIOD", nullptr);
  const std::string two = std::string(FaultSiteName(FaultSite::kSolverUnknown)) + "," +
                          FaultSiteName(FaultSite::kWorkerDeath);
  ScopedEnv sites("OVERIFY_FAULT_SITES", two.c_str());
  const FaultConfig config = FaultConfig::FromEnv();
  EXPECT_TRUE(config.SiteEnabled(FaultSite::kSolverUnknown));
  EXPECT_TRUE(config.SiteEnabled(FaultSite::kWorkerDeath));
  EXPECT_FALSE(config.SiteEnabled(FaultSite::kStealBatch));
}

TEST(FaultEnv, UnknownSiteRejectsWholeList) {
  // All-or-nothing: one typo must not silently run a narrower experiment.
  ScopedEnv seed("OVERIFY_FAULT_SEED", "1");
  ScopedEnv period("OVERIFY_FAULT_PERIOD", nullptr);
  const std::string bad =
      std::string(FaultSiteName(FaultSite::kSolverUnknown)) + ",not_a_site";
  ScopedEnv sites("OVERIFY_FAULT_SITES", bad.c_str());
  const FaultConfig config = FaultConfig::FromEnv();
  EXPECT_EQ(config.sites, ~0u) << "the whole list is rejected, keeping all-sites";
}

}  // namespace
}  // namespace overify
