// Pass interfaces and the pass manager.
//
// -OVERIFY (§3 of the paper) is "a set of compiler passes suitable for
// verification tools" plus adjusted cost parameters; the pass manager is the
// machinery that lets pipelines express exactly that.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/support/metrics.h"

namespace overify {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  // Returns true if the IR was modified.
  virtual bool Run(Module& module) = 0;

  // Where the pass's compile-phase counters land: the owning PassManager's
  // shard. A pass run outside a manager counts nothing.
  void set_metrics(MetricsShard* metrics) { metrics_ = metrics; }

 protected:
  void Count(Counter c, uint64_t n = 1) {
    if (metrics_ != nullptr) {
      metrics_->Add(c, n);
    }
  }

 private:
  MetricsShard* metrics_ = nullptr;
};

// A pass that processes each function body independently.
class FunctionPass : public Pass {
 public:
  bool Run(Module& module) final;
  virtual bool RunOnFunction(Function& fn) = 0;
};

// Whether the pass manager verifies the IR between pipeline passes by
// default: on in debug builds and whenever the build defines
// OVERIFY_VERIFY_IR (the CMake option of the same name; the sanitizer CI
// job turns it on), off in plain release builds where the per-pass
// verification cost buys nothing the test suite's explicit verifier checks
// do not already cover.
#if defined(OVERIFY_VERIFY_IR) || !defined(NDEBUG)
inline constexpr bool kVerifyIRAfterEachPass = true;
#else
inline constexpr bool kVerifyIRAfterEachPass = false;
#endif

class PassManager {
 public:
  struct Timing {
    std::string pass_name;
    double seconds = 0;
    bool changed = false;
  };

  // When true, the IR verifier runs after every pass and aborts on breakage.
  explicit PassManager(bool verify_after_each = kVerifyIRAfterEachPass)
      : verify_after_each_(verify_after_each) {}
  // Added passes point at metrics_, so a manager stays where it was built.
  PassManager(const PassManager&) = delete;
  PassManager& operator=(const PassManager&) = delete;

  void Add(std::unique_ptr<Pass> pass) {
    pass->set_metrics(&metrics_);
    passes_.push_back(std::move(pass));
  }

  // Runs all passes in order; returns true if any changed the module.
  bool Run(Module& module);

  const std::vector<Timing>& timings() const { return timings_; }
  // The compile-phase counters of every pass this manager ran (Table 3's
  // rows), accumulated across Run calls. Each manager owns its shard, so
  // concurrent compiles never see each other's counts.
  const MetricsShard& metrics() const { return metrics_; }
  bool verify_after_each() const { return verify_after_each_; }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<Timing> timings_;
  MetricsShard metrics_;
  bool verify_after_each_;
};

}  // namespace overify
