// Seed-deterministic fault injection for robustness testing.
//
// The engine's graceful-degradation contract (docs/robustness.md) is only
// testable if its failure modes can be provoked on demand and reproduced
// exactly. A FaultInjector does that: each named injection site draws from
// a private counter-based stream — fire decisions are a pure function of
// (seed, worker index, site, draw ordinal), never of wall time or memory
// layout — so a failing seed replays bit-identically, and a single-worker
// run with faults enabled is as deterministic as one without.
//
// A draw costs one hash; disabled injectors (seed 0, the default) cost one
// predictable branch, so the sites stay in release builds.
#pragma once

#include <cstdint>
#include <string>

namespace overify {

// Named injection sites. Each models one real failure the engine must
// degrade through, not crash on (docs/robustness.md spells out the expected
// behavior per site).
enum class FaultSite : unsigned {
  kSolverUnknown = 0,     // a solver query gives up (returns kUnknown)
  kPrefixCacheLookup,     // the counterexample cache misses spuriously
  kStealBatch,            // a steal attempt against one victim fails
  kWorkerStall,           // a worker pauses before running a state
  kWorkerDeath,           // a worker dies mid-state and never returns
  kNumSites,
};

const char* FaultSiteName(FaultSite site);

struct FaultConfig {
  // 0 disables every site (the default: production runs draw nothing).
  uint64_t seed = 0;
  // Mean draws between fires per site; 1 fires on every draw.
  uint32_t period = 64;
  // Per-site enable bitmask (bit = static_cast<unsigned>(site)).
  uint32_t sites = ~0u;
  // Upper bound on worker deaths per run, claimed atomically across workers
  // (jobs - 1 guarantees a survivor, so the run still exhausts).
  uint32_t max_worker_deaths = ~0u;

  bool enabled() const { return seed != 0; }
  bool SiteEnabled(FaultSite site) const {
    return enabled() && (sites & (1u << static_cast<unsigned>(site))) != 0;
  }

  // Reads OVERIFY_FAULT_SEED / OVERIFY_FAULT_PERIOD / OVERIFY_FAULT_SITES
  // (comma-separated site names; absent = all). Returns the disabled config
  // when OVERIFY_FAULT_SEED is unset or empty — tests use this to join a CI
  // seed sweep without code changes. Parsing is strict (src/support/env.h):
  // a malformed value keeps the compiled-in default and prints a one-line
  // diagnostic rather than silently running a different experiment.
  static FaultConfig FromEnv();
};

// Fires per site, synced into the fault.* counters of the run's metrics
// registry (SymexResult::metrics). Excluded from the determinism contract's
// RunSignature, like steal traffic: multi-worker draw interleavings are
// schedule-dependent even though each worker's stream is not.
struct FaultStats {
  uint64_t solver_unknown = 0;
  uint64_t cache_lookup = 0;
  uint64_t steal_batch = 0;
  uint64_t worker_stalls = 0;
  uint64_t worker_deaths = 0;
  uint64_t draws = 0;

  void Accumulate(const FaultStats& other);
  uint64_t TotalFires() const {
    return solver_unknown + cache_lookup + steal_batch + worker_stalls + worker_deaths;
  }
};

class FaultInjector {
 public:
  // Disabled injector: Fire() always returns false.
  FaultInjector() = default;
  // One injector per worker; the worker index salts the stream so workers
  // draw independent (but individually reproducible) sequences.
  FaultInjector(const FaultConfig& config, unsigned worker_index);

  bool enabled() const { return config_.enabled(); }
  const FaultConfig& config() const { return config_; }

  // Advances `site`'s counter and returns whether the fault fires there.
  bool Fire(FaultSite site);

  const FaultStats& stats() const { return stats_; }

 private:
  FaultConfig config_;
  uint64_t stream_ = 0;
  uint64_t counters_[static_cast<unsigned>(FaultSite::kNumSites)] = {};
  FaultStats stats_;
};

}  // namespace overify
