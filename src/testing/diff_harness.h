// Differential verification harness: one workload, every configuration.
//
// The engine's multi-worker steal path and per-check slicing sit on top of
// the optimization-level axis the paper studies. Each claims "identical
// results either way" — this harness is the single oracle that enforces the
// claim at suite scale instead of scattered per-feature equivalence tests.
// It runs a program through the configuration lattice
//
//   {-O0, -OVERIFY, -O3} x {1, 4 workers} [x {whole program, sliced}]
//
// and asserts a canonical RunSignature per cell:
//
//  - within one optimization level (same compiled module), the signature —
//    per-cause terminated counters, path/fork/instruction counts, and the
//    sorted bug reports with their confirmed models — must be bit-identical
//    across every scheduler configuration of an exhausted run;
//  - across levels the compiled programs differ, so counts are not
//    comparable; the semantic signature (exhaustion, plus the sorted set of
//    bug kinds with whether each confirmed) must still agree.
//
// "Confirmed" means the bug's example input was replayed through the
// concrete interpreter on that cell's build and actually trapped — the
// harness never trusts a model it has not executed.
//
// On mismatch the report carries a readable per-cell diff. Workloads come
// from the Coreutils suite (src/workloads) or from any MiniC source — the
// randomized kernel generator (src/workloads/textgen.h) plugs in through
// the source entry point for fuzz-style differential runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/compiler.h"
#include "src/symex/executor.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace difftest {

// One cell of the configuration lattice.
struct LatticeCell {
  OptLevel level = OptLevel::kOverify;
  unsigned jobs = 1;
  // Per-check slice verification (docs/slicing.md). Slice-mode path/fork
  // counts are per-slice sums, so slice cells form their own bit-identical
  // reference group within a level; the cross-level semantic comparison
  // still holds them to the same (kind, confirmed) bug set as whole-program
  // cells.
  bool slice_checks = false;

  // "-O3/j4" — stable, greppable cell id; slice-mode cells append
  // "/slice".
  std::string Name() const;
  SymexOptions ToOptions() const;
};

// One bug report in canonical form. Reports are compared field-by-field
// within a level; across levels only (kind, confirmed) participates.
struct BugSignature {
  BugKind kind = BugKind::kEngineError;
  std::string message;
  std::vector<uint8_t> example_input;
  // The example input was replayed through the concrete interpreter on this
  // cell's build and trapped.
  bool confirmed = false;

  bool operator==(const BugSignature& other) const {
    return kind == other.kind && message == other.message &&
           example_input == other.example_input && confirmed == other.confirmed;
  }
  bool operator<(const BugSignature& other) const;
};

// The canonical result of one cell's run: everything the determinism
// contract covers, nothing schedule-dependent (steal traffic, wall time and
// solver statistics are deliberately absent).
struct RunSignature {
  bool exhausted = false;
  uint64_t paths_completed = 0;
  uint64_t paths_bug = 0;
  uint64_t paths_limit = 0;
  uint64_t paths_unexplored = 0;
  // Solver-gave-up paths with their cause breakdown; part of the graceful
  // degradation contract (docs/robustness.md): a partial run's losses are
  // attributed, so they are part of the canonical signature.
  uint64_t paths_unknown = 0;
  uint64_t paths_unknown_budget = 0;
  uint64_t paths_unknown_deadline = 0;
  uint64_t paths_unknown_injected = 0;
  uint64_t instructions = 0;
  uint64_t forks = 0;
  StopCause stop_cause = StopCause::kNone;
  std::vector<BugSignature> bugs;  // sorted

  bool operator==(const RunSignature& other) const;
  bool operator!=(const RunSignature& other) const { return !(*this == other); }
  // Multi-line rendering for diffs and logs.
  std::string ToString() const;
};

// The level-independent part: exhaustion + sorted distinct (kind,
// confirmed) pairs. Comparable across optimization levels, where counts and
// messages are not.
struct SemanticSignature {
  bool exhausted = false;
  std::vector<std::pair<BugKind, bool>> bug_kinds;  // sorted, distinct

  bool operator==(const SemanticSignature& other) const {
    return exhausted == other.exhausted && bug_kinds == other.bug_kinds;
  }
  std::string ToString() const;
};

SemanticSignature SemanticOf(const RunSignature& signature);

// The canonical signature of one finished run — what every differential
// asserts per cell. Exposed for the verification daemon (which memoizes
// signatures per module content hash) and the warm/cold persistence
// differential. When `confirm_models` is set, each bug's example input is
// replayed through the concrete interpreter of `module` to fill
// BugSignature::confirmed.
RunSignature SignatureOf(const SymexResult& result, Module& module, const std::string& entry,
                         bool confirm_models);

struct DiffOptions {
  std::vector<OptLevel> levels = {OptLevel::kO0, OptLevel::kOverify, OptLevel::kO3};
  std::vector<unsigned> jobs = {1, 4};
  // Slice-mode axis (docs/slicing.md). Default spans whole-program only so
  // the base lattice's cost is unchanged; slicing suites set {false, true}
  // to assert slice-vs-whole verdict equivalence on top of the scheduler
  // axis.
  std::vector<bool> slicing = {false};
  std::string entry = "umain";
  SymexLimits limits;  // callers size this so every cell exhausts
  // Replay each bug's example input through the interpreter (sets
  // BugSignature::confirmed). Off skips the replays for speed.
  bool confirm_models = true;
  // Fail the report when any cell fails to exhaust within the limits. The
  // determinism contract covers exhausted runs only — a capped cell's
  // counts *and* bug set are whatever the schedule reached before the limit
  // — so with this off, capped cells are excluded from both the per-level
  // count comparison and the cross-level semantic comparison (exhausted
  // cells are still held to the full contract against each other).
  bool require_exhausted = true;
};

// The cells the options span, level-major (the harness compiles once per
// level and reuses the module across that level's scheduler cells).
std::vector<LatticeCell> FullLattice(const DiffOptions& options);

struct CellResult {
  LatticeCell cell;
  RunSignature signature;
  // The run's registry, schedule-dependent counters included. Never
  // compared; it lets a caller check what the run exercised (that a solver
  // workload reached the learning core, say).
  MetricsShard metrics;
};

struct DiffReport {
  std::string name;
  unsigned sym_bytes = 0;
  bool ok = false;
  // Human-readable mismatch description (empty when ok). Each divergence
  // names the cell, the reference cell, and the fields that differ.
  std::string diff;
  std::vector<CellResult> cells;
};

// Runs `source` (a MiniC program defining `entry`) with `sym_bytes`
// symbolic input bytes through every cell of the lattice and cross-checks
// the signatures. Compile failures and engine errors surface through
// DiffReport::diff.
DiffReport RunDifferential(const std::string& name, const std::string& source,
                           unsigned sym_bytes, const DiffOptions& options = {});

// Suite convenience: `sym_bytes` of 0 uses the workload's default.
DiffReport RunDifferential(const Workload& workload, unsigned sym_bytes = 0,
                           const DiffOptions& options = {});

// ---- Robustness differential ----
//
// The fault-and-budget counterpart of RunDifferential: instead of sweeping
// engine configurations and asserting equivalence, it sweeps injected fault
// seeds and tightened budgets and asserts the graceful-degradation contract
// (docs/robustness.md):
//
//  - same seed + budget + workers ⇒ reproducible: single-worker runs are
//    bit-identical run to run, faults included;
//  - an injected-fault run that still exhausts is bit-identical to the
//    fault-free run (faults may only cost completeness, never change
//    results);
//  - every partial run is fully cause-attributed: the unknown breakdown
//    sums, and a non-exhausted run names a stop cause or carries unknown
//    paths;
//  - every surviving bug report (engine errors aside) is confirmed by
//    concrete replay — soundness never degrades.
struct RobustnessOptions {
  std::vector<unsigned> jobs = {1, 4};
  // Fault seeds to sweep (0 entries are skipped: seed 0 means disabled).
  std::vector<uint64_t> fault_seeds = {0x0badc0de, 0x5eed5eed, 0x00c0ffee};
  uint32_t fault_period = 64;
  // max_paths values for the budget-limited determinism axis (run at one
  // worker, where partial signatures are schedule-independent).
  std::vector<uint64_t> path_budgets = {4, 64};
  std::string entry = "umain";
  SymexLimits limits;  // sized so the clean run exhausts
  OptLevel level = OptLevel::kOverify;
};

DiffReport RunRobustnessDifferential(const std::string& name, const std::string& source,
                                     unsigned sym_bytes,
                                     const RobustnessOptions& options = {});

// Suite convenience: `sym_bytes` of 0 uses the workload's default.
DiffReport RunRobustnessDifferential(const Workload& workload, unsigned sym_bytes = 0,
                                     const RobustnessOptions& options = {});

// ---- Warm/cold persistence differential ----
//
// The cross-run-cache counterpart of RunDifferential: proves that a run
// seeded from a persisted CacheStore (src/cache/persist.h) is
// signature-identical to a cold run of the same module. Per worker count it
// runs cold without a store (the reference), cold with an empty store (the
// harvest), then `rounds` warm runs — each consuming the store through a
// full serialize/deserialize round trip, exactly what a new process (or the
// daemon's next client) would see. Any divergence, a store that fails its
// own round trip, or a warm round that seeded nothing lands in
// DiffReport::diff.
struct WarmColdOptions {
  OptLevel level = OptLevel::kOverify;
  std::vector<unsigned> jobs = {1, 4};
  // Warm reruns per worker count; each harvests back into the store, so
  // round N+1 consumes what round N (and the cold run) learned.
  unsigned rounds = 2;
  std::string entry = "umain";
  SymexLimits limits;  // sized so every run exhausts
};

DiffReport RunWarmColdDifferential(const std::string& name, const std::string& source,
                                   unsigned sym_bytes, const WarmColdOptions& options = {});

// Suite convenience: `sym_bytes` of 0 uses the workload's default.
DiffReport RunWarmColdDifferential(const Workload& workload, unsigned sym_bytes = 0,
                                   const WarmColdOptions& options = {});

}  // namespace difftest
}  // namespace overify
