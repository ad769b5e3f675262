#include "src/testing/diff_harness.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/cache/persist.h"
#include "src/exec/interpreter.h"

namespace overify {
namespace difftest {

namespace {

void AppendBytes(std::ostringstream& out, const std::vector<uint8_t>& bytes) {
  out << "[";
  for (size_t i = 0; i < bytes.size(); ++i) {
    out << (i == 0 ? "" : " ") << static_cast<unsigned>(bytes[i]);
  }
  out << "]";
}

}  // namespace

std::string LatticeCell::Name() const {
  std::ostringstream out;
  out << OptLevelName(level) << "/j" << jobs;
  if (slice_checks) {
    out << "/slice";
  }
  return out.str();
}

SymexOptions LatticeCell::ToOptions() const {
  SymexOptions options;
  options.jobs = jobs;
  options.slice_checks = slice_checks;
  return options;
}

bool BugSignature::operator<(const BugSignature& other) const {
  if (kind != other.kind) {
    return kind < other.kind;
  }
  if (message != other.message) {
    return message < other.message;
  }
  if (example_input != other.example_input) {
    return example_input < other.example_input;
  }
  return confirmed < other.confirmed;
}

bool RunSignature::operator==(const RunSignature& other) const {
  return exhausted == other.exhausted && paths_completed == other.paths_completed &&
         paths_bug == other.paths_bug && paths_limit == other.paths_limit &&
         paths_unexplored == other.paths_unexplored &&
         paths_unknown == other.paths_unknown &&
         paths_unknown_budget == other.paths_unknown_budget &&
         paths_unknown_deadline == other.paths_unknown_deadline &&
         paths_unknown_injected == other.paths_unknown_injected &&
         instructions == other.instructions && forks == other.forks &&
         stop_cause == other.stop_cause && bugs == other.bugs;
}

std::string RunSignature::ToString() const {
  std::ostringstream out;
  out << (exhausted ? "exhausted" : "CAPPED") << " paths=" << paths_completed
      << " bug=" << paths_bug << " limit=" << paths_limit << " unexplored=" << paths_unexplored
      << " unknown=" << paths_unknown << " (budget=" << paths_unknown_budget
      << " deadline=" << paths_unknown_deadline << " injected=" << paths_unknown_injected
      << ")" << " instructions=" << instructions << " forks=" << forks
      << " stop=" << StopCauseName(stop_cause);
  for (const BugSignature& bug : bugs) {
    out << "\n    bug " << BugKindName(bug.kind) << " '" << bug.message << "' input=";
    AppendBytes(out, bug.example_input);
    out << (bug.confirmed ? " (confirmed)" : " (UNCONFIRMED)");
  }
  return out.str();
}

std::string SemanticSignature::ToString() const {
  std::ostringstream out;
  out << (exhausted ? "exhausted" : "CAPPED") << " kinds=[";
  for (size_t i = 0; i < bug_kinds.size(); ++i) {
    out << (i == 0 ? "" : " ") << BugKindName(bug_kinds[i].first)
        << (bug_kinds[i].second ? "+confirmed" : "+unconfirmed");
  }
  out << "]";
  return out.str();
}

SemanticSignature SemanticOf(const RunSignature& signature) {
  SemanticSignature semantic;
  semantic.exhausted = signature.exhausted;
  for (const BugSignature& bug : signature.bugs) {
    semantic.bug_kinds.emplace_back(bug.kind, bug.confirmed);
  }
  std::sort(semantic.bug_kinds.begin(), semantic.bug_kinds.end());
  semantic.bug_kinds.erase(std::unique(semantic.bug_kinds.begin(), semantic.bug_kinds.end()),
                           semantic.bug_kinds.end());
  return semantic;
}

std::vector<LatticeCell> FullLattice(const DiffOptions& options) {
  std::vector<LatticeCell> cells;
  for (OptLevel level : options.levels) {
    for (unsigned jobs : options.jobs) {
      for (bool slice : options.slicing) {
        LatticeCell cell;
        cell.level = level;
        cell.jobs = jobs;
        cell.slice_checks = slice;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

// Builds the canonical signature of one run, replaying bug inputs through
// the interpreter of this cell's build when confirmation is on.
RunSignature SignatureOf(const SymexResult& result, Module& module, const std::string& entry,
                         bool confirm_models) {
  RunSignature signature;
  const MetricsShard& m = result.metrics;
  signature.exhausted = result.exhausted;
  signature.paths_completed = m.Get(Counter::kPathsCompleted);
  signature.paths_bug = m.Get(Counter::kPathsBug);
  signature.paths_limit = m.Get(Counter::kPathsLimit);
  signature.paths_unexplored = m.Get(Counter::kPathsUnexplored);
  signature.paths_unknown = m.Get(Counter::kPathsUnknown);
  signature.paths_unknown_budget = m.Get(Counter::kPathsUnknownBudget);
  signature.paths_unknown_deadline = m.Get(Counter::kPathsUnknownDeadline);
  signature.paths_unknown_injected = m.Get(Counter::kPathsUnknownInjected);
  signature.instructions = m.Get(Counter::kInstructions);
  signature.forks = m.Get(Counter::kForks);
  signature.stop_cause = result.stop_cause;
  Function* entry_fn = module.GetFunction(entry);
  for (const BugReport& bug : result.bugs) {
    BugSignature sig;
    sig.kind = bug.kind;
    sig.message = bug.message;
    sig.example_input = bug.example_input;
    if (confirm_models && entry_fn != nullptr && !bug.example_input.empty()) {
      Interpreter interp(module);
      InterpResult replay = interp.Run(entry_fn, bug.example_input);
      sig.confirmed = !replay.ok;
    }
    signature.bugs.push_back(std::move(sig));
  }
  std::sort(signature.bugs.begin(), signature.bugs.end());
  return signature;
}

namespace {

void DescribeMismatch(std::ostringstream& diff, const LatticeCell& reference_cell,
                      const RunSignature& reference, const LatticeCell& cell,
                      const RunSignature& actual) {
  diff << "cell " << cell.Name() << " diverges from " << reference_cell.Name() << ":\n"
       << "  reference: " << reference.ToString() << "\n"
       << "  actual:    " << actual.ToString() << "\n";
}

}  // namespace

DiffReport RunDifferential(const std::string& name, const std::string& source,
                           unsigned sym_bytes, const DiffOptions& options) {
  DiffReport report;
  report.name = name;
  report.sym_bytes = sym_bytes;
  std::ostringstream diff;

  // Reference semantic signature across levels (from the first cell of the
  // first level group).
  bool have_semantic_reference = false;
  SemanticSignature semantic_reference;
  LatticeCell semantic_reference_cell;

  for (OptLevel level : options.levels) {
    Compiler compiler;
    CompileResult compiled = compiler.Compile(source, level, name);
    if (!compiled.ok) {
      diff << "compile failed at " << OptLevelName(level) << ":\n" << compiled.errors << "\n";
      continue;
    }

    // Within one level every scheduler cell must produce the same
    // canonical signature; the first cell is the reference. Slice-mode cells
    // form their own reference group — their path/fork counts are per-slice
    // sums, comparable only to other slice cells (the cross-level semantic
    // comparison below still ties the two groups' bug sets together).
    struct LevelReference {
      bool have = false;
      RunSignature signature;
      LatticeCell cell;
    };
    std::map<bool, LevelReference> references;  // keyed by slice_checks
    for (const LatticeCell& cell : FullLattice(options)) {
      if (cell.level != level) {
        continue;
      }
      LevelReference& ref = references[cell.slice_checks];
      SymexResult result =
          Analyze(compiled, options.entry, sym_bytes, options.limits, cell.ToOptions());
      if (!result.ok) {
        diff << "cell " << cell.Name() << " rejected the input: " << result.error << "\n";
        continue;
      }
      RunSignature signature =
          SignatureOf(result, *compiled.module, options.entry, options.confirm_models);
      report.cells.push_back(CellResult{cell, signature, result.metrics});

      for (const BugSignature& bug : signature.bugs) {
        if (bug.kind == BugKind::kEngineError) {
          diff << "cell " << cell.Name() << " hit an engine error: " << bug.message << "\n";
        }
      }
      if (options.require_exhausted && !signature.exhausted) {
        diff << "cell " << cell.Name() << " did not exhaust within the limits: "
             << signature.ToString() << "\n";
      }

      if (!ref.have) {
        ref.have = true;
        ref.signature = signature;
        ref.cell = cell;
      } else {
        // Counts are only contractual on exhausted runs; when exhaustion is
        // not required, capped cells fall back to the semantic comparison
        // below, and the reference is promoted to the group's first
        // *exhausted* cell so exhausted cells are still held to the
        // bit-identical contract against each other.
        bool comparable = options.require_exhausted ||
                          (ref.signature.exhausted && signature.exhausted);
        if (comparable && signature != ref.signature) {
          DescribeMismatch(diff, ref.cell, ref.signature, cell, signature);
        }
        if (!options.require_exhausted && !ref.signature.exhausted && signature.exhausted) {
          ref.signature = signature;
          ref.cell = cell;
        }
      }

      // Cross-level semantics are only contractual for exhausted cells: a
      // capped run's bug set is whatever the schedule discovered before the
      // limit, so capped cells (tolerated when exhaustion is not required)
      // stay out of this comparison entirely.
      if (signature.exhausted) {
        SemanticSignature semantic = SemanticOf(signature);
        if (!have_semantic_reference) {
          have_semantic_reference = true;
          semantic_reference = semantic;
          semantic_reference_cell = cell;
        } else if (!(semantic == semantic_reference)) {
          diff << "cell " << cell.Name() << " semantic signature diverges from "
               << semantic_reference_cell.Name() << ":\n"
               << "  reference: " << semantic_reference.ToString() << "\n"
               << "  actual:    " << semantic.ToString() << "\n";
        }
      }
    }
    bool any_ran = false;
    for (const auto& [slice, ref] : references) {
      (void)slice;
      any_ran = any_ran || ref.have;
    }
    if (!any_ran) {
      diff << "no cells ran at " << OptLevelName(level) << "\n";
    }
  }

  if (report.cells.empty()) {
    diff << "no lattice cells ran\n";
  }
  report.diff = diff.str();
  report.ok = report.diff.empty();
  return report;
}

DiffReport RunDifferential(const Workload& workload, unsigned sym_bytes,
                           const DiffOptions& options) {
  return RunDifferential(workload.name, workload.source,
                         sym_bytes == 0 ? workload.default_sym_bytes : sym_bytes, options);
}

namespace {

// The degradation contract's invariants on one result, independent of any
// reference: cause attribution must sum, and a partial run must say why it
// is partial. `signature` carries the result's path counters.
void CheckAttribution(std::ostringstream& diff, const std::string& label,
                      const SymexResult& result, const RunSignature& signature) {
  if (signature.paths_unknown != signature.paths_unknown_budget +
                                     signature.paths_unknown_deadline +
                                     signature.paths_unknown_injected) {
    diff << label << ": unknown breakdown does not sum: " << signature.ToString() << "\n";
  }
  if (!result.exhausted && result.stop_cause == StopCause::kNone &&
      signature.paths_unknown == 0) {
    diff << label << ": partial run with no attributed cause: " << signature.ToString()
         << "\n";
  }
  for (const BugSignature& bug : signature.bugs) {
    // Soundness must not degrade: every surviving report replays. Engine
    // errors are the one exception — the interpreter has no equivalent trap
    // for an engine-side limitation.
    if (bug.kind != BugKind::kEngineError && !bug.confirmed) {
      diff << label << ": bug report not confirmed by replay: " << BugKindName(bug.kind)
           << " '" << bug.message << "'\n";
    }
  }
}

}  // namespace

DiffReport RunRobustnessDifferential(const std::string& name, const std::string& source,
                                     unsigned sym_bytes, const RobustnessOptions& options) {
  DiffReport report;
  report.name = name;
  report.sym_bytes = sym_bytes;
  std::ostringstream diff;

  Compiler compiler;
  CompileResult compiled = compiler.Compile(source, options.level, name);
  if (!compiled.ok) {
    diff << "compile failed at " << OptLevelName(options.level) << ":\n"
         << compiled.errors << "\n";
    report.diff = diff.str();
    return report;
  }

  auto run_once = [&](const SymexOptions& opts, const SymexLimits& limits,
                      const std::string& label, SymexResult* result_out) -> RunSignature {
    SymexResult result = Analyze(compiled, options.entry, sym_bytes, limits, opts);
    if (!result.ok) {
      diff << label << " rejected the input: " << result.error << "\n";
    }
    RunSignature signature =
        SignatureOf(result, *compiled.module, options.entry, /*confirm_models=*/true);
    CheckAttribution(diff, label, result, signature);
    if (result_out != nullptr) {
      *result_out = std::move(result);
    }
    return signature;
  };

  // Fault-free references, one per worker count. Exhausted clean runs are
  // already bit-identical across worker counts (the scheduler contract);
  // re-check it here so a broken reference does not masquerade as a fault
  // regression.
  std::map<unsigned, RunSignature> clean;
  for (unsigned jobs : options.jobs) {
    SymexOptions opts;
    opts.jobs = jobs;
    std::string label = "clean/j" + std::to_string(jobs);
    RunSignature signature = run_once(opts, options.limits, label, nullptr);
    if (!signature.exhausted) {
      diff << label << " did not exhaust within the limits (size RobustnessOptions::limits "
           << "so it does): " << signature.ToString() << "\n";
    }
    if (!clean.empty() && signature != clean.begin()->second) {
      diff << label << " diverges from clean/j" << clean.begin()->first << ":\n"
           << "  reference: " << clean.begin()->second.ToString() << "\n"
           << "  actual:    " << signature.ToString() << "\n";
    }
    clean.emplace(jobs, std::move(signature));
  }

  // Fault axis: every seed x worker count, run twice. Single-worker runs
  // must reproduce bit for bit; any run that still exhausts must match the
  // clean reference exactly (injected faults may only cost completeness).
  for (uint64_t seed : options.fault_seeds) {
    if (seed == 0) {
      continue;  // seed 0 means disabled
    }
    for (unsigned jobs : options.jobs) {
      SymexOptions opts;
      opts.jobs = jobs;
        opts.faults.seed = seed;
      opts.faults.period = options.fault_period;
      // Keep at least one worker alive so multi-worker runs can still
      // exhaust; at one worker a death would just abandon the run.
      opts.faults.max_worker_deaths = jobs > 1 ? jobs - 1 : 0;
      std::ostringstream label_out;
      label_out << "faults/seed=0x" << std::hex << seed << std::dec << "/j" << jobs;
      std::string label = label_out.str();

      RunSignature first = run_once(opts, options.limits, label + "/run1", nullptr);
      RunSignature second = run_once(opts, options.limits, label + "/run2", nullptr);
      if (jobs == 1 && first != second) {
        diff << label << " is not reproducible at one worker:\n"
             << "  run1: " << first.ToString() << "\n"
             << "  run2: " << second.ToString() << "\n";
      }
      for (const RunSignature* signature : {&first, &second}) {
        if (signature->exhausted && *signature != clean.at(jobs)) {
          diff << label << " exhausted but diverges from the fault-free run:\n"
               << "  clean:   " << clean.at(jobs).ToString() << "\n"
               << "  faulted: " << signature->ToString() << "\n";
        }
      }
    }
  }

  // Budget axis at one worker: a tightened max_paths must yield the same
  // partial signature on every run — budget-limited degradation is
  // deterministic, not merely bounded.
  for (uint64_t budget : options.path_budgets) {
    SymexLimits limits = options.limits;
    limits.max_paths = budget;
    SymexOptions opts;
    opts.jobs = 1;
    std::string label = "budget/max_paths=" + std::to_string(budget);
    RunSignature first = run_once(opts, limits, label + "/run1", nullptr);
    RunSignature second = run_once(opts, limits, label + "/run2", nullptr);
    if (first != second) {
      diff << label << " is not deterministic:\n"
           << "  run1: " << first.ToString() << "\n"
           << "  run2: " << second.ToString() << "\n";
    }
  }

  report.diff = diff.str();
  report.ok = report.diff.empty();
  return report;
}

DiffReport RunRobustnessDifferential(const Workload& workload, unsigned sym_bytes,
                                     const RobustnessOptions& options) {
  return RunRobustnessDifferential(workload.name, workload.source,
                                   sym_bytes == 0 ? workload.default_sym_bytes : sym_bytes,
                                   options);
}

DiffReport RunWarmColdDifferential(const std::string& name, const std::string& source,
                                   unsigned sym_bytes, const WarmColdOptions& options) {
  DiffReport report;
  report.name = name;
  report.sym_bytes = sym_bytes;
  std::ostringstream diff;

  Compiler compiler;
  CompileResult compiled = compiler.Compile(source, options.level, name);
  if (!compiled.ok) {
    diff << "compile failed at " << OptLevelName(options.level) << ":\n"
         << compiled.errors << "\n";
    report.diff = diff.str();
    return report;
  }

  for (unsigned jobs : options.jobs) {
    LatticeCell cell;
    cell.level = options.level;
    cell.jobs = jobs;
    const std::string base = "warmcold/j" + std::to_string(jobs);

    auto run_once = [&](CacheStore* store, const std::string& label,
                        SymexResult* result_out) -> RunSignature {
      SymexOptions opts = cell.ToOptions();
      opts.cache_store = store;
      SymexResult result = Analyze(compiled, options.entry, sym_bytes, options.limits, opts);
      if (!result.ok) {
        diff << label << " rejected the input: " << result.error << "\n";
      }
      RunSignature signature =
          SignatureOf(result, *compiled.module, options.entry, /*confirm_models=*/true);
      if (result_out != nullptr) {
        *result_out = std::move(result);
      }
      return signature;
    };

    // The reference: a cold run with no store at all.
    SymexResult cold_result;
    RunSignature reference = run_once(nullptr, base + "/cold", &cold_result);
    report.cells.push_back(CellResult{cell, reference, cold_result.metrics});
    if (!reference.exhausted) {
      diff << base << "/cold did not exhaust within the limits (size "
           << "WarmColdOptions::limits so it does): " << reference.ToString() << "\n";
    }

    // Cold-with-store: an empty store seeds nothing, so attaching it must
    // change nothing — and its harvest becomes round 1's seed.
    CacheStore store;
    RunSignature harvest = run_once(&store, base + "/harvest", nullptr);
    if (harvest != reference) {
      DescribeMismatch(diff, cell, reference, cell, harvest);
      diff << "  (attaching an empty store changed the run)\n";
    }

    for (unsigned round = 1; round <= options.rounds; ++round) {
      const std::string label = base + "/warm" + std::to_string(round);
      // Full byte round trip between rounds: the warm run consumes exactly
      // what a fresh process loading the file would.
      CacheStore reloaded;
      if (!reloaded.Deserialize(store.Serialize())) {
        diff << label << ": store failed its own round trip: " << reloaded.load_error()
             << "\n";
        break;
      }
      SymexResult warm_result;
      RunSignature warm = run_once(&reloaded, label, &warm_result);
      if (warm != reference) {
        DescribeMismatch(diff, cell, reference, cell, warm);
        diff << "  (warm round " << round << " diverged from the cold reference)\n";
      }
      if (warm_result.metrics.Get(Counter::kPersistSeeded) == 0) {
        diff << label << ": the persisted store seeded no cache entries — the warm axis "
             << "proved nothing\n";
      }
      store = std::move(reloaded);
    }
  }

  if (report.cells.empty()) {
    diff << "no warm/cold cells ran\n";
  }
  report.diff = diff.str();
  report.ok = report.diff.empty();
  return report;
}

DiffReport RunWarmColdDifferential(const Workload& workload, unsigned sym_bytes,
                                   const WarmColdOptions& options) {
  return RunWarmColdDifferential(workload.name, workload.source,
                                 sym_bytes == 0 ? workload.default_sym_bytes : sym_bytes,
                                 options);
}

}  // namespace difftest
}  // namespace overify
