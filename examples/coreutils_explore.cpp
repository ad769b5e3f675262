// Explore the Coreutils-style workload suite (Figure 3 of the paper: debug
// / release / -OVERIFY side by side).
//
//   $ ./coreutils_explore                      # whole suite, one row each
//   $ ./coreutils_explore <workload> [bytes]   # one utility, every level
//
// Flags (anywhere on the command line):
//   --stats        render the metrics registry (counters + latency
//                  histograms, docs/observability.md) after the summary —
//                  O3 vs -OVERIFY side by side per workload
//   --trace=FILE   write a Chrome-trace-event JSON timeline of the
//                  -OVERIFY exploration to FILE (load it in Perfetto); in
//                  suite mode each workload writes FILE.<workload>.json
//   --jobs=N       explore with N worker threads (0 = one per core)
//   --slice        verify per-check slices instead of the whole program
//                  (docs/slicing.md) and print per-workload slice
//                  statistics: checks found, slices built, and the mean/max
//                  cone size as a percentage of the entry function
//
// Daemon mode (docs/daemon.md):
//   --daemon=SOCK  serve verification requests on the Unix socket SOCK
//                  instead of exploring; runs until a shutdown request
//   --store=FILE   with --daemon: load/save the persistent cache store
//   --connect=SOCK send the run(s) to the daemon at SOCK instead of
//                  verifying in-process; prints the daemon's verdict and
//                  warm-cache counters
//   --force-run    with --connect: skip the daemon's run-level signature
//                  cache (the solver-level persisted cache still seeds)
//   --shutdown     with --connect: ask the daemon to save its store + exit
//                  (alone: shutdown only; with a workload: analyze, then stop)
//   --signature    verify in-process (daemon request parameters: -OVERIFY,
//                  default width, jobs=1) and print one "signature <name>
//                  <sig>" line per workload — the reference the CI smoke
//                  test compares daemon replies against bit-for-bit
//
// With no arguments, iterates the full expanded suite and prints
// per-workload stats: symbolic width, static size and exploration outcome
// at -O3 and -OVERIFY, and the concrete run of the sample input (whose
// result must agree across levels). Naming a workload prints the detailed
// per-level table for it instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/daemon/client.h"
#include "src/daemon/server.h"
#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/support/metrics.h"
#include "src/support/string_utils.h"
#include "src/support/table.h"
#include "src/testing/diff_harness.h"
#include "src/workloads/workloads.h"

using namespace overify;

namespace {

struct CliOptions {
  bool stats = false;
  std::string trace;  // empty = no tracing
  unsigned jobs = 1;
  bool slice = false;  // per-check slice verification (docs/slicing.md)
  std::string daemon_socket;   // --daemon=SOCK: serve instead of exploring
  std::string connect_socket;  // --connect=SOCK: delegate runs to a daemon
  std::string store;           // --store=FILE: daemon's persistent cache
  bool force_run = false;      // --connect: bypass the run-signature cache
  bool shutdown = false;       // --connect: stop the daemon
  bool signature = false;      // print in-process RunSignatures and exit
};

struct LevelStats {
  size_t instructions = 0;
  uint64_t paths = 0;
  bool exhausted = false;
  double analysis_ms = 0;
  int64_t sample_result = 0;
  bool sample_ok = false;
  MetricsShard metrics;
};

// `trace_path` non-empty routes the run's trace there (only the -OVERIFY
// level gets one; tracing every level would overwrite the file per level
// and quintuple the overhead for timelines nobody asked for).
LevelStats ExploreAt(const Workload& workload, OptLevel level, unsigned sym_bytes,
                     const CliOptions& cli, const std::string& trace_path) {
  LevelStats stats;
  Compiler compiler;
  CompileResult compiled = compiler.Compile(workload.source, level, workload.name);
  if (!compiled.ok) {
    std::fprintf(stderr, "compile failed for %s at %s:\n%s\n", workload.name.c_str(),
                 OptLevelName(level), compiled.errors.c_str());
    std::exit(1);
  }
  SymexLimits limits;
  limits.max_paths = 100000;
  limits.max_seconds = 10;
  SymexOptions options;
  options.jobs = cli.jobs;
  options.trace_path = trace_path;
  options.slice_checks = cli.slice;
  SymexResult analysis = Analyze(compiled, "umain", sym_bytes, limits, options);
  stats.instructions = compiled.instruction_count;
  stats.paths = analysis.metrics.Get(Counter::kPathsCompleted);
  stats.exhausted = analysis.exhausted;
  stats.analysis_ms = analysis.wall_seconds * 1e3;
  stats.metrics = analysis.metrics;

  Interpreter interp(*compiled.module);
  InterpResult run = interp.Run("umain", workload.sample_input);
  stats.sample_ok = run.ok;
  stats.sample_result = run.return_value;
  return stats;
}

void PrintStats(const std::string& title, const MetricsShard& metrics) {
  std::printf("-- metrics: %s --\n%s\n", title.c_str(),
              RenderMetricsTable(metrics).ToString().c_str());
}

// One slice-statistics row from a run's merged metrics (docs/slicing.md):
// checks found, slices built after keep-set grouping, and the cone-size
// histogram's mean/max as percentages of the entry function. "fallback"
// marks runs where slicing bailed to whole-program mode.
void AddSliceRow(TextTable& table, const std::string& label, const MetricsShard& metrics) {
  if (metrics.Get(Counter::kSliceFallbacks) > 0) {
    table.AddRow({label, std::to_string(metrics.Get(Counter::kSliceChecksFound)),
                  "fallback", "-", "-"});
    return;
  }
  const LatencyHistogram& ratio = metrics.hist(Hist::kSliceConeRatioPct);
  double mean = ratio.count() > 0
                    ? static_cast<double>(ratio.sum_ns()) / static_cast<double>(ratio.count())
                    : 0;
  table.AddRow({label, std::to_string(metrics.Get(Counter::kSliceChecksFound)),
                std::to_string(metrics.Get(Counter::kSlicesBuilt)),
                FormatDouble(mean, 1) + "%", std::to_string(ratio.max_ns()) + "%"});
}

TextTable SliceTableHeader() {
  return TextTable({"workload", "checks", "slices", "mean cone", "max cone"});
}

// Suite mode derives one trace file per workload from the flag value, so
// runs don't clobber each other: --trace=out.json -> out.json.wc.json.
std::string SuiteTracePath(const CliOptions& cli, const Workload& workload) {
  if (cli.trace.empty()) {
    return "";
  }
  return cli.trace + "." + workload.name + ".json";
}

int ExploreSuite(const CliOptions& cli) {
  TextTable table({"workload", "bytes", "instrs O3/OVERIFY", "paths O3", "paths OVERIFY",
                   "analysis ms O3/OVERIFY", "sample result"});
  TextTable slice_table = SliceTableHeader();
  for (const Workload& workload : CoreutilsSuite()) {
    LevelStats o3 = ExploreAt(workload, OptLevel::kO3, workload.default_sym_bytes, cli, "");
    LevelStats overify = ExploreAt(workload, OptLevel::kOverify, workload.default_sym_bytes,
                                   cli, SuiteTracePath(cli, workload));
    if (o3.sample_ok != overify.sample_ok ||
        (o3.sample_ok && o3.sample_result != overify.sample_result)) {
      std::fprintf(stderr, "%s: sample result diverged between levels!\n",
                   workload.name.c_str());
      return 1;
    }
    table.AddRow({workload.name, std::to_string(workload.default_sym_bytes),
                  std::to_string(o3.instructions) + "/" + std::to_string(overify.instructions),
                  std::to_string(o3.paths) + (o3.exhausted ? "" : " (capped)"),
                  std::to_string(overify.paths) + (overify.exhausted ? "" : " (capped)"),
                  FormatDouble(o3.analysis_ms, 1) + "/" + FormatDouble(overify.analysis_ms, 1),
                  overify.sample_ok ? std::to_string(overify.sample_result) : "trap"});
    if (cli.slice) {
      AddSliceRow(slice_table, workload.name, overify.metrics);
    }
    if (cli.stats) {
      PrintStats(workload.name + " @ -O3", o3.metrics);
      PrintStats(workload.name + " @ -OVERIFY", overify.metrics);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("%zu workloads; paths/analysis at each workload's default symbolic width\n",
              CoreutilsSuite().size());
  if (cli.slice) {
    std::printf("\n-- slice statistics @ -OVERIFY (cone sizes as %% of entry) --\n%s\n",
                slice_table.ToString().c_str());
  }
  return 0;
}

int ExploreOne(const Workload& workload, unsigned sym_bytes, const CliOptions& cli) {
  std::printf("== %s with %u symbolic bytes ==\n\n", workload.name.c_str(), sym_bytes);
  TextTable table({"level", "instrs", "compile ms", "paths", "exhausted", "analysis ms",
                   "sample result"});

  MetricsShard o3_metrics;
  MetricsShard overify_metrics;
  for (OptLevel level :
       {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2, OptLevel::kO3, OptLevel::kOverify}) {
    Compiler compiler;
    CompileResult compiled = compiler.Compile(workload.source, level, workload.name);
    if (!compiled.ok) {
      std::fprintf(stderr, "compile failed at %s:\n%s\n", OptLevelName(level),
                   compiled.errors.c_str());
      return 1;
    }
    SymexLimits limits;
    limits.max_paths = 100000;
    limits.max_seconds = 10;
    SymexOptions options;
    options.jobs = cli.jobs;
    options.slice_checks = cli.slice;
    if (level == OptLevel::kOverify) {
      options.trace_path = cli.trace;
    }
    SymexResult analysis = Analyze(compiled, "umain", sym_bytes, limits, options);
    if (level == OptLevel::kO3) {
      o3_metrics = analysis.metrics;
    } else if (level == OptLevel::kOverify) {
      overify_metrics = analysis.metrics;
    }

    Interpreter interp(*compiled.module);
    InterpResult run = interp.Run("umain", workload.sample_input);

    table.AddRow({OptLevelName(level), std::to_string(compiled.instruction_count),
                  FormatDouble(compiled.compile_seconds * 1e3, 1),
                  std::to_string(analysis.metrics.Get(Counter::kPathsCompleted)),
                  analysis.exhausted ? "yes" : "NO (capped)",
                  FormatDouble(analysis.wall_seconds * 1e3, 1),
                  run.ok ? std::to_string(run.return_value) : ("trap: " + run.error)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("sample input: \"%s\"\n", workload.sample_input.c_str());
  if (cli.slice) {
    TextTable slice_table = SliceTableHeader();
    AddSliceRow(slice_table, workload.name + " @ -O3", o3_metrics);
    AddSliceRow(slice_table, workload.name + " @ -OVERIFY", overify_metrics);
    std::printf("\n-- slice statistics (cone sizes as %% of entry) --\n%s\n",
                slice_table.ToString().c_str());
  }
  if (cli.stats) {
    std::printf("\n");
    PrintStats(workload.name + " @ -O3", o3_metrics);
    PrintStats(workload.name + " @ -OVERIFY", overify_metrics);
  }
  if (!cli.trace.empty()) {
    std::printf("trace (-OVERIFY level): %s\n", cli.trace.c_str());
  }
  return 0;
}

// --signature mode: the in-process reference for the daemon smoke test.
// Runs each workload exactly the way the daemon's Analyze handler does
// (same level, width, limits, worker count) and prints the RunSignature;
// the smoke test asserts the daemon's replies match these bit-for-bit.
int PrintSignatures(const CliOptions& cli, const char* name) {
  std::vector<const Workload*> targets;
  if (name != nullptr) {
    targets.push_back(FindWorkload(name));
  } else {
    for (const Workload& w : CoreutilsSuite()) {
      targets.push_back(&w);
    }
  }
  for (const Workload* workload : targets) {
    Compiler compiler;
    CompileResult compiled =
        compiler.Compile(workload->source, OptLevel::kOverify, workload->name);
    if (!compiled.ok) {
      std::fprintf(stderr, "compile failed for %s:\n%s\n", workload->name.c_str(),
                   compiled.errors.c_str());
      return 1;
    }
    SymexLimits limits;
    limits.max_paths = 100000;
    limits.max_seconds = 10;
    SymexOptions options;
    options.jobs = cli.jobs;
    options.slice_checks = cli.slice;
    SymexResult result =
        Analyze(compiled, "umain", workload->default_sym_bytes, limits, options);
    if (!result.ok) {
      std::fprintf(stderr, "analyze failed for %s: %s\n", workload->name.c_str(),
                   result.error.c_str());
      return 1;
    }
    const difftest::RunSignature sig = difftest::SignatureOf(
        result, *compiled.module, "umain", /*confirm_models=*/true);
    std::printf("signature %s %s\n", workload->name.c_str(), sig.ToString().c_str());
  }
  return 0;
}

// --connect mode: ship the run(s) to a warm daemon instead of verifying
// in-process. The table shows which layer answered: "run cache" when the
// daemon had the signature memoized, otherwise the solver-level persisted
// hit counters of the actual execution.
int ExploreViaDaemon(const CliOptions& cli, const char* name, unsigned sym_bytes) {
  daemon::Client client;
  if (!client.Connect(cli.connect_socket) || !client.Ping()) {
    std::fprintf(stderr, "daemon: %s\n", client.error().c_str());
    return 1;
  }
  std::vector<const Workload*> targets;
  if (name != nullptr) {
    targets.push_back(FindWorkload(name));  // validated by the caller
  } else if (!cli.shutdown) {
    // A bare `--connect SOCK --shutdown` stops the daemon without first
    // pushing the whole suite through it; name a workload to do both.
    for (const Workload& w : CoreutilsSuite()) {
      targets.push_back(&w);
    }
  }
  TextTable table({"workload", "answered by", "exhausted", "paths", "bugs",
                   "persist hits/queries", "signature"});
  for (const Workload* workload : targets) {
    daemon::AnalyzeRequest request;
    request.workload = workload->name;
    request.opt_level = static_cast<uint8_t>(OptLevel::kOverify);
    request.sym_bytes = name != nullptr ? sym_bytes : 0;
    request.force_run = cli.force_run ? 1 : 0;
    request.slice_checks = cli.slice ? 1 : 0;
    request.jobs = cli.jobs;
    daemon::AnalyzeReply reply;
    if (!client.Analyze(request, reply)) {
      std::fprintf(stderr, "daemon: %s\n", client.error().c_str());
      return 1;
    }
    if (!reply.ok) {
      std::fprintf(stderr, "daemon rejected %s: %s\n", workload->name.c_str(),
                   reply.error.c_str());
      return 1;
    }
    // The signature digest is long; the first 16 chars identify it in logs.
    const std::string sig_prefix = reply.signature.substr(0, 16);
    if (reply.run_hit) {
      table.AddRow({workload->name, "run cache", "-", "-", "-", "-", sig_prefix});
    } else {
      table.AddRow({workload->name, "executed", reply.exhausted ? "yes" : "NO",
                    std::to_string(reply.paths), std::to_string(reply.bugs),
                    std::to_string(reply.persist_hits) + "/" +
                        std::to_string(reply.core_queries + reply.persist_hits),
                    sig_prefix});
    }
    // Full signature on its own line, same format as --signature mode, so
    // the smoke test can diff daemon-vs-in-process output directly.
    std::printf("signature %s %s\n", workload->name.c_str(), reply.signature.c_str());
  }
  if (!targets.empty()) {
    std::printf("%s\n", table.ToString().c_str());
  }
  if (cli.stats) {
    daemon::StatsReply stats;
    if (client.Stats(stats) && stats.ok) {
      TextTable stats_table({"daemon counter", "value"});
      stats_table.AddRow({"requests", std::to_string(stats.requests)});
      stats_table.AddRow({"run hits", std::to_string(stats.run_hits)});
      stats_table.AddRow({"run misses", std::to_string(stats.run_misses)});
      stats_table.AddRow({"run evictions", std::to_string(stats.run_evictions)});
      stats_table.AddRow({"store rejects", std::to_string(stats.store_rejects)});
      stats_table.AddRow({"store runs", std::to_string(stats.store_runs)});
      stats_table.AddRow({"store entries", std::to_string(stats.store_entries)});
      std::printf("%s\n", stats_table.ToString().c_str());
    }
  }
  if (cli.shutdown) {
    if (!client.Shutdown()) {
      std::fprintf(stderr, "daemon shutdown failed: %s\n", client.error().c_str());
      return 1;
    }
    std::printf("daemon asked to shut down (store saved on exit)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const char* name = nullptr;
  const char* bytes_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--stats") == 0) {
      cli.stats = true;
    } else if (std::strcmp(arg, "--slice") == 0) {
      cli.slice = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      cli.trace = arg + 8;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      cli.jobs = static_cast<unsigned>(std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--daemon=", 9) == 0) {
      cli.daemon_socket = arg + 9;
    } else if (std::strncmp(arg, "--connect=", 10) == 0) {
      cli.connect_socket = arg + 10;
    } else if (std::strncmp(arg, "--store=", 8) == 0) {
      cli.store = arg + 8;
    } else if (std::strcmp(arg, "--force-run") == 0) {
      cli.force_run = true;
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      cli.shutdown = true;
    } else if (std::strcmp(arg, "--signature") == 0) {
      cli.signature = true;
    } else if (arg[0] == '-' && arg[1] == '-') {
      std::fprintf(stderr,
                   "unknown flag '%s'; supported: --stats --slice --trace=FILE --jobs=N "
                   "--daemon=SOCK --connect=SOCK --store=FILE --force-run --shutdown "
                   "--signature\n",
                   arg);
      return 1;
    } else if (name == nullptr) {
      name = arg;
    } else {
      bytes_arg = arg;
    }
  }
  if (!cli.daemon_socket.empty()) {
    daemon::ServerOptions server_options;
    server_options.socket_path = cli.daemon_socket;
    server_options.store_path = cli.store;
    server_options.verbose = cli.stats;
    daemon::DaemonServer server(std::move(server_options));
    return server.Run();
  }
  if (cli.signature) {
    if (name != nullptr && FindWorkload(name) == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", name);
      return 1;
    }
    return PrintSignatures(cli, name);
  }
  if (!cli.connect_socket.empty()) {
    if (name != nullptr && FindWorkload(name) == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", name);
      return 1;
    }
    const unsigned sym_bytes =
        bytes_arg != nullptr ? static_cast<unsigned>(std::atoi(bytes_arg)) : 0;
    return ExploreViaDaemon(cli, name, sym_bytes);
  }
  if (name == nullptr) {
    return ExploreSuite(cli);
  }
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; available:\n", name);
    for (const Workload& w : CoreutilsSuite()) {
      std::fprintf(stderr, "  %s\n", w.name.c_str());
    }
    return 1;
  }
  unsigned sym_bytes = bytes_arg != nullptr ? static_cast<unsigned>(std::atoi(bytes_arg))
                                            : workload->default_sym_bytes;
  return ExploreOne(*workload, sym_bytes, cli);
}
