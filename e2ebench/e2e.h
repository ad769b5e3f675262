// Shared pieces of the end-to-end benchmark (e2ebench/e2e_bench.cc): the
// deterministic plan, the compile -> analyze item runner timed from outside
// the library, golden answers, order statistics, spans and JSON output.
//
// Everything here calls the toolkit only through its public entry points
// (Compiler, Analyze, CompileMiniC + BuildPipeline + PassManager, Slicer,
// Interpreter), so the numbers measure what a caller of the library sees.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/compiler.h"
#include "src/exec/interpreter.h"
#include "src/frontend/codegen.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"
#include "src/testing/diff_harness.h"
#include "src/vlibc/vlibc.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace e2e {

// ---- The plan ---------------------------------------------------------------

// One plan item: a program at a symbolic width, compiled at one level.
struct PlanItem {
  const Workload* workload = nullptr;
  unsigned sym_bytes = 0;
  OptLevel level = OptLevel::kOverify;

  // "factor@2": the key of the item's golden answers, shared by every level.
  std::string ProgramKey() const {
    return workload->name + "@" + std::to_string(sym_bytes);
  }
  // "factor@2 -OVERIFY": the item's row in reports.
  std::string Key() const { return ProgramKey() + " " + OptLevelName(level); }
};

// Every program runs at its default width except the five whose core
// search dominates a suite round. Narrower, each still runs the learning
// core (0.1-1.3M candidates) but costs at most 0.5 s, so one -OVERIFY round
// of the whole suite takes about 2 s and a run repeats every item ten times
// or more. At their defaults a round took 11 s: seq_range@5 alone 6 s,
// word_freq@5 and factor@4 do not finish in 100 s, and word_freq@2 -O3
// takes 3.3 s. No per-query budget binds at these widths (a binding budget
// lets a smarter solver decide more queries, explore more paths and post a
// *worse* time).
inline unsigned PlanWidth(const Workload& workload) {
  static const std::map<std::string, unsigned> kNarrowed = {
      {"factor", 2}, {"printf_d", 3}, {"seq", 2}, {"seq_range", 3}, {"word_freq", 1}};
  auto it = kNarrowed.find(workload.name);
  return it != kNarrowed.end() ? it->second : workload.default_sym_bytes;
}

// Every suite program at `level`, alphabetical.
inline std::vector<PlanItem> SuitePlan(OptLevel level) {
  std::vector<PlanItem> plan;
  for (const Workload& workload : CoreutilsSuite()) {
    plan.push_back(PlanItem{&workload, PlanWidth(workload), level});
  }
  return plan;
}

// The named programs at `level`; empty when a name is not in the suite.
inline std::vector<PlanItem> NamedPlan(const std::vector<std::string>& names, OptLevel level) {
  std::vector<PlanItem> plan;
  for (const std::string& name : names) {
    const Workload* workload = FindWorkload(name);
    if (workload == nullptr) {
      return {};
    }
    plan.push_back(PlanItem{workload, PlanWidth(*workload), level});
  }
  return plan;
}

// Path cap only: every other limit stays at its default, so a verdict never
// depends on how fast the host is. Only wc and trim at -O0 reach the cap;
// every other item completes under 20,000 paths.
inline SymexLimits PlanLimits() {
  SymexLimits limits;
  limits.max_paths = 30000;
  return limits;
}

// A permutation of [0, n) drawn from (seed, round): each round of a run
// visits the plan in its own order, and the same seed repeats the orders.
inline std::vector<size_t> RoundOrder(size_t n, uint64_t seed, uint64_t round) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + round);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

// ---- The item runner ----------------------------------------------------------

// One compile -> analyze of a plan item, each half timed around the public
// call that does it.
struct ItemRun {
  CompileResult compiled;
  SymexResult result;
  double compile_s = 0;
  double analyze_s = 0;
};

inline ItemRun RunItem(const PlanItem& item) {
  ItemRun run;
  Stopwatch compile_watch;
  run.compiled = Compiler().Compile(item.workload->source, item.level, item.workload->name);
  run.compile_s = compile_watch.ElapsedSeconds();
  Stopwatch analyze_watch;
  run.result = Analyze(run.compiled, "umain", item.sym_bytes, PlanLimits());
  run.analyze_s = analyze_watch.ElapsedSeconds();
  return run;
}

// The same compile as Compiler::Compile, split at its layer boundaries so
// each layer can be timed: frontend (CompileMiniC over libc + program), then
// the level's pass pipeline. The traced run checks that both give the same
// ModuleContentHash.
struct LayeredCompile {
  CompileResult compiled;
  double frontend_s = 0;
  size_t frontend_instrs = 0;
  double passes_s = 0;
  std::vector<PassManager::Timing> pass_timings;
  uint64_t frontend_start_ns = 0;
  uint64_t passes_start_ns = 0;
};

inline LayeredCompile CompileByLayer(const PlanItem& item) {
  LayeredCompile out;
  const PipelineOptions options = PipelineOptions::For(item.level);
  std::vector<MiniCSource> sources;
  sources.push_back(
      MiniCSource{options.use_verify_libc ? VerifyLibcSource() : StandardLibcSource(), true});
  sources.push_back(MiniCSource{item.workload->source, false});

  out.frontend_start_ns = MetricsNowNs();
  DiagnosticEngine diags;
  out.compiled.module = CompileMiniC(sources, item.workload->name, diags);
  out.frontend_s = static_cast<double>(MetricsNowNs() - out.frontend_start_ns) * 1e-9;
  if (out.compiled.module == nullptr) {
    std::ostringstream errors;
    diags.Print(errors);
    out.compiled.errors = errors.str();
    return out;
  }
  out.frontend_instrs = out.compiled.module->InstructionCount();

  out.compiled.annotations = std::make_unique<ProgramAnnotations>();
  out.passes_start_ns = MetricsNowNs();
  PassManager pm;
  BuildPipeline(pm, options, out.compiled.annotations.get());
  pm.Run(*out.compiled.module);
  out.passes_s = static_cast<double>(MetricsNowNs() - out.passes_start_ns) * 1e-9;
  out.pass_timings = pm.timings();
  out.compiled.instruction_count = out.compiled.module->InstructionCount();
  out.compiled.ok = true;
  return out;
}

// ---- Golden answers -------------------------------------------------------------

// What a program at a width must produce at every level: its semantic
// verdict (exhaustion plus the sorted distinct (bug kind, confirmed) pairs)
// and the concrete run of its sample input.
struct Expected {
  std::string verdict;
  std::string sample;
};

// The semantic verdict of a finished run; every bug's model is replayed
// through the concrete interpreter to fill in "confirmed".
inline std::string VerdictOf(const SymexResult& result, Module& module) {
  return difftest::SemanticOf(difftest::SignatureOf(result, module, "umain", true)).ToString();
}

// Reads the semantic verdict back out of a RunSignature::ToString() (the
// daemon's reply format): "exhausted|CAPPED ..." then one
// "bug <kind> '<message>' input=[..] (confirmed|UNCONFIRMED)" line per bug.
inline std::string VerdictOfSignature(const std::string& signature) {
  difftest::SemanticSignature semantic;
  semantic.exhausted = signature.compare(0, 9, "exhausted") == 0;
  std::istringstream lines(signature);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos || line.compare(start, 4, "bug ") != 0) {
      continue;
    }
    const std::string rest = line.substr(start + 4);
    const std::string suffix = "(confirmed)";
    for (int k = 0; k <= static_cast<int>(BugKind::kEngineError); ++k) {
      const BugKind kind = static_cast<BugKind>(k);
      const std::string prefix = std::string(BugKindName(kind)) + " '";
      if (rest.compare(0, prefix.size(), prefix) == 0) {
        const bool confirmed =
            rest.size() >= suffix.size() &&
            rest.compare(rest.size() - suffix.size(), suffix.size(), suffix) == 0;
        semantic.bug_kinds.emplace_back(kind, confirmed);
        break;
      }
    }
  }
  std::sort(semantic.bug_kinds.begin(), semantic.bug_kinds.end());
  semantic.bug_kinds.erase(std::unique(semantic.bug_kinds.begin(), semantic.bug_kinds.end()),
                           semantic.bug_kinds.end());
  return semantic.ToString();
}

// Bytes outside printable ASCII (and the TSV/escape characters) as \xHH.
inline std::string Escape(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f && c != '\\' && c != '"') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

struct SampleRun {
  std::string answer;  // "ret=<n> out=\"<escaped>\"" or "trap"
  uint64_t cost_units = 0;
};

// The program's sample input through the concrete interpreter.
inline SampleRun RunSample(Module& module, const Workload& workload) {
  Interpreter interp(module);
  const InterpResult run = interp.Run("umain", workload.sample_input);
  SampleRun out;
  out.cost_units = run.cost_units;
  out.answer = run.ok ? "ret=" + std::to_string(run.return_value) + " out=\"" +
                            Escape(run.output) + "\""
                      : "trap";
  return out;
}

// expected.tsv: "# comment" lines, then "<program>@<width>\t<verdict>\t<sample>".
inline bool LoadExpected(const std::string& path, std::map<std::string, Expected>& out,
                         std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t tab1 = line.find('\t');
    const size_t tab2 = tab1 == std::string::npos ? tab1 : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos || line.find('\t', tab2 + 1) != std::string::npos) {
      error = path + ":" + std::to_string(line_no) + ": expected 3 tab-separated fields";
      return false;
    }
    out[line.substr(0, tab1)] =
        Expected{line.substr(tab1 + 1, tab2 - tab1 - 1), line.substr(tab2 + 1)};
  }
  return true;
}

// ---- Order statistics -----------------------------------------------------------

// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::max<size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

inline double Median(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

// The highest of p95/p90/p80 with at least ten samples above it; the
// maximum when the sample is too small for any of them.
inline double TailQuantile(const std::vector<double>& values, int* percentile) {
  for (int p : {95, 90, 80}) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
    if (values.size() >= rank + 10) {
      *percentile = p;
      return Quantile(values, p / 100.0);
    }
  }
  *percentile = 100;
  return Quantile(values, 1.0);
}

// ---- JSON output ----------------------------------------------------------------

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

// Full precision, so a value reads as measured.
inline std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// An ordered name -> value object.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- Spans ----------------------------------------------------------------------

// The bench's own spans around calls into each layer, written as a Chrome
// trace-event JSON array (load it in Perfetto). Each span carries its id and
// its parent's id (-1 for an item root) in args.
class SpanLog {
 public:
  int Add(const std::string& name, int parent, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{name, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }
  int Begin(const std::string& name, int parent) {
    return Add(name, parent, MetricsNowNs(), 0);
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = MetricsNowNs(); }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",", JsonString(s.name).c_str(),
                   static_cast<double>(s.start_ns - epoch) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  std::vector<Span> spans_;
};

}  // namespace e2e
}  // namespace overify
