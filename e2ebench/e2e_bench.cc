// End-to-end benchmark: MiniC source to verdict over the Coreutils suite.
//
//   e2e_bench --workload W --seed N --seconds S --expected FILE [--trace-file FILE]
//   e2e_bench --regen-expected FILE
//
// Workloads (why each was chosen: e2ebench/README.md):
//   suite-overify  all 57 plan programs at -OVERIFY, whole program
//   suite-o3       the same plan at -O3, the paper's baseline
//   explore-o0     14 path-heavy, solver-light programs at -O0
//   daemon-mixed   52 programs through a forked warm daemon, three request
//                  streams (forced re-run, run-cache hit, sliced re-run)
//
// Without --trace-file a run sets up three times (setup_s is the median),
// then repeats the plan in rounds, each in its own seed-drawn order, until
// the next round would end past --seconds (at least two rounds). Every item
// keeps its fastest repetition. With --trace-file the run makes one
// untraced and one traced pass instead, writes the bench's own spans there
// and reports the per-layer numbers.
//
// Progress and a per-item table go to stderr; the last line of stdout is
// one JSON object with the verdict checks, the metrics and the item rows.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <limits>

#include "e2ebench/e2e.h"
#include "src/analysis/slicer.h"
#include "src/cache/persist.h"
#include "src/daemon/client.h"
#include "src/daemon/server.h"
#include "src/support/string_utils.h"
#include "src/support/table.h"

using namespace overify;
using namespace overify::e2e;

namespace {

constexpr int kSetupPasses = 3;
constexpr unsigned kMinRounds = 2;

// Registry counters reported under their own names.
const Counter kLayerCounters[] = {
    Counter::kInstructions,         Counter::kForks,
    Counter::kAnnotationHits,       Counter::kPathsCompleted,
    Counter::kPathsInfeasible,      Counter::kPathsBug,
    Counter::kPathsLimit,           Counter::kSolverQueries,
    Counter::kSolverCacheHits,      Counter::kSolverReuseHits,
    Counter::kSolverCoreQueries,    Counter::kSolverCoreCandidates,
    Counter::kSolverCoreConflicts,  Counter::kSolverCoreLearned,
    Counter::kSolverCoreLearnedHits, Counter::kSolverCoreBackjumps,
    Counter::kSolverCoreRestarts,   Counter::kSolverEvalMemoHits,
    Counter::kSolverIndependenceDrops, Counter::kPresolveShortcuts,
    Counter::kPreprocessBindings,   Counter::kPrefixSubsetHits,
    Counter::kPrefixSupersetHits,   Counter::kPrefixModelHits,
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  std::string expected_path;
  std::string trace_file;  // non-empty: traced run
};

// Pass/fail bookkeeping over every attempted item run or daemon request.
class Checks {
 public:
  // Counts one attempt; `why` is empty when it passed.
  void Record(const std::string& key, const std::string& why) {
    ++attempted_;
    if (!why.empty()) {
      Fail(key + ": " + why);
    }
  }
  // A failure outside any attempt (a broken self-check, a dead daemon).
  void Fail(const std::string& message) {
    ++failed_;
    if (messages_.size() < 20) {
      messages_.push_back(message);
      std::fprintf(stderr, "FAILED %s\n", message.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Golden-answer check of a decided verdict, plus the rules that fail an
// item whatever it decided: unconfirmed bug models and deadline stops.
std::string CheckVerdict(const std::map<std::string, Expected>& expected,
                         const std::string& program_key, const std::string& verdict,
                         bool deadline) {
  if (deadline) {
    return "stopped by the deadline";
  }
  if (verdict.find("+unconfirmed") != std::string::npos) {
    return "a bug model does not trap on replay: " + verdict;
  }
  if (verdict.compare(0, 9, "exhausted") != 0) {
    return "";  // undecided: nothing to compare
  }
  auto it = expected.find(program_key);
  if (it == expected.end()) {
    return "no golden answer for " + program_key;
  }
  if (it->second.verdict != verdict) {
    return "verdict " + verdict + ", expected " + it->second.verdict;
  }
  return "";
}

std::string CheckRun(const std::map<std::string, Expected>& expected, const PlanItem& item,
                     const CompileResult& compiled, const SymexResult& result) {
  if (!compiled.ok) {
    return "compile failed: " + compiled.errors;
  }
  if (!result.ok) {
    return "analyze failed: " + result.error;
  }
  return CheckVerdict(expected, item.ProgramKey(), VerdictOf(result, *compiled.module),
                      result.stop_cause == StopCause::kDeadline);
}

std::string CheckSample(const std::map<std::string, Expected>& expected, const PlanItem& item,
                        const std::string& sample) {
  auto it = expected.find(item.ProgramKey());
  if (it == expected.end()) {
    return "no golden answer for " + item.ProgramKey();
  }
  if (it->second.sample != sample) {
    return "sample " + sample + ", expected " + it->second.sample;
  }
  return "";
}

// A process's peak resident set (VmHWM), in MB; 0 when unreadable. Not
// ru_maxrss: Linux carries that across execve, so it would report the
// launching process's peak when that was larger.
double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// One set-up pass: compile every plan item and check its sample input
// against the golden answers (checked on the first pass only).
void SetupPass(const std::vector<PlanItem>& plan, const std::map<std::string, Expected>& expected,
               bool check, Checks& checks) {
  for (const PlanItem& item : plan) {
    CompileResult compiled = Compiler().Compile(item.workload->source, item.level,
                                                item.workload->name);
    if (!check) {
      continue;
    }
    checks.Record(item.Key() + " sample",
                  compiled.ok ? CheckSample(expected, item,
                                            RunSample(*compiled.module, *item.workload).answer)
                              : "compile failed: " + compiled.errors);
  }
}

// Fastest repetition of one timed unit (a plan item, or one daemon request
// stream for one program).
struct Best {
  std::string key;
  double total = std::numeric_limits<double>::infinity();
  double compile = std::numeric_limits<double>::infinity();
  double verify = std::numeric_limits<double>::infinity();
  bool decided = false;
};

struct Report {
  Checks checks;
  double setup_s = 0;
  unsigned rounds = 0;
  double peak_rss_mb = 0;
  std::vector<Best> best;
  std::map<std::string, double> layers;  // traced runs only
};

// ---- Per-layer accumulation (traced runs) -------------------------------------

void AddCompileLayers(const LayeredCompile& lc, Report& report) {
  std::map<std::string, double>& l = report.layers;
  l["frontend.s"] += lc.frontend_s;
  l["frontend.ir_instrs"] += static_cast<double>(lc.frontend_instrs);
  l["passes.s"] += lc.passes_s;
  l["passes.ir_instrs"] += static_cast<double>(lc.compiled.instruction_count);
  l["passes.annotations"] += static_cast<double>(lc.compiled.annotations->size());
  for (const PassManager::Timing& t : lc.pass_timings) {
    l["passes." + t.pass_name + ".s"] += t.seconds;
    l["passes." + t.pass_name + ".changed"] += t.changed ? 1 : 0;
  }
}

// The compile spans of one item: compile -> frontend, passes -> passes.<p>.
// Pass spans are laid end to end from PassManager::timings().
void AddCompileSpans(const LayeredCompile& lc, int root, SpanLog& spans) {
  const uint64_t frontend_end = lc.frontend_start_ns + static_cast<uint64_t>(lc.frontend_s * 1e9);
  const uint64_t passes_end = lc.passes_start_ns + static_cast<uint64_t>(lc.passes_s * 1e9);
  const int compile = spans.Add("compile", root, lc.frontend_start_ns, passes_end);
  spans.Add("frontend", compile, lc.frontend_start_ns, frontend_end);
  const int passes = spans.Add("passes", compile, lc.passes_start_ns, passes_end);
  uint64_t cursor = lc.passes_start_ns;
  for (const PassManager::Timing& t : lc.pass_timings) {
    const uint64_t end = cursor + static_cast<uint64_t>(t.seconds * 1e9);
    spans.Add("passes." + t.pass_name, passes, cursor, end);
    cursor = end;
  }
}

// Slicer::Run on the compiled module, timed from outside, slices erased.
void AddSliceLayers(CompileResult& compiled, int parent, SpanLog& spans, Report& report) {
  std::map<std::string, double>& l = report.layers;
  Function* entry = compiled.module->GetFunction("umain");
  const int span = spans.Begin("slice", parent);
  Stopwatch watch;
  Slicer slicer(*compiled.module, entry);
  SliceResult slices = slicer.Run();
  const double run_s = watch.ElapsedSeconds();
  if (!slices.ok) {
    l["slice.fallbacks"] += 1;
  }
  l["slice.checks_found"] += static_cast<double>(slices.checks_found);
  l["slice.built"] += static_cast<double>(slices.slices.size());
  for (const Slice& slice : slices.slices) {
    l["slice.cone_instrs"] += static_cast<double>(slice.instructions);
    l["slice.entry_instrs"] += static_cast<double>(slices.entry_instructions);
  }
  watch.Restart();
  Slicer::EraseSlices(*compiled.module, slices);
  l["slice.s"] += run_s + watch.ElapsedSeconds();
  spans.End(span);
}

void AddEngineLayers(const SymexResult& result, double analyze_s, Report& report,
                     LatencyHistogram& queries) {
  std::map<std::string, double>& l = report.layers;
  for (Counter c : kLayerCounters) {
    l[CounterName(c)] += static_cast<double>(result.metrics.Get(c));
  }
  const LatencyHistogram& q = result.metrics.hist(Hist::kSolverQueryNs);
  queries.Merge(q);
  const double solver_s = static_cast<double>(q.sum_ns()) * 1e-9;
  l["solver.s"] += solver_s;
  l["solver.core_s"] += static_cast<double>(result.metrics.hist(Hist::kCoreSearchNs).sum_ns()) * 1e-9;
  l["engine.s"] += analyze_s - solver_s;
}

double Ratio(double num, double den, double scale) { return den > 0 ? num / den * scale : 0; }

void FinishLayers(Report& report, const LatencyHistogram& queries) {
  std::map<std::string, double>& l = report.layers;
  l["solver.query_p50_us"] = static_cast<double>(queries.P50()) / 1e3;
  l["solver.query_p95_us"] = static_cast<double>(queries.P95()) / 1e3;
  l["solver.pre_core_answer_pct"] =
      Ratio(l["solver.queries"] - l["solver.core_queries"], l["solver.queries"], 100);
  l["solver.learned_hit_pct"] =
      Ratio(l["solver.core_learned_hits"], l["solver.core_learned"], 100);
  l["solver.candidates_per_core_query"] =
      Ratio(l["solver.core_candidates"], l["solver.core_queries"], 1);
  l["slice.cone_pct"] = Ratio(l["slice.cone_instrs"], l["slice.entry_instrs"], 100);
  l.erase("slice.cone_instrs");
  l.erase("slice.entry_instrs");
  l["persist.hit_pct"] =
      Ratio(l["persist.hits"], l["persist.hits"] + l["solver.core_queries"], 100);
  l["daemon.run_hit_pct"] =
      Ratio(l["daemon.run_hits"], l["daemon.run_hits"] + l["daemon.run_misses"], 100);
}

// ---- In-process workloads --------------------------------------------------------

void TimedRounds(const Options& opt, const std::vector<PlanItem>& plan,
                 const std::map<std::string, Expected>& expected, Report& report) {
  report.best.resize(plan.size());
  Stopwatch run_watch;
  double last_round = 0;
  while (report.rounds < kMinRounds ||
         run_watch.ElapsedSeconds() + last_round <= opt.seconds) {
    Stopwatch round_watch;
    for (size_t index : RoundOrder(plan.size(), opt.seed, report.rounds)) {
      const PlanItem& item = plan[index];
      ItemRun run = RunItem(item);
      report.checks.Record(item.Key(), CheckRun(expected, item, run.compiled, run.result));
      Best& best = report.best[index];
      best.key = item.Key();
      best.total = std::min(best.total, run.compile_s + run.analyze_s);
      best.compile = std::min(best.compile, run.compile_s);
      best.verify = std::min(best.verify, run.analyze_s);
      best.decided = run.result.exhausted;
    }
    last_round = round_watch.ElapsedSeconds();
    ++report.rounds;
    std::fprintf(stderr, "round %u: %.2f s\n", report.rounds, last_round);
  }
}

// One untraced and one traced pass in seed order. The traced pass compiles
// layer by layer under spans; its module hash and every registry counter
// must equal the untraced pass's.
void TracedPass(const Options& opt, const std::vector<PlanItem>& plan,
                const std::map<std::string, Expected>& expected, Report& report) {
  SpanLog spans;
  LatencyHistogram queries;
  double plain_s = 0;
  double traced_s = 0;
  for (size_t index : RoundOrder(plan.size(), opt.seed, 0)) {
    const PlanItem& item = plan[index];
    ItemRun plain = RunItem(item);
    plain_s += plain.compile_s + plain.analyze_s;

    const int root = spans.Begin(item.Key(), -1);
    LayeredCompile lc = CompileByLayer(item);
    AddCompileSpans(lc, root, spans);
    const int analyze = spans.Begin("analyze", root);
    const int engine = spans.Begin("engine", analyze);
    Stopwatch analyze_watch;
    SymexResult result = Analyze(lc.compiled, "umain", item.sym_bytes, PlanLimits());
    const double analyze_s = analyze_watch.ElapsedSeconds();
    spans.End(engine);
    spans.End(analyze);
    traced_s += lc.frontend_s + lc.passes_s + analyze_s;

    const int exec = spans.Begin("exec", root);
    Stopwatch exec_watch;
    std::string why = CheckRun(expected, item, lc.compiled, result);
    const SampleRun sample = RunSample(*lc.compiled.module, *item.workload);
    report.layers["exec.replay_s"] += exec_watch.ElapsedSeconds();
    report.layers["exec.sample_cost_units"] += static_cast<double>(sample.cost_units);
    spans.End(exec);
    spans.End(root);

    if (why.empty() && plain.compiled.ok && lc.compiled.ok &&
        ModuleContentHash(*plain.compiled.module) != ModuleContentHash(*lc.compiled.module)) {
      why = "layered compile differs from Compiler::Compile";
    }
    for (size_t c = 0; why.empty() && c < kNumCounters; ++c) {
      if (plain.result.metrics.counters[c] != result.metrics.counters[c]) {
        why = std::string("counter ") + CounterName(static_cast<Counter>(c)) +
              " differs from the untraced run";
      }
    }
    report.checks.Record(item.Key(), why);
    AddCompileLayers(lc, report);
    AddEngineLayers(result, analyze_s, report, queries);
  }
  report.layers["trace.overhead_pct"] = Ratio(traced_s - plain_s, plain_s, 100);
  FinishLayers(report, queries);
  if (!spans.Write(opt.trace_file)) {
    report.checks.Fail("cannot write " + opt.trace_file);
  }
}

void RunInProcess(const Options& opt, const std::vector<PlanItem>& plan,
                  const std::map<std::string, Expected>& expected, Report& report,
                  const Stopwatch& process_watch) {
  std::vector<double> setups;
  for (int pass = 0; pass < (opt.trace_file.empty() ? kSetupPasses : 1); ++pass) {
    Stopwatch watch;
    SetupPass(plan, expected, pass == 0, report.checks);
    setups.push_back(pass == 0 ? process_watch.ElapsedSeconds() : watch.ElapsedSeconds());
  }
  report.setup_s = Median(setups);
  if (opt.trace_file.empty()) {
    TimedRounds(opt, plan, expected, report);
  } else {
    TracedPass(opt, plan, expected, report);
  }
  report.peak_rss_mb = PeakRssMb("self");
}

// ---- daemon-mixed ------------------------------------------------------------------

enum Stream { kForce, kHit, kSlice, kNumStreams };
const char* const kStreamNames[] = {"force", "hit", "slice"};

// A DaemonServer in a child process (this binary re-executed with --serve),
// its socket and store in a private mkdtemp directory. The destructor
// SIGTERMs and reaps a child still running and removes the directory, so no
// failure path leaves a process or a socket behind; the child also gets
// SIGTERM should this process die first.
class DaemonChild {
 public:
  DaemonChild() = default;
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;
  ~DaemonChild() { Stop(); }

  // Starts the child and waits until it answers a ping on `client`.
  bool Start(daemon::Client& client, std::string& error) {
    ::mkdir(".bench_build", 0755);
    ::mkdir(".bench_build/e2e", 0755);
    char dir_template[] = ".bench_build/e2e/daemon.XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) {
      error = std::string("mkdtemp: ") + std::strerror(errno);
      return false;
    }
    dir_ = dir_template;
    socket_ = dir_ + "/sock";
    store_ = dir_ + "/store";
    char self[4096] = {};
    if (::readlink("/proc/self/exe", self, sizeof(self) - 1) <= 0) {
      error = std::string("readlink /proc/self/exe: ") + std::strerror(errno);
      return false;
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      error = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) {
        ::_exit(1);
      }
      ::dup2(STDERR_FILENO, STDOUT_FILENO);  // stdout carries only the result
      ::execl(self, self, "--serve", socket_.c_str(), store_.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int attempt = 0; attempt < 5000; ++attempt) {
      if (client.Connect(socket_) && client.Ping()) {
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "daemon exited during start-up";
        return false;
      }
      ::usleep(2000);
    }
    error = "daemon did not answer within 10 s";
    return false;
  }

  pid_t pid() const { return pid_; }

  const std::string& store_path() const { return store_; }

  // Asks the daemon to exit (it saves its store), reaps it, removes the
  // directory. Safe to call more than once.
  void Stop(daemon::Client* client = nullptr) {
    if (pid_ > 0) {
      if (client == nullptr || !client->Shutdown()) {
        ::kill(pid_, SIGTERM);
      }
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (!dir_.empty()) {
      for (const std::string& path : {socket_, store_, store_ + ".tmp"}) {
        ::unlink(path.c_str());
      }
      ::rmdir(dir_.c_str());
      dir_.clear();
    }
  }

 private:
  pid_t pid_ = -1;
  std::string dir_;
  std::string socket_;
  std::string store_;
};

daemon::AnalyzeRequest RequestFor(const PlanItem& item, Stream stream) {
  daemon::AnalyzeRequest request;
  request.workload = item.workload->name;
  request.opt_level = static_cast<uint8_t>(item.level);
  request.sym_bytes = item.sym_bytes;
  request.force_run = stream == kHit ? 0 : 1;
  request.slice_checks = stream == kSlice ? 1 : 0;
  request.jobs = 1;
  request.max_paths = PlanLimits().max_paths;
  // Far beyond any plan item; a deadline stop counts as a failure.
  request.max_seconds_ms = 600000;
  return request;
}

struct DaemonRequest {
  const PlanItem* item;
  Stream stream;
  std::string Key() const { return item->Key() + " " + kStreamNames[stream]; }
};

// Sends one request; the reply's failure reason, "" when it passed. A
// transport failure also closes the connection: the daemon is gone.
std::string Send(daemon::Client& client, const DaemonRequest& request,
                 daemon::AnalyzeReply& reply) {
  if (!client.Analyze(RequestFor(*request.item, request.stream), reply)) {
    const std::string why = "transport: " + client.error();
    client.Close();
    return why;
  }
  return reply.ok ? "" : "daemon error: " + reply.error;
}

// One round: every request once, in order, each reply checked against its
// request's priming signature. `on_reply(index, reply, rtt_s)` sees every
// passing reply; with `spans`, each request runs under a root span and a
// daemon.<stream> child. False when the daemon stopped answering.
template <typename OnReply>
bool DaemonRound(daemon::Client& client, const std::vector<DaemonRequest>& requests,
                 const std::vector<std::string>& signatures, Report& report, SpanLog* spans,
                 OnReply on_reply) {
  for (size_t i = 0; i < requests.size(); ++i) {
    const DaemonRequest& request = requests[i];
    const int root = spans ? spans->Begin("request " + request.Key(), -1) : -1;
    const int call =
        spans ? spans->Begin(std::string("daemon.") + kStreamNames[request.stream], root) : -1;
    daemon::AnalyzeReply reply;
    Stopwatch watch;
    std::string why = Send(client, request, reply);
    const double rtt_s = watch.ElapsedSeconds();
    if (spans) {
      spans->End(call);
      spans->End(root);
    }
    if (why.empty() && reply.signature != signatures[i]) {
      why = "signature differs from the priming pass";
    }
    report.checks.Record(request.Key(), why);
    if (!client.connected()) {
      return false;
    }
    if (why.empty()) {
      on_reply(i, reply, rtt_s);
    }
  }
  return true;
}

// The daemon-mixed set-up: start a fresh daemon, send one cold priming
// request per (program, stream), then one untimed warm-up round. The first
// set-up's priming replies are the signatures every later reply (later
// set-ups' priming included) must repeat, and their verdicts are checked
// against the golden answers.
bool DaemonSetup(const std::vector<DaemonRequest>& requests,
                 const std::map<std::string, Expected>& expected, DaemonChild& child,
                 daemon::Client& client, std::vector<std::string>& signatures,
                 double& warmup_rtt_s, Report& report) {
  std::string error;
  if (!child.Start(client, error)) {
    report.checks.Fail("daemon start: " + error);
    return false;
  }
  const bool first = signatures.empty();
  for (size_t i = 0; i < requests.size(); ++i) {
    daemon::AnalyzeReply reply;
    std::string why = Send(client, requests[i], reply);
    if (why.empty() && !first && reply.signature != signatures[i]) {
      why = "priming signature differs from the first set-up's";
    }
    if (why.empty()) {
      why = CheckVerdict(expected, requests[i].item->ProgramKey(),
                         VerdictOfSignature(reply.signature),
                         reply.signature.find(" stop=max_seconds") != std::string::npos);
    }
    report.checks.Record(requests[i].Key() + " priming", why);
    if (!client.connected()) {
      return false;
    }
    if (first) {
      signatures.push_back(reply.signature);
    }
  }
  warmup_rtt_s = 0;
  return DaemonRound(client, requests, signatures, report, nullptr,
                     [&](size_t, const daemon::AnalyzeReply&, double rtt_s) {
                       warmup_rtt_s += rtt_s;
                     });
}

// Timed rounds. The hit stream's replies come from the run cache after a
// compile and a hash, so they make up compile_s; the two re-run streams
// make up verify_s.
void DaemonTimedRounds(const Options& opt, const std::vector<DaemonRequest>& requests,
                       const std::vector<std::string>& signatures, daemon::Client& client,
                       Report& report) {
  report.best.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Best& best = report.best[i];
    best.key = requests[i].Key();
    best.decided = signatures[i].compare(0, 9, "exhausted") == 0;
    (requests[i].stream == kHit ? best.verify : best.compile) = 0;
  }
  Stopwatch run_watch;
  double last_round = 0;
  while (report.rounds < kMinRounds ||
         run_watch.ElapsedSeconds() + last_round <= opt.seconds) {
    Stopwatch round_watch;
    const bool alive = DaemonRound(
        client, requests, signatures, report, nullptr,
        [&](size_t i, const daemon::AnalyzeReply&, double rtt_s) {
          Best& best = report.best[i];
          best.total = std::min(best.total, rtt_s);
          double& part = requests[i].stream == kHit ? best.compile : best.verify;
          part = std::min(part, rtt_s);
        });
    if (!alive) {
      return;
    }
    last_round = round_watch.ElapsedSeconds();
    ++report.rounds;
    std::fprintf(stderr, "round %u: %.2f s\n", report.rounds, last_round);
  }
}

// One traced round of requests, then each program's layered compile and
// slicer in-process, then the store's save (a daemon round trip) and load
// (in-process, from the saved file).
void DaemonTracedRound(const Options& opt, const std::vector<PlanItem>& plan,
                       const std::vector<DaemonRequest>& requests,
                       const std::vector<std::string>& signatures, double warmup_rtt_s,
                       const DaemonChild& child, daemon::Client& client, Report& report) {
  std::map<std::string, double>& l = report.layers;
  SpanLog spans;
  double round_rtt_s = 0;
  const bool alive = DaemonRound(
      client, requests, signatures, report, &spans,
      [&](size_t i, const daemon::AnalyzeReply& reply, double rtt_s) {
        round_rtt_s += rtt_s;
        l[std::string("daemon.") + kStreamNames[requests[i].stream] + ".rtt_s"] += rtt_s;
        if (!reply.run_hit) {
          l["persist.seeded"] += static_cast<double>(reply.persist_seeded);
          l["persist.hits"] += static_cast<double>(reply.persist_hits);
          l["persist.rejects"] += static_cast<double>(reply.persist_rejects);
          l["solver.core_queries"] += static_cast<double>(reply.core_queries);
          l["solver.cache_hits"] += static_cast<double>(reply.cache_hits);
          l["paths.completed"] += static_cast<double>(reply.paths);
        }
      });
  if (!alive) {
    return;
  }
  l["trace.overhead_pct"] = Ratio(round_rtt_s - warmup_rtt_s, warmup_rtt_s, 100);

  for (size_t index : RoundOrder(plan.size(), opt.seed, 0)) {
    const PlanItem& item = plan[index];
    const int root = spans.Begin(item.Key(), -1);
    LayeredCompile lc = CompileByLayer(item);
    AddCompileSpans(lc, root, spans);
    if (!lc.compiled.ok) {
      spans.End(root);
      report.checks.Fail(item.Key() + ": compile failed: " + lc.compiled.errors);
      continue;
    }
    AddCompileLayers(lc, report);
    const int analyze = spans.Begin("analyze", root);
    AddSliceLayers(lc.compiled, analyze, spans, report);
    spans.End(analyze);
    const int exec = spans.Begin("exec", root);
    Stopwatch exec_watch;
    const SampleRun sample = RunSample(*lc.compiled.module, *item.workload);
    l["exec.replay_s"] += exec_watch.ElapsedSeconds();
    l["exec.sample_cost_units"] += static_cast<double>(sample.cost_units);
    spans.End(exec);
    spans.End(root);
  }

  const int save = spans.Begin("persist.save", -1);
  Stopwatch save_watch;
  if (!client.SaveStore()) {
    report.checks.Fail("store save: " + client.error());
  }
  l["persist.save_s"] = save_watch.ElapsedSeconds();
  spans.End(save);
  const int load = spans.Begin("persist.load", -1);
  Stopwatch load_watch;
  CacheStore store;
  if (!store.Load(child.store_path())) {
    report.checks.Fail("store load: " + store.load_error());
  }
  l["persist.load_s"] = load_watch.ElapsedSeconds();
  spans.End(load);
  struct stat st{};
  if (::stat(child.store_path().c_str(), &st) == 0) {
    l["persist.store_bytes"] = static_cast<double>(st.st_size);
  }

  daemon::StatsReply stats;
  if (client.Stats(stats) && stats.ok) {
    l["daemon.run_hits"] = static_cast<double>(stats.run_hits);
    l["daemon.run_misses"] = static_cast<double>(stats.run_misses);
    l["daemon.run_evictions"] = static_cast<double>(stats.run_evictions);
    l["daemon.store_runs"] = static_cast<double>(stats.store_runs);
  } else {
    report.checks.Fail("daemon stats: " + client.error());
  }
  LatencyHistogram no_queries;
  FinishLayers(report, no_queries);
  if (!spans.Write(opt.trace_file)) {
    report.checks.Fail("cannot write " + opt.trace_file);
  }
}

void RunDaemonMixed(const Options& opt, const std::vector<PlanItem>& plan,
                    const std::map<std::string, Expected>& expected, Report& report,
                    const Stopwatch& process_watch) {
  // One program order per run, drawn from the seed, with each program's
  // three requests back to back. Every round repeats it, so every round
  // meets the daemon's store in the same state: with 51 programs between
  // two visits of a program, the 64-run LRU has always evicted its runs.
  std::vector<DaemonRequest> requests;
  for (size_t index : RoundOrder(plan.size(), opt.seed, 0)) {
    for (int s = 0; s < kNumStreams; ++s) {
      requests.push_back(DaemonRequest{&plan[index], static_cast<Stream>(s)});
    }
  }
  // Each set-up starts a fresh daemon; all but the last are stopped again.
  const int passes = opt.trace_file.empty() ? kSetupPasses : 1;
  std::vector<double> setups;
  std::vector<std::string> signatures;
  double warmup_rtt_s = 0;
  DaemonChild child;
  daemon::Client client;
  for (int pass = 0; pass < passes; ++pass) {
    Stopwatch watch;
    SetupPass(plan, expected, pass == 0, report.checks);
    if (!DaemonSetup(requests, expected, child, client, signatures, warmup_rtt_s, report)) {
      return;
    }
    setups.push_back(pass == 0 ? process_watch.ElapsedSeconds() : watch.ElapsedSeconds());
    if (pass + 1 < passes) {
      child.Stop(&client);
    }
  }
  report.setup_s = Median(setups);
  if (opt.trace_file.empty()) {
    DaemonTimedRounds(opt, requests, signatures, client, report);
  } else {
    DaemonTracedRound(opt, plan, requests, signatures, warmup_rtt_s, child, client, report);
  }
  report.peak_rss_mb = PeakRssMb(std::to_string(child.pid()));
  child.Stop(&client);
}

// ---- Golden-answer regeneration ------------------------------------------------------

// Runs every program at its plan width at -O0, -O3 and -OVERIFY whole
// program and -OVERIFY sliced. Writes `path` only when every configuration
// that decides agrees on the verdict, at least two decide, and the sample
// input gives the same answer at every level; the reference is never one
// build's own say-so.
int RegenExpected(const std::string& path) {
  struct Config {
    OptLevel level;
    bool slice;
    const char* name;
  };
  const Config configs[] = {{OptLevel::kO0, false, "-O0"},
                            {OptLevel::kO3, false, "-O3"},
                            {OptLevel::kOverify, false, "-OVERIFY"},
                            {OptLevel::kOverify, true, "-OVERIFY/slice"}};
  std::vector<std::string> rows;
  std::vector<std::string> errors;
  for (const PlanItem& base : SuitePlan(OptLevel::kOverify)) {
    std::string verdict;
    std::string sample;
    int deciders = 0;
    for (const Config& config : configs) {
      PlanItem item = base;
      item.level = config.level;
      CompileResult compiled =
          Compiler().Compile(item.workload->source, item.level, item.workload->name);
      if (!compiled.ok) {
        errors.push_back(item.Key() + ": compile failed");
        continue;
      }
      SymexLimits limits = PlanLimits();
      limits.max_seconds = 30;  // a configuration this slow just does not decide
      SymexOptions options;
      options.slice_checks = config.slice;
      SymexResult result = Analyze(compiled, "umain", item.sym_bytes, limits, options);
      const std::string v = VerdictOf(result, *compiled.module);
      std::fprintf(stderr, "%-24s %-15s %s\n", base.ProgramKey().c_str(), config.name, v.c_str());
      if (result.exhausted) {
        ++deciders;
        if (verdict.empty()) {
          verdict = v;
        } else if (verdict != v) {
          errors.push_back(base.ProgramKey() + ": " + config.name + " decides " + v +
                           ", another configuration " + verdict);
        }
      }
      if (!config.slice) {
        const std::string s = RunSample(*compiled.module, *item.workload).answer;
        if (sample.empty()) {
          sample = s;
        } else if (sample != s) {
          errors.push_back(base.ProgramKey() + ": sample at " + config.name + " is " + s +
                           ", at -O0 " + sample);
        }
      }
    }
    if (deciders < 2) {
      errors.push_back(base.ProgramKey() + ": only " + std::to_string(deciders) +
                       " configuration(s) decide");
    }
    rows.push_back(base.ProgramKey() + "\t" + verdict + "\t" + sample);
  }
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "disagreement: %s\n", e.c_str());
    }
    std::fprintf(stderr, "not writing %s\n", path.c_str());
    return 1;
  }
  std::ofstream out(path);
  out << "# Golden answers of the end-to-end benchmark: <program>@<width>, the semantic\n"
         "# verdict every level must reach when it decides, and the sample input's run.\n"
         "# Regenerate with: python3 e2ebench/run.py --regen-expected\n";
  for (const std::string& row : rows) {
    out << row << "\n";
  }
  return out ? 0 : 1;
}

// ---- Output ----------------------------------------------------------------------------

void PrintReport(const Options& opt, const Report& report) {
  std::vector<double> totals;
  double total_s = 0;
  double compile_s = 0;
  double verify_s = 0;
  size_t decided = 0;
  TextTable table({"item", "best ms", "compile ms", "verify ms", "decided"});
  std::string items = "[";
  for (const Best& b : report.best) {
    totals.push_back(b.total);
    total_s += b.total;
    compile_s += b.compile;
    verify_s += b.verify;
    decided += b.decided ? 1 : 0;
    table.AddRow({b.key, FormatDouble(b.total * 1e3, 2), FormatDouble(b.compile * 1e3, 2),
                  FormatDouble(b.verify * 1e3, 2), b.decided ? "yes" : "no"});
    items += std::string(items.size() > 1 ? ", " : "") +
             JsonObject()
                 .Str("item", b.key)
                 .Num("best_ms", b.total * 1e3)
                 .Bool("decided", b.decided)
                 .ToString();
  }
  items += "]";

  JsonObject out;
  out.Str("workload", opt.workload)
      .Num("seed", static_cast<double>(opt.seed))
      .Num("rounds", report.rounds)
      .Bool("correct", report.checks.failed() == 0 && report.checks.attempted() > 0)
      .Num("attempted", static_cast<double>(report.checks.attempted()))
      .Num("failed", static_cast<double>(report.checks.failed()));
  std::string failures = "[";
  for (const std::string& m : report.checks.messages()) {
    failures += (failures.size() > 1 ? ", " : "") + JsonString(m);
  }
  out.Raw("failures", failures + "]");

  if (!opt.trace_file.empty()) {
    JsonObject layers;
    for (const auto& [name, value] : report.layers) {
      layers.Num(name, value);
    }
    out.Raw("layers", layers.ToString());
  } else {
    std::fprintf(stderr, "%s\n", table.ToString().c_str());
    int tail_pct = 0;
    const double tail = TailQuantile(totals, &tail_pct);
    out.Raw("e2e", JsonObject()
                       .Num("total_s", total_s)
                       .Num("compile_s", compile_s)
                       .Num("verify_s", verify_s)
                       .Num("setup_s", report.setup_s)
                       .Num("exp_p50_ms", Median(totals) * 1e3)
                       .Num("exp_tail_ms", tail * 1e3)
                       .Num("decided_pct",
                            totals.empty() ? 0 : 100.0 * decided / totals.size())
                       .Num("peak_rss_mb", report.peak_rss_mb)
                       .ToString());
    out.Num("tail_percentile", tail_pct);
    out.Raw("items", items);
  }
  std::printf("%s\n", out.ToString().c_str());
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--expected") {
      opt.expected_path = value;
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && !opt.expected_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const Stopwatch process_watch;
  if (argc == 4 && std::strcmp(argv[1], "--serve") == 0) {
    daemon::ServerOptions server;
    server.socket_path = argv[2];
    server.store_path = argv[3];
    return daemon::DaemonServer(std::move(server)).Run();
  }
  if (argc == 3 && std::strcmp(argv[1], "--regen-expected") == 0) {
    return RegenExpected(argv[2]);
  }
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S --expected FILE "
                 "[--trace-file FILE]\n       e2e_bench --regen-expected FILE\n");
    return 2;
  }
  std::map<std::string, Expected> expected;
  std::string error;
  if (!LoadExpected(opt.expected_path, expected, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  // A daemon that dies mid-request must surface as a failed request, not
  // as SIGPIPE ending this process with the child unreaped.
  ::signal(SIGPIPE, SIG_IGN);

  Report report;
  if (opt.workload == "suite-overify") {
    RunInProcess(opt, SuitePlan(OptLevel::kOverify), expected, report, process_watch);
  } else if (opt.workload == "suite-o3") {
    RunInProcess(opt, SuitePlan(OptLevel::kO3), expected, report, process_watch);
  } else if (opt.workload == "explore-o0") {
    // -O0 programs with at least 200 completed paths and fewer than 100
    // core candidates per fork: exploration and the pre-core solver stages
    // do the work. wc and trim stop at the path cap.
    RunInProcess(opt,
                 NamedPlan({"caesar", "count_mode", "expand_stops", "expr_add", "fold_sp",
                            "grep_i", "od_lite", "strings_lite", "tolower_filter",
                            "toupper_filter", "tr_flex", "trim", "wc", "wc_any"},
                           OptLevel::kO0),
                 expected, report, process_watch);
  } else if (opt.workload == "daemon-mixed") {
    // The suite minus its five core-heavy programs, which the in-process
    // workloads already cover.
    std::vector<PlanItem> plan;
    for (const PlanItem& item : SuitePlan(OptLevel::kOverify)) {
      const std::string& name = item.workload->name;
      if (name != "factor" && name != "seq_range" && name != "printf_d" &&
          name != "expr_add" && name != "seq") {
        plan.push_back(item);
      }
    }
    RunDaemonMixed(opt, plan, expected, report, process_watch);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  PrintReport(opt, report);
  return 0;
}
