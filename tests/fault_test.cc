// Deterministic fault injection and the graceful-degradation contract
// (docs/robustness.md): injected solver unknowns, cache misses, steal
// failures, stalls, and worker deaths may cost completeness but never
// soundness, every loss is cause-attributed, and same-seed runs reproduce.
//
// The robustness differentials honor OVERIFY_FAULT_SEED (and PERIOD/SITES)
// so CI's fault job can sweep seeds without code changes; unset runs the
// built-in defaults.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/driver/compiler.h"
#include "src/support/fault.h"
#include "src/symex/executor.h"
#include "src/symex/solver.h"
#include "src/testing/diff_harness.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

// ---- FaultInjector units ----

std::vector<bool> DrawSequence(const FaultConfig& config, unsigned worker, FaultSite site,
                               size_t n) {
  FaultInjector injector(config, worker);
  std::vector<bool> fires;
  fires.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fires.push_back(injector.Fire(site));
  }
  return fires;
}

TEST(FaultInjectorTest, SameSeedSameFirePattern) {
  FaultConfig config;
  config.seed = 0x1234;
  config.period = 16;
  for (unsigned site = 0; site < static_cast<unsigned>(FaultSite::kNumSites); ++site) {
    auto a = DrawSequence(config, 2, static_cast<FaultSite>(site), 1000);
    auto b = DrawSequence(config, 2, static_cast<FaultSite>(site), 1000);
    EXPECT_EQ(a, b) << FaultSiteName(static_cast<FaultSite>(site));
  }
}

TEST(FaultInjectorTest, DistinctSeedsAndWorkersDrawDistinctStreams) {
  FaultConfig config;
  config.seed = 0x1234;
  config.period = 4;  // dense enough that equal streams would be a miracle
  auto base = DrawSequence(config, 0, FaultSite::kSolverUnknown, 1000);
  EXPECT_NE(base, DrawSequence(config, 1, FaultSite::kSolverUnknown, 1000));
  FaultConfig other = config;
  other.seed = 0x5678;
  EXPECT_NE(base, DrawSequence(other, 0, FaultSite::kSolverUnknown, 1000));
}

TEST(FaultInjectorTest, DisabledInjectorNeverDraws) {
  FaultInjector injector;  // default: seed 0, disabled
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.Fire(FaultSite::kWorkerDeath));
  }
  EXPECT_EQ(injector.stats().draws, 0u);
  EXPECT_EQ(injector.stats().TotalFires(), 0u);
}

TEST(FaultInjectorTest, SiteMaskGatesFiring) {
  FaultConfig config;
  config.seed = 0x1234;
  config.period = 1;  // fire on every enabled draw
  config.sites = 1u << static_cast<unsigned>(FaultSite::kStealBatch);
  FaultInjector injector(config, 0);
  EXPECT_FALSE(injector.Fire(FaultSite::kSolverUnknown));
  EXPECT_FALSE(injector.Fire(FaultSite::kWorkerDeath));
  EXPECT_TRUE(injector.Fire(FaultSite::kStealBatch));
  EXPECT_EQ(injector.stats().draws, 1u);
  EXPECT_EQ(injector.stats().steal_batch, 1u);
}

TEST(FaultInjectorTest, ExpectedFireRateTracksPeriod) {
  FaultConfig config;
  config.seed = 0xfeed;
  config.period = 8;
  FaultInjector injector(config, 0);
  int fires = 0;
  for (int i = 0; i < 8000; ++i) {
    fires += injector.Fire(FaultSite::kSolverUnknown) ? 1 : 0;
  }
  // Mean 1000; a deterministic stream far outside [500, 1500] would mean
  // the mixing is broken, not that we got unlucky.
  EXPECT_GT(fires, 500);
  EXPECT_LT(fires, 1500);
}

TEST(FaultInjectorTest, FromEnvParsesSeedPeriodAndSites) {
  ASSERT_EQ(setenv("OVERIFY_FAULT_SEED", "0xabc", 1), 0);
  ASSERT_EQ(setenv("OVERIFY_FAULT_PERIOD", "32", 1), 0);
  ASSERT_EQ(setenv("OVERIFY_FAULT_SITES", "solver-unknown,worker-death", 1), 0);
  FaultConfig config = FaultConfig::FromEnv();
  unsetenv("OVERIFY_FAULT_SEED");
  unsetenv("OVERIFY_FAULT_PERIOD");
  unsetenv("OVERIFY_FAULT_SITES");
  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(config.seed, 0xabcu);
  EXPECT_EQ(config.period, 32u);
  EXPECT_TRUE(config.SiteEnabled(FaultSite::kSolverUnknown));
  EXPECT_TRUE(config.SiteEnabled(FaultSite::kWorkerDeath));
  EXPECT_FALSE(config.SiteEnabled(FaultSite::kStealBatch));
  EXPECT_FALSE(config.SiteEnabled(FaultSite::kPrefixCacheLookup));

  EXPECT_FALSE(FaultConfig::FromEnv().enabled()) << "unset seed must disable injection";
}

// ---- Deadline granularity (the max_seconds fix) ----

// An UNSAT constraint pair whose support is wide and xor-shaped: byte
// bindings and interval tightening cannot touch it, so the core search must
// enumerate — exactly the query shape that used to overshoot max_seconds by
// a full candidate budget before the in-loop deadline check.
std::vector<const Expr*> WideUnsatXor(ExprContext& ctx, unsigned bytes) {
  const Expr* x = ctx.ZExt(ctx.Symbol(0), 32);
  for (unsigned i = 1; i < bytes; ++i) {
    x = ctx.Binary(ExprKind::kXor, x, ctx.ZExt(ctx.Symbol(i), 32));
  }
  return {ctx.Compare(ICmpPredicate::kEq, x, ctx.Constant(7, 32)),
          ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kXor, x, ctx.Constant(1, 32)),
                      ctx.Constant(7, 32))};
}

TEST(DeadlineGranularityTest, CoreSearchHonorsRunDeadlineMidQuery) {
  ExprContext ctx;
  CoreSolver core;
  std::vector<const Expr*> constraints = WideUnsatXor(ctx, 8);

  QueryControl control;
  control.has_deadline = true;
  control.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);

  UnknownCause cause = UnknownCause::kNone;
  auto start = std::chrono::steady_clock::now();
  SatResult result = core.CheckSat(ctx, constraints, nullptr, 1ull << 40, &control, &cause);
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  EXPECT_EQ(result, SatResult::kUnknown);
  EXPECT_EQ(cause, UnknownCause::kDeadline);
  // The poll runs every 4096 candidates; even under sanitizers the search
  // must give up within a couple of seconds, not after the 2^40 budget.
  EXPECT_LT(elapsed, 5.0);
}

// The engine-level regression: cksum_wide's 72-byte additive checksum used
// to blow way past a tight max_seconds inside one solver query. The run
// must now come back promptly, non-exhausted, with the deadline attributed.
TEST(DeadlineGranularityTest, TightDeadlineOnCksumWideReturnsPromptly) {
  const Workload* workload = FindWorkload("cksum_wide");
  ASSERT_NE(workload, nullptr);
  Compiler compiler;
  CompileResult compiled = compiler.Compile(workload->source, OptLevel::kOverify, "cksum_wide");
  ASSERT_TRUE(compiled.ok) << compiled.errors;

  SymexLimits limits;
  limits.max_seconds = 0.001;
  auto start = std::chrono::steady_clock::now();
  SymexResult result = Analyze(compiled, "umain", workload->default_sym_bytes, limits);
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.exhausted);
  EXPECT_LT(elapsed, 5.0) << "deadline must interrupt mid-query, not after the budget";
  EXPECT_EQ(result.stop_cause, StopCause::kDeadline) << StopCauseName(result.stop_cause);
  const MetricsShard& m = result.metrics;
  EXPECT_EQ(m.Get(Counter::kPathsUnknown), m.Get(Counter::kPathsUnknownBudget) +
                                               m.Get(Counter::kPathsUnknownDeadline) +
                                               m.Get(Counter::kPathsUnknownInjected));
}

// ---- Worker-failure recovery ----

// Enough branching that four workers all get work (and death draws).
const char* kBranchyProgram = R"(
int umain(unsigned char *in, int n) {
  int acc = 1;
  for (unsigned char *p = in; *p; ++p) {
    int c = (int)*p;
    if (c > 'a') {
      acc = acc + c;
    } else if (c == '0') {
      acc = acc / (c - '0');
    } else {
      acc = acc * 2;
    }
  }
  return acc;
}
)";

SymexResult RunBranchy(CompileResult& compiled, unsigned jobs, const FaultConfig& faults) {
  SymexOptions options;
  options.jobs = jobs;
  options.faults = faults;
  SymexLimits limits;
  return Analyze(compiled, "umain", 4, limits, options);
}

void ExpectIdenticalRuns(const SymexResult& a, const SymexResult& b, const std::string& label) {
  EXPECT_EQ(a.exhausted, b.exhausted) << label;
  for (Counter c : {Counter::kPathsCompleted, Counter::kPathsBug, Counter::kPathsLimit,
                    Counter::kPathsUnexplored, Counter::kPathsUnknown, Counter::kInstructions,
                    Counter::kForks}) {
    EXPECT_EQ(a.metrics.Get(c), b.metrics.Get(c)) << label << " " << CounterName(c);
  }
  EXPECT_EQ(a.stop_cause, b.stop_cause) << label;
  ASSERT_EQ(a.bugs.size(), b.bugs.size()) << label;
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].kind, b.bugs[i].kind) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].message, b.bugs[i].message) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].example_input, b.bugs[i].example_input) << label << " bug " << i;
  }
}

TEST(WorkerFailureTest, RunSurvivesWorkerDeathsBitIdentically) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(kBranchyProgram, OptLevel::kOverify, "branchy");
  ASSERT_TRUE(compiled.ok) << compiled.errors;

  SymexResult clean = RunBranchy(compiled, 4, FaultConfig{});
  ASSERT_TRUE(clean.exhausted);
  EXPECT_GT(clean.metrics.Get(Counter::kPathsCompleted) + clean.metrics.Get(Counter::kPathsBug),
            0u);

  FaultConfig faults;
  faults.seed = 0x9d7a11;
  faults.period = 8;  // die early and often
  faults.sites = 1u << static_cast<unsigned>(FaultSite::kWorkerDeath);
  faults.max_worker_deaths = 3;  // jobs - 1: a survivor is guaranteed
  SymexResult faulted = RunBranchy(compiled, 4, faults);

  ASSERT_TRUE(faulted.exhausted)
      << "with a guaranteed survivor the run must still exhaust";
  EXPECT_LE(faulted.metrics.Get(Counter::kFaultWorkerDeaths), 3u);
  ExpectIdenticalRuns(clean, faulted, "worker-death recovery");
}

TEST(WorkerFailureTest, AllWorkersDyingDegradesWithAttribution) {
  Compiler compiler;
  CompileResult compiled = compiler.Compile(kBranchyProgram, OptLevel::kOverify, "branchy");
  ASSERT_TRUE(compiled.ok) << compiled.errors;

  FaultConfig faults;
  faults.seed = 0x9d7a11;
  faults.period = 1;  // every death draw fires
  faults.sites = 1u << static_cast<unsigned>(FaultSite::kWorkerDeath);
  // max_worker_deaths stays unlimited: every worker may die.
  SymexResult result = RunBranchy(compiled, 2, faults);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.exhausted);
  EXPECT_GT(result.metrics.Get(Counter::kPathsUnexplored), 0u);
  EXPECT_GE(result.metrics.Get(Counter::kFaultWorkerDeaths), 1u);
  EXPECT_EQ(result.stop_cause, StopCause::kWorkerDeath) << StopCauseName(result.stop_cause);
}

// ---- Robustness differentials ----

// OVERIFY_FAULT_SEED joins the sweep when set (the CI fault job exports it);
// the built-in seeds always run.
difftest::RobustnessOptions SweepOptions() {
  difftest::RobustnessOptions options;
  FaultConfig env = FaultConfig::FromEnv();
  if (env.enabled()) {
    options.fault_seeds.push_back(env.seed);
    options.fault_period = env.period;
  }
  return options;
}

TEST(RobustnessDifferentialTest, BuggyProgramDegradesGracefully) {
  difftest::DiffReport report = difftest::RunRobustnessDifferential(
      "branchy", kBranchyProgram, 4, SweepOptions());
  EXPECT_TRUE(report.ok) << report.diff;
}

TEST(RobustnessDifferentialTest, EchoWorkload) {
  const Workload* workload = FindWorkload("echo");
  ASSERT_NE(workload, nullptr);
  difftest::DiffReport report = difftest::RunRobustnessDifferential(*workload, 0, SweepOptions());
  EXPECT_TRUE(report.ok) << report.diff;
}

TEST(RobustnessDifferentialTest, GrepLiteWorkload) {
  const Workload* workload = FindWorkload("grep_lite");
  ASSERT_NE(workload, nullptr);
  difftest::DiffReport report = difftest::RunRobustnessDifferential(*workload, 0, SweepOptions());
  EXPECT_TRUE(report.ok) << report.diff;
}

}  // namespace
}  // namespace overify
