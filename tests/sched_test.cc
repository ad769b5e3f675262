// The scheduler subsystem: the depth-first worker queue, work-stealing
// workers, and the determinism contract — identical bug sets, verdicts, and
// path counts for 1..N workers on exhausted runs (docs/scheduler.md),
// preserved under batch stealing and the shared lock-striped interner.
#include <gtest/gtest.h>

#include "src/driver/compiler.h"
#include "src/frontend/codegen.h"
#include "src/sched/worker_pool.h"
#include "src/symex/executor.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

std::unique_ptr<Module> CompileOrDie(const std::string& source) {
  DiagnosticEngine diags;
  auto m = CompileMiniC(source, "sched_test", diags);
  EXPECT_NE(m, nullptr) << diags.ToString();
  return m;
}

SymexResult RunWith(Module& m, unsigned jobs, unsigned bytes, const SymexLimits& limits) {
  SymexOptions options;
  options.jobs = jobs;
  return SymbolicExecutor(m, options).Run("umain", bytes, limits);
}

// Two results must agree on everything the determinism contract covers.
void ExpectEquivalent(const SymexResult& a, const SymexResult& b, const std::string& label) {
  EXPECT_EQ(a.exhausted, b.exhausted) << label;
  for (Counter c : {Counter::kPathsCompleted, Counter::kPathsBug, Counter::kInstructions,
                    Counter::kForks}) {
    EXPECT_EQ(a.metrics.Get(c), b.metrics.Get(c)) << label << " " << CounterName(c);
  }
  ASSERT_EQ(a.bugs.size(), b.bugs.size()) << label;
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].kind, b.bugs[i].kind) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].site, b.bugs[i].site) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].message, b.bugs[i].message) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].example_input, b.bugs[i].example_input) << label << " bug " << i;
  }
}

// ---- Worker-count determinism.

TEST(SchedulerDeterminismTest, WorkerCountsAgreeOnForkHeavyProgram) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int c = 0;
      for (int i = 0; i < n; i++) {
        if (in[i] == 'q') { c++; }
        if (in[i] == 'z') { c += 2; }
      }
      return c;
    }
  )");
  SymexLimits limits;
  SymexResult one = RunWith(*m, 1, 6, limits);
  EXPECT_TRUE(one.exhausted);
  EXPECT_GE(one.metrics.Get(Counter::kPathsCompleted), 64u);
  for (unsigned jobs : {2u, 4u}) {
    SymexResult many = RunWith(*m, jobs, 6, limits);
    ExpectEquivalent(one, many, "jobs=" + std::to_string(jobs));
  }
}

TEST(SchedulerDeterminismTest, WorkerCountsAgreeOnBugSets) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      unsigned char buf[4];
      int i = 0;
      for (; in[i]; i++) {
        buf[i] = in[i];            /* overflows when the input is long */
      }
      if (in[0] == 'd') { return 10 / (in[1] - 'x'); }
      __check(in[2] != '!', "bang rejected");
      return buf[0] + i;
    }
  )");
  SymexLimits limits;
  SymexResult one = RunWith(*m, 1, 6, limits);
  EXPECT_TRUE(one.exhausted);
  EXPECT_FALSE(one.bugs.empty());
  for (unsigned jobs : {2u, 4u, 8u}) {
    SymexResult many = RunWith(*m, jobs, 6, limits);
    ExpectEquivalent(one, many, "jobs=" + std::to_string(jobs));
  }
}

// The workload suite end-to-end: every program, 1 worker vs 4 workers.
TEST(SchedulerDeterminismTest, WorkloadSuiteIdenticalAcrossWorkerCounts) {
  SymexLimits limits;
  limits.max_paths = 60000;
  limits.max_seconds = 30;
  for (const Workload& workload : CoreutilsSuite()) {
    Compiler compiler;
    auto compiled = compiler.Compile(workload.source, OptLevel::kOverify, workload.name);
    ASSERT_TRUE(compiled.ok) << workload.name;
    SymexResult one = Analyze(compiled, "umain", 3, limits, /*jobs=*/1);
    SymexResult four = Analyze(compiled, "umain", 3, limits, /*jobs=*/4);
    if (!one.exhausted) {
      continue;  // the contract covers exhausted runs only
    }
    if (!four.exhausted && four.stop_cause == StopCause::kDeadline) {
      // Wall-clock stops are host-speed-dependent: on a 1-core sanitizer
      // host four workers time-slice one CPU and a near-the-budget
      // workload (factor) can cross max_seconds at jobs=4 while exhausting
      // at jobs=1. A deadline stop is attributed degradation, not a
      // determinism violation (docs/robustness.md).
      continue;
    }
    ExpectEquivalent(one, four, workload.name);
  }
}

// The heaviest benchmark workload (thousands of paths at -O3), where
// stealing actually happens.
const char* WcSource() {
  return R"(
    int wc(unsigned char *str, int any) {
      int res = 0;
      int new_word = 1;
      for (unsigned char *p = str; *p; ++p) {
        if (isspace((int)*p) || (any && !isalpha((int)*p))) {
          new_word = 1;
        } else {
          if (new_word) { ++res; new_word = 0; }
        }
      }
      return res;
    }
    int umain(unsigned char *in, int n) { return wc(in, 1); }
  )";
}

// A deeper run on the wc workload at -O3, where stealing actually happens.
// Builds without NDEBUG also assert every stolen state's expressions live
// in the run's shared interner (src/sched/worker_pool.cc).
TEST(SchedulerDeterminismTest, WcAtO3IdenticalAcrossWorkerCounts) {
  Compiler compiler;
  auto compiled = compiler.Compile(WcSource(), OptLevel::kO3);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  limits.max_seconds = 120;
  SymexResult one = Analyze(compiled, "umain", 5, limits, /*jobs=*/1);
  ASSERT_TRUE(one.exhausted);
  EXPECT_GE(one.metrics.Get(Counter::kPathsCompleted), 1000u);
  SymexResult four = Analyze(compiled, "umain", 5, limits, /*jobs=*/4);
  ExpectEquivalent(one, four, "wc@O3 jobs=4");
}

// ---- Pool reuse: a second Run on the same pool starts from an empty queue
// and repeats the first run exactly.

TEST(PoolReuseTest, SecondRunOnTheSamePoolMatchesTheFirst) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int c = 0;
      for (int i = 0; i < n; i++) {
        if (in[i] == 'q') { c++; }
        if (in[i] == 'z') { c += 2; }
      }
      return c;
    }
  )");
  SymexOptions options;
  options.jobs = 2;
  SymexLimits limits;
  sched::WorkerPool pool(*m, options);
  Function* entry = m->GetFunction("umain");
  ASSERT_NE(entry, nullptr);
  SymexResult first = pool.Run(entry, 5, limits);
  EXPECT_TRUE(first.exhausted);
  SymexResult second = pool.Run(entry, 5, limits);
  ExpectEquivalent(first, second, "pool reuse");
}

// ---- The worker queue: depth-first hot end, oldest-first batch steal.

std::unique_ptr<ExecState> StateWithId(uint64_t id) {
  auto state = std::make_unique<ExecState>();
  state->id = id;
  return state;
}

TEST(StealBatchTest, ThievesTakeHalfTheColdEndOldestFirst) {
  sched::SharedCounters shared;
  sched::WorkerQueue queue;
  queue.BeginRun(shared);
  for (uint64_t id = 1; id <= 5; ++id) {
    queue.PushFork(StateWithId(id));
  }
  std::vector<std::unique_ptr<ExecState>> batch;
  queue.StealBatch(batch);
  // Half of five, rounded up, from the cold end: the oldest states, oldest
  // first.
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0]->id, 1u);
  EXPECT_EQ(batch[1]->id, 2u);
  EXPECT_EQ(batch[2]->id, 3u);
  EXPECT_EQ(queue.Remaining(), 2u);
  // The hot end is untouched: the owner still pops the newest.
  auto next = queue.PopOwn();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->id, 5u);
  queue.EndRun();
  EXPECT_EQ(queue.Remaining(), 0u);
  EXPECT_EQ(queue.PopOwn(), nullptr);
}

TEST(StealBatchTest, OneStealTakesAtMostTheBatchCap) {
  sched::SharedCounters shared;
  sched::WorkerQueue queue;
  queue.BeginRun(shared);
  const uint64_t n = 3 * sched::WorkerQueue::kMaxStealBatch;
  for (uint64_t id = 1; id <= n; ++id) {
    queue.PushFork(StateWithId(id));
  }
  std::vector<std::unique_ptr<ExecState>> batch;
  queue.StealBatch(batch);
  ASSERT_EQ(batch.size(), sched::WorkerQueue::kMaxStealBatch);
  EXPECT_EQ(batch.front()->id, 1u);
  EXPECT_EQ(batch.back()->id, sched::WorkerQueue::kMaxStealBatch);
  EXPECT_EQ(queue.Remaining(), n - sched::WorkerQueue::kMaxStealBatch);
}

// ---- Per-cause terminated accounting.

TEST(TerminationAccountingTest, CausesSumOnExhaustedRun) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      if (in[0] == 'x') { return 5 / (in[1] - in[1]); }   /* guaranteed bug path */
      return in[0];
    }
  )");
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 2, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_GE(result.metrics.Get(Counter::kPathsBug), 1u);
  EXPECT_EQ(result.metrics.Get(Counter::kPathsLimit), 0u);
  EXPECT_EQ(result.metrics.Get(Counter::kPathsUnexplored), 0u);
  // Every terminated path has a non-solver cause.
  EXPECT_EQ(result.metrics.Get(Counter::kPathsUnknown), 0u);
}

TEST(TerminationAccountingTest, CompletingExactlyAtTheLimitIsStillExhausted) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      if (in[0] > 'm') { return 1; }
      return 0;
    }
  )");
  SymexLimits limits;
  limits.max_paths = 2;  // the program has exactly two paths
  SymexResult result = SymbolicExecutor(*m).Run("umain", 1, limits);
  EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), 2u);
  EXPECT_TRUE(result.exhausted);  // everything ran to its end
  EXPECT_EQ(result.metrics.Get(Counter::kPathsLimit), 0u);
  EXPECT_EQ(result.metrics.Get(Counter::kPathsUnexplored), 0u);
}

TEST(TerminationAccountingTest, CausesSumOnLimitStop) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int c = 0;
      for (int i = 0; i < n; i++) {
        if (in[i] == 'q') { c++; }
      }
      return c;
    }
  )");
  SymexLimits limits;
  limits.max_paths = 4;  // stop long before the 256 feasible paths finish
  SymexResult result = SymbolicExecutor(*m).Run("umain", 8, limits);
  EXPECT_FALSE(result.exhausted);
  // Depth-first order leaves the first path's forked siblings queued.
  EXPECT_GE(result.metrics.Get(Counter::kPathsUnexplored), 1u);
  // Every terminated path has a non-solver cause.
  EXPECT_EQ(result.metrics.Get(Counter::kPathsUnknown), 0u);
}

// ---- Budget-limited determinism: partial results are reproducible too.
//
// The determinism contract extends to capped runs at one worker (multi-
// worker partial runs are schedule-dependent by design — see
// docs/robustness.md): same budget, same everything ⇒
// bit-identical partial SymexResult, unknown/limit attribution included.
void ExpectIdenticalPartial(const SymexResult& a, const SymexResult& b,
                            const std::string& label) {
  ExpectEquivalent(a, b, label);
  for (Counter c : {Counter::kPathsLimit, Counter::kPathsUnexplored, Counter::kPathsUnknown,
                    Counter::kPathsUnknownBudget, Counter::kPathsUnknownDeadline,
                    Counter::kPathsUnknownInjected}) {
    EXPECT_EQ(a.metrics.Get(c), b.metrics.Get(c)) << label << " " << CounterName(c);
  }
  EXPECT_EQ(a.stop_cause, b.stop_cause) << label;
}

TEST(BudgetDeterminismTest, PathBudgetedRunsAreBitIdentical) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int c = 0;
      for (int i = 0; i < n; i++) {
        if (in[i] == 'q') { c++; }
        if (in[i] == 'z') { c += 2; }
      }
      return c;
    }
  )");
  SymexLimits limits;
  limits.max_paths = 10;
  SymexResult first = RunWith(*m, 1, 6, limits);
  EXPECT_FALSE(first.exhausted);
  EXPECT_EQ(first.stop_cause, StopCause::kPaths);
  EXPECT_GT(first.metrics.Get(Counter::kPathsUnexplored) +
                first.metrics.Get(Counter::kPathsLimit),
            0u);
  SymexResult second = RunWith(*m, 1, 6, limits);
  ExpectIdenticalPartial(first, second, "max_paths=10");
}

TEST(BudgetDeterminismTest, ForkBudgetedRunsAreBitIdentical) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int depth = 0;
      for (int i = 0; i < n; i++) {
        if (in[i] > 'm') { depth++; } else { depth--; }
      }
      return depth;
    }
  )");
  SymexLimits limits;
  limits.max_forks = 7;
  SymexResult first = RunWith(*m, 1, 6, limits);
  EXPECT_FALSE(first.exhausted);
  SymexResult second = RunWith(*m, 1, 6, limits);
  ExpectIdenticalPartial(first, second, "max_forks=7");
}

}  // namespace
}  // namespace overify
