// The scheduler subsystem: pluggable searchers, work-stealing workers, and
// the determinism contract — identical bug sets, verdicts, and path counts
// for 1..N workers on exhausted runs (docs/scheduler.md), preserved under
// batch stealing and the shared lock-striped interner.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/driver/compiler.h"
#include "src/frontend/codegen.h"
#include "src/sched/searcher.h"
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

SymexResult RunWith(Module& m, SearchStrategy strategy, unsigned jobs, unsigned bytes,
                    const SymexLimits& limits) {
  SymexOptions options;
  options.strategy = strategy;
  options.jobs = jobs;
  return SymbolicExecutor(m, options).Run("umain", bytes, limits);
}

const std::vector<SearchStrategy>& AllStrategies() {
  static const std::vector<SearchStrategy> kAll = {
      SearchStrategy::kDfs, SearchStrategy::kBfs, SearchStrategy::kRandomPath,
      SearchStrategy::kCoverageGuided};
  return kAll;
}

// The worker-count determinism properties honor OVERIFY_SCHED_STRATEGY so
// CI's multi-core job can re-prove the contract per searcher (its strategy
// matrix sets dfs / coverage-guided); unset runs the DFS default.
SearchStrategy DeterminismStrategy() {
  const char* env = std::getenv("OVERIFY_SCHED_STRATEGY");
  if (env == nullptr || *env == '\0') {
    return SearchStrategy::kDfs;
  }
  for (SearchStrategy strategy : AllStrategies()) {
    if (std::string(env) == SearchStrategyName(strategy)) {
      return strategy;
    }
  }
  ADD_FAILURE() << "unknown OVERIFY_SCHED_STRATEGY '" << env << "'";
  return SearchStrategy::kDfs;
}

// Two results must agree on everything the determinism contract covers.
void ExpectEquivalent(const SymexResult& a, const SymexResult& b, const std::string& label) {
  EXPECT_EQ(a.exhausted, b.exhausted) << label;
  EXPECT_EQ(a.paths_completed, b.paths_completed) << label;
  EXPECT_EQ(a.paths_infeasible, b.paths_infeasible) << label;
  EXPECT_EQ(a.paths_bug, b.paths_bug) << label;
  EXPECT_EQ(a.instructions, b.instructions) << label;
  EXPECT_EQ(a.forks, b.forks) << label;
  ASSERT_EQ(a.bugs.size(), b.bugs.size()) << label;
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].kind, b.bugs[i].kind) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].site, b.bugs[i].site) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].message, b.bugs[i].message) << label << " bug " << i;
    EXPECT_EQ(a.bugs[i].example_input, b.bugs[i].example_input) << label << " bug " << i;
  }
}

// ---- Searcher equivalence: order changes, the explored path set does not.

TEST(SearcherEquivalenceTest, EveryStrategyExploresTheSamePathSet) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int score = 0;
      if (in[0] > 'm') { score += 1; }
      if (in[1] > 'm') { score += 2; }
      if (in[2] > 'm') { score += 4; }
      if (in[0] == in[2]) { score += 8; }
      return score;
    }
  )");
  SymexLimits limits;
  SymexResult baseline = RunWith(*m, SearchStrategy::kDfs, 1, 3, limits);
  EXPECT_TRUE(baseline.exhausted);
  // 3 independent branches fork 8 ways; the equality only forks on the 4
  // combos where in[0] and in[2] sit on the same side of 'm'.
  EXPECT_EQ(baseline.paths_completed, 12u);
  for (SearchStrategy strategy : AllStrategies()) {
    SymexResult result = RunWith(*m, strategy, 1, 3, limits);
    ExpectEquivalent(baseline, result, SearchStrategyName(strategy));
  }
}

TEST(SearcherEquivalenceTest, StrategiesAgreeOnBuggyPrograms) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int d = in[0] - 'a';
      if (in[1] == 'q') { return in[2] / d; }   /* d == 0 when in[0] == 'a' */
      return 0;
    }
  )");
  SymexLimits limits;
  SymexResult baseline = RunWith(*m, SearchStrategy::kDfs, 1, 3, limits);
  EXPECT_TRUE(baseline.FoundBug(BugKind::kDivByZero));
  for (SearchStrategy strategy : AllStrategies()) {
    SymexResult result = RunWith(*m, strategy, 1, 3, limits);
    ExpectEquivalent(baseline, result, SearchStrategyName(strategy));
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
  SearchStrategy strategy = DeterminismStrategy();
  SymexResult one = RunWith(*m, strategy, 1, 6, limits);
  EXPECT_TRUE(one.exhausted);
  EXPECT_GE(one.paths_completed, 64u);
  for (unsigned jobs : {2u, 4u}) {
    SymexResult many = RunWith(*m, strategy, jobs, 6, limits);
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
  SearchStrategy strategy = DeterminismStrategy();
  SymexResult one = RunWith(*m, strategy, 1, 6, limits);
  EXPECT_TRUE(one.exhausted);
  EXPECT_FALSE(one.bugs.empty());
  for (unsigned jobs : {2u, 4u, 8u}) {
    SymexResult many = RunWith(*m, strategy, jobs, 6, limits);
    ExpectEquivalent(one, many, "jobs=" + std::to_string(jobs));
  }
}

// The workload suite end-to-end: every program, 1 worker vs 4 workers.
TEST(SchedulerDeterminismTest, WorkloadSuiteIdenticalAcrossWorkerCounts) {
  SymexLimits limits;
  limits.max_paths = 60000;
  limits.max_seconds = 30;
  SearchStrategy strategy = DeterminismStrategy();
  for (const Workload& workload : CoreutilsSuite()) {
    Compiler compiler;
    auto compiled = compiler.Compile(workload.source, OptLevel::kOverify, workload.name);
    ASSERT_TRUE(compiled.ok) << workload.name;
    SymexResult one = Analyze(compiled, "umain", 3, limits, /*jobs=*/1, strategy);
    SymexResult four = Analyze(compiled, "umain", 3, limits, /*jobs=*/4, strategy);
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
TEST(SchedulerDeterminismTest, WcAtO3IdenticalAcrossWorkerCountsAndStrategies) {
  Compiler compiler;
  auto compiled = compiler.Compile(WcSource(), OptLevel::kO3);
  ASSERT_TRUE(compiled.ok);
  SymexLimits limits;
  limits.max_seconds = 120;
  SymexResult one = Analyze(compiled, "umain", 5, limits, /*jobs=*/1);
  ASSERT_TRUE(one.exhausted);
  EXPECT_GE(one.paths_completed, 1000u);
  SymexResult four = Analyze(compiled, "umain", 5, limits, /*jobs=*/4);
  ExpectEquivalent(one, four, "wc@O3 jobs=4");
  SymexResult coverage = Analyze(compiled, "umain", 5, limits, /*jobs=*/4,
                                 SearchStrategy::kCoverageGuided);
  ExpectEquivalent(one, coverage, "wc@O3 jobs=4 coverage");
}

// ---- Pool reuse: a second Run on the same pool starts from clean search
// state (regression: the coverage searcher's visit table used to survive
// between runs, skewing the next run's order and growing without bound).

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
  options.strategy = SearchStrategy::kCoverageGuided;
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

// ---- The bucketed coverage-guided searcher.

std::unique_ptr<ExecState> StateAt(BasicBlock* block, uint64_t id) {
  auto state = std::make_unique<ExecState>();
  state->id = id;
  StackFrame frame;
  frame.block = block;
  state->stack.push_back(std::move(frame));
  return state;
}

// Blocks of the compiled module, in layout order (the searcher only needs
// distinct pointers).
std::vector<BasicBlock*> BlocksOf(Module& m, const std::string& name) {
  Function* fn = m.GetFunction(name);
  EXPECT_NE(fn, nullptr);
  std::vector<BasicBlock*> blocks;
  for (BasicBlock& block : *fn) {
    blocks.push_back(&block);
  }
  return blocks;
}

std::unique_ptr<Module> TwoBlockModule() {
  return CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      if (in[0] > 'm') { return 1; }
      return 0;
    }
  )");
}

TEST(CoverageBucketedSearcherTest, NextPrefersLeastVisitedAndLazilyRebuckets) {
  auto m = TwoBlockModule();
  std::vector<BasicBlock*> blocks = BlocksOf(*m, "umain");
  ASSERT_GE(blocks.size(), 2u);
  auto searcher = sched::MakeSearcher(SearchStrategy::kCoverageGuided, 0);

  // stale: added while its block had 0 visits, then the block gains 3.
  searcher->Add(StateAt(blocks[0], /*id=*/1));
  for (int i = 0; i < 3; ++i) {
    searcher->NotifyBlockEntered(blocks[0]);
  }
  searcher->Add(StateAt(blocks[1], /*id=*/2));  // genuinely unvisited
  ASSERT_EQ(searcher->Size(), 2u);

  // The unvisited block's state comes first even though it was added last;
  // the stale state is rebucketed on the way.
  auto first = searcher->Next();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 2u);
  auto second = searcher->Next();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 1u);
  EXPECT_EQ(searcher->Next(), nullptr);
  EXPECT_EQ(searcher->Size(), 0u);
}

TEST(CoverageBucketedSearcherTest, StealTakesTheColdEndMostVisitedOldestFirst) {
  auto m = TwoBlockModule();
  std::vector<BasicBlock*> blocks = BlocksOf(*m, "umain");
  ASSERT_GE(blocks.size(), 2u);
  auto searcher = sched::MakeSearcher(SearchStrategy::kCoverageGuided, 0);

  for (int i = 0; i < 5; ++i) {
    searcher->NotifyBlockEntered(blocks[1]);
  }
  searcher->Add(StateAt(blocks[1], /*id=*/1));  // hot block, oldest
  searcher->Add(StateAt(blocks[1], /*id=*/2));  // hot block, newest
  searcher->Add(StateAt(blocks[0], /*id=*/3));  // unvisited: the hot end

  // Thieves drain the most-visited bucket oldest-first; the owner's hot
  // end (the unvisited block's state) is taken last.
  std::vector<std::unique_ptr<ExecState>> batch;
  searcher->StealBatch(batch, 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0]->id, 1u);
  EXPECT_EQ(batch[1]->id, 2u);
  EXPECT_EQ(batch[2]->id, 3u);
  EXPECT_EQ(searcher->Size(), 0u);
}

// Regression (ISSUE 4): visit counts used to accumulate for the searcher's
// whole lifetime; Reset must clear them along with the pending states.
TEST(CoverageBucketedSearcherTest, ResetClearsVisitCountsAndStates) {
  auto m = TwoBlockModule();
  std::vector<BasicBlock*> blocks = BlocksOf(*m, "umain");
  ASSERT_GE(blocks.size(), 2u);
  auto searcher = sched::MakeSearcher(SearchStrategy::kCoverageGuided, 0);

  for (int i = 0; i < 5; ++i) {
    searcher->NotifyBlockEntered(blocks[0]);
  }
  searcher->Add(StateAt(blocks[0], /*id=*/1));
  searcher->Reset();
  EXPECT_EQ(searcher->Size(), 0u);
  EXPECT_EQ(searcher->Next(), nullptr);

  // After the reset blocks[0] must rank as unvisited again: give blocks[1]
  // one (fresh) visit and blocks[0] must win. With the stale pre-reset
  // counts it would have ranked 5-vs-1 and lost.
  searcher->NotifyBlockEntered(blocks[1]);
  searcher->Add(StateAt(blocks[1], /*id=*/2));
  searcher->Add(StateAt(blocks[0], /*id=*/3));
  auto first = searcher->Next();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 3u);
}

// ---- Batch stealing through the Searcher interface.

TEST(StealBatchTest, DefaultImplementationDrainsTheColdEndInOrder) {
  auto m = TwoBlockModule();
  std::vector<BasicBlock*> blocks = BlocksOf(*m, "umain");
  ASSERT_GE(blocks.size(), 1u);
  auto searcher = sched::MakeSearcher(SearchStrategy::kDfs, 0);
  for (uint64_t id = 1; id <= 5; ++id) {
    searcher->Add(StateAt(blocks[0], id));
  }
  std::vector<std::unique_ptr<ExecState>> batch;
  searcher->StealBatch(batch, 2);
  // DFS's cold end is the oldest state; coldest first.
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0]->id, 1u);
  EXPECT_EQ(batch[1]->id, 2u);
  EXPECT_EQ(searcher->Size(), 3u);
  // The hot end is untouched: Next still pops the newest.
  auto next = searcher->Next();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->id, 5u);
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
  EXPECT_GE(result.paths_bug, 1u);
  EXPECT_EQ(result.paths_limit, 0u);
  EXPECT_EQ(result.paths_unexplored, 0u);
  EXPECT_EQ(result.paths_terminated, result.paths_infeasible + result.paths_bug +
                                         result.paths_limit + result.paths_unexplored);
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
  EXPECT_EQ(result.paths_completed, 2u);
  EXPECT_TRUE(result.exhausted);  // everything ran to its end
  EXPECT_EQ(result.paths_limit, 0u);
  EXPECT_EQ(result.paths_unexplored, 0u);
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
  SymexOptions options;
  options.strategy = SearchStrategy::kBfs;  // keeps plenty of states queued
  SymexResult result = SymbolicExecutor(*m, options).Run("umain", 8, limits);
  EXPECT_FALSE(result.exhausted);
  EXPECT_GE(result.paths_limit + result.paths_unexplored, 1u);
  EXPECT_EQ(result.paths_terminated, result.paths_infeasible + result.paths_bug +
                                         result.paths_limit + result.paths_unexplored);
}

// ---- Budget-limited determinism: partial results are reproducible too.
//
// The determinism contract extends to capped runs at one worker (multi-
// worker partial runs are schedule-dependent by design — see
// docs/robustness.md): same budget, same strategy, same everything ⇒
// bit-identical partial SymexResult, unknown/limit attribution included.
void ExpectIdenticalPartial(const SymexResult& a, const SymexResult& b,
                            const std::string& label) {
  ExpectEquivalent(a, b, label);
  EXPECT_EQ(a.paths_limit, b.paths_limit) << label;
  EXPECT_EQ(a.paths_unexplored, b.paths_unexplored) << label;
  EXPECT_EQ(a.paths_unknown, b.paths_unknown) << label;
  EXPECT_EQ(a.paths_unknown_budget, b.paths_unknown_budget) << label;
  EXPECT_EQ(a.paths_unknown_deadline, b.paths_unknown_deadline) << label;
  EXPECT_EQ(a.paths_unknown_injected, b.paths_unknown_injected) << label;
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
  for (SearchStrategy strategy :
       {SearchStrategy::kDfs, SearchStrategy::kCoverageGuided}) {
    SymexLimits limits;
    limits.max_paths = 10;
    SymexResult first = RunWith(*m, strategy, 1, 6, limits);
    std::string label = std::string("max_paths=10 ") + SearchStrategyName(strategy);
    EXPECT_FALSE(first.exhausted) << label;
    EXPECT_EQ(first.stop_cause, StopCause::kPaths) << label;
    EXPECT_GT(first.paths_unexplored + first.paths_limit, 0u) << label;
    SymexResult second = RunWith(*m, strategy, 1, 6, limits);
    ExpectIdenticalPartial(first, second, label);
  }
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
  for (SearchStrategy strategy :
       {SearchStrategy::kDfs, SearchStrategy::kCoverageGuided}) {
    SymexLimits limits;
    limits.max_forks = 7;
    SymexResult first = RunWith(*m, strategy, 1, 6, limits);
    std::string label = std::string("max_forks=7 ") + SearchStrategyName(strategy);
    EXPECT_FALSE(first.exhausted) << label;
    SymexResult second = RunWith(*m, strategy, 1, 6, limits);
    ExpectIdenticalPartial(first, second, label);
  }
}

}  // namespace
}  // namespace overify
