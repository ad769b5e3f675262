// Structured run tracing (src/support/trace.h): a traced run writes a
// well-formed Chrome-trace-event JSON timeline containing the hot-phase
// spans, tracing off writes nothing, and tracing never perturbs the
// exploration results (docs/observability.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/driver/compiler.h"
#include "src/support/trace.h"
#include "src/symex/executor.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

CompileResult CompileWc() {
  Compiler compiler;
  CompileResult compiled =
      compiler.Compile(FindWorkload("wc")->source, OptLevel::kOverify, "wc");
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  return compiled;
}

SymexResult RunWc(CompileResult& compiled, const SymexOptions& options) {
  SymexLimits limits;
  limits.max_seconds = 60;
  return Analyze(compiled, "umain", 5, limits, options);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Strip(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  size_t end = s.find_last_not_of(" \t\r\n");
  return begin == std::string::npos ? "" : s.substr(begin, end - begin + 1);
}

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "trace_test_out.json";
};

TEST_F(TraceTest, TraceBufferRecordsSpansAndInstants) {
  TraceSink sink(path_, 2);
  EXPECT_EQ(sink.workers(), 2u);
  uint64_t t = sink.epoch_ns();
  sink.buffer(0)->Span(TraceKind::kSolverQuery, t + 100, t + 600, 0, 0);
  sink.buffer(1)->Instant(TraceKind::kFaultFired, t + 50, 0);
  EXPECT_EQ(sink.buffer(0)->size(), 1u);
  EXPECT_EQ(sink.buffer(1)->size(), 1u);
  ASSERT_TRUE(sink.Write());
  std::string text = Strip(ReadFile(path_));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), ']');
  EXPECT_NE(text.find("\"solver_query\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"fault_fired\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos) << text;
  EXPECT_NE(text.find("thread_name"), std::string::npos) << text;
}

TEST_F(TraceTest, TracedRunWritesHotPhaseSpans) {
  CompileResult m = CompileWc();
  SymexOptions options;
  options.jobs = 2;
  options.trace_path = path_;
  SymexResult result = RunWc(m, options);
  ASSERT_TRUE(result.ok);

  std::string text = Strip(ReadFile(path_));
  ASSERT_FALSE(text.empty()) << "traced run must write " << path_;
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), ']');
  // The hot phases the tentpole promises: solver queries with verdicts,
  // cache lookups with hit class, preprocessing, fork decisions, worker
  // lifecycles.
  for (const char* name : {"\"solver_query\"", "\"cache_lookup\"", "\"preprocess\"",
                           "\"fork_decide\"", "\"path_run\"", "\"worker_run\""}) {
    EXPECT_NE(text.find(name), std::string::npos) << "missing span " << name;
  }
  EXPECT_NE(text.find("\"verdict\""), std::string::npos);
  EXPECT_NE(text.find("\"hit\""), std::string::npos);
  // Both workers announce themselves even if one never got work.
  EXPECT_NE(text.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(text.find("\"worker-1\""), std::string::npos);
}

TEST_F(TraceTest, NoTracePathWritesNothing) {
  std::remove(path_.c_str());
  CompileResult m = CompileWc();
  SymexOptions options;
  SymexResult result = RunWc(m, options);
  ASSERT_TRUE(result.ok);
  std::ifstream in(path_);
  EXPECT_FALSE(in.good()) << "untraced run must not create " << path_;
}

TEST_F(TraceTest, TracingDoesNotPerturbResults) {
  CompileResult m = CompileWc();
  SymexOptions plain;
  SymexResult untraced = RunWc(m, plain);
  SymexOptions traced_opts;
  traced_opts.trace_path = path_;
  SymexResult traced = RunWc(m, traced_opts);
  ASSERT_TRUE(untraced.ok);
  ASSERT_TRUE(traced.ok);
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (CounterIsDeterministic(c)) {
      EXPECT_EQ(untraced.metrics.Get(c), traced.metrics.Get(c)) << CounterName(c);
    }
  }
  EXPECT_EQ(untraced.exhausted, traced.exhausted);
  EXPECT_EQ(untraced.bugs.size(), traced.bugs.size());
  EXPECT_EQ(untraced.metrics.Get(Counter::kSolverQueries),
            traced.metrics.Get(Counter::kSolverQueries));
}

}  // namespace
}  // namespace overify
