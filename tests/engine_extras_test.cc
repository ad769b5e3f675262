// Engine behaviours beyond the happy path: search order, fork isolation,
// limits, the memory model's copy-on-write discipline, and output capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/frontend/codegen.h"
#include "src/ir/parser.h"
#include "src/symex/executor.h"
#include "src/symex/memory.h"

namespace overify {
namespace {

std::unique_ptr<Module> CompileOrDie(const std::string& source) {
  DiagnosticEngine diags;
  auto m = CompileMiniC(source, "engine_extras", diags);
  EXPECT_NE(m, nullptr) << diags.ToString();
  return m;
}

TEST(SearchOrderTest, BfsAndDfsExploreTheSamePathSet) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int score = 0;
      if (in[0] > 'm') { score += 1; }
      if (in[1] > 'm') { score += 2; }
      if (in[2] > 'm') { score += 4; }
      return score;
    }
  )");
  SymexLimits limits;
  SymexOptions dfs;
  dfs.strategy = SearchStrategy::kDfs;
  SymexOptions bfs;
  bfs.strategy = SearchStrategy::kBfs;
  SymexResult dfs_result = SymbolicExecutor(*m, dfs).Run("umain", 3, limits);
  SymexResult bfs_result = SymbolicExecutor(*m, bfs).Run("umain", 3, limits);
  EXPECT_TRUE(dfs_result.exhausted);
  EXPECT_TRUE(bfs_result.exhausted);
  EXPECT_EQ(dfs_result.metrics.Get(Counter::kPathsCompleted), 8u);
  EXPECT_EQ(bfs_result.metrics.Get(Counter::kPathsCompleted), 8u);
  EXPECT_EQ(dfs_result.metrics.Get(Counter::kForks), bfs_result.metrics.Get(Counter::kForks));
}

TEST(ForkIsolationTest, SiblingPathsDoNotShareMemoryWrites) {
  // Each branch writes a different value into the same buffer slot; if forked
  // states leaked object state, the check would fire on some path.
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      unsigned char tag[1];
      if (in[0] == 'A') { tag[0] = 1; } else { tag[0] = 2; }
      if (in[0] == 'A') { __check(tag[0] == 1, "lost write on A path"); }
      else { __check(tag[0] == 2, "lost write on other path"); }
      return tag[0];
    }
  )");
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 1, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.bugs.empty()) << result.bugs[0].message;
  EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), 2u);
}

TEST(ForkIsolationTest, PointerSlotsArePathLocal) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      unsigned char *p;   /* pointer variable spilled to memory at -O0 */
      unsigned char a[1];
      unsigned char b[1];
      a[0] = 10;
      b[0] = 20;
      if (in[0] == 'x') { p = a; } else { p = b; }
      if (in[0] == 'x') { __check(*p == 10, "pointer slot leaked: a"); }
      else { __check(*p == 20, "pointer slot leaked: b"); }
      return *p;
    }
  )");
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 1, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.bugs.empty()) << result.bugs[0].message;
}

TEST(LimitsTest, MaxForksStopsExploration) {
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
  limits.max_forks = 3;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 8, limits);
  EXPECT_FALSE(result.exhausted);
  // One in-flight fork may complete the step.
  EXPECT_LE(result.metrics.Get(Counter::kForks), 4u);
  // Every terminated path has a non-solver cause: the limit stopped it.
  EXPECT_EQ(result.metrics.Get(Counter::kPathsUnknown), 0u);
}

TEST(LimitsTest, MaxInstructionsStopsExploration) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int x = 0;
      while (1) { x = x + 1; }
      return x;
    }
  )");
  SymexLimits limits;
  limits.max_instructions = 500;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 1, limits);
  EXPECT_FALSE(result.exhausted);
  EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), 0u);
  EXPECT_GE(result.metrics.Get(Counter::kInstructions), 500u);
  EXPECT_LE(result.metrics.Get(Counter::kInstructions), 600u);
  // The looping state was killed mid-flight by the limit stop.
  EXPECT_EQ(result.metrics.Get(Counter::kPathsLimit), 1u);
  // Every terminated path has a non-solver cause: the limit stopped it.
  EXPECT_EQ(result.metrics.Get(Counter::kPathsUnknown), 0u);
}

TEST(MemoryModelTest, CopyOnWriteSharesUntilMutation) {
  ExprContext ctx;
  AddressSpace space_a;
  uint64_t id = space_a.Allocate(ctx, 4, false, false, "buf");
  space_a.Write(id).SetByte(0, ctx.Constant(7, 8));

  AddressSpace space_b = space_a;  // fork
  // Reads agree and share the same object.
  EXPECT_EQ(&space_a.Read(id), &space_b.Read(id));
  // Mutating the copy detaches it.
  space_b.Write(id).SetByte(0, ctx.Constant(9, 8));
  EXPECT_NE(&space_a.Read(id), &space_b.Read(id));
  EXPECT_EQ(space_a.Read(id).Byte(0)->constant_value(), 7u);
  EXPECT_EQ(space_b.Read(id).Byte(0)->constant_value(), 9u);
}

TEST(MemoryModelTest, FreeRemovesObject) {
  ExprContext ctx;
  AddressSpace space;
  uint64_t id = space.Allocate(ctx, 8, false, true, "frame");
  EXPECT_TRUE(space.Exists(id));
  EXPECT_EQ(space.Meta(id).size, 8u);
  space.Free(id);
  EXPECT_FALSE(space.Exists(id));
}

TEST(MemoryModelTest, FreeingAMiddleObjectThenForkingKeepsTheRest) {
  ExprContext ctx;
  AddressSpace space;
  uint64_t first = space.Allocate(ctx, 2, false, false, "first");
  uint64_t middle = space.Allocate(ctx, 3, false, true, "middle");
  uint64_t last = space.Allocate(ctx, 4, true, false, "last");
  space.Write(first).SetByte(1, ctx.Constant(11, 8));
  space.Write(last).SetByte(3, ctx.Constant(44, 8));
  space.Free(middle);

  AddressSpace fork = space;
  for (const AddressSpace* s : {&space, &fork}) {
    EXPECT_EQ(s->NumObjects(), 2u);
    EXPECT_FALSE(s->Exists(middle));
    EXPECT_EQ(s->Meta(first).size, 2u);
    EXPECT_EQ(s->Meta(first).name, "first");
    EXPECT_EQ(s->Meta(last).size, 4u);
    EXPECT_TRUE(s->Meta(last).read_only);
    EXPECT_EQ(s->Read(first).Byte(1)->constant_value(), 11u);
    EXPECT_EQ(s->Read(last).Byte(3)->constant_value(), 44u);
  }
  // Allocating in the fork appends past every id ever handed out.
  uint64_t next = fork.Allocate(ctx, 1, false, true, "next");
  EXPECT_GT(next, last);
  EXPECT_TRUE(fork.Exists(next));
  EXPECT_FALSE(space.Exists(next));
  fork.Write(last).SetByte(0, ctx.Constant(5, 8));
  EXPECT_EQ(space.Read(last).Byte(0)->constant_value(), 0u);
  EXPECT_EQ(fork.Read(last).Byte(0)->constant_value(), 5u);
}

TEST(MemoryModelTest, FreedIdsStayDeadAndIdsAreMonotone) {
  ExprContext ctx;
  AddressSpace space;
  EXPECT_FALSE(space.Exists(0));  // the null object
  uint64_t previous = 0;
  std::vector<uint64_t> freed;
  for (int round = 0; round < 4; ++round) {
    uint64_t a = space.Allocate(ctx, 1, false, true, "a");
    uint64_t b = space.Allocate(ctx, 1, false, true, "b");
    EXPECT_GT(a, previous);
    EXPECT_GT(b, a);
    previous = b;
    // Frame-order and out-of-order frees both leave the rest addressable.
    space.Free(round % 2 == 0 ? b : a);
    freed.push_back(round % 2 == 0 ? b : a);
  }
  for (uint64_t id : freed) {
    EXPECT_FALSE(space.Exists(id));
  }
  EXPECT_EQ(space.NumObjects(), 4u);
  space.Free(freed.front());  // freeing a dead id is a no-op
  EXPECT_EQ(space.NumObjects(), 4u);
}

TEST(MemoryModelTest, SoleOwnerWritesInPlaceAndSharedWritesDetach) {
  ExprContext ctx;
  AddressSpace space;
  uint64_t id = space.Allocate(ctx, 4, false, false, "buf");
  const ObjectState* original = &space.Read(id);
  EXPECT_EQ(&space.Write(id), original);  // sole owner: in place

  AddressSpace fork = space;
  ObjectState& detached = fork.Write(id);  // shared: the writer clones
  EXPECT_NE(&detached, original);
  EXPECT_EQ(&space.Read(id), original);
  // The clone dropped its reference, so the original is solely owned again.
  EXPECT_EQ(&space.Write(id), original);
  EXPECT_EQ(&fork.Write(id), &detached);
}

// Runs a textual-IR module's `umain` over `input_bytes` symbolic bytes and
// returns the messages of every bug found.
std::vector<std::string> BugMessages(Module& module, unsigned input_bytes) {
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(module).Run("umain", input_bytes, limits);
  EXPECT_TRUE(result.exhausted);
  std::vector<std::string> messages;
  for (const BugReport& bug : result.bugs) {
    messages.push_back(bug.message);
  }
  return messages;
}

// Every bug message the engine formats only when it files a report, pinned
// byte for byte.
TEST(BugMessageTest, WideAccessToANarrowObjectNamesTheObject) {
  auto m = ParseModuleOrDie(R"(
    global @flag : i8 = [7]
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %p = gep i32, @flag, i64 0
      %v = load %p
      ret %v
    }
  )");
  EXPECT_EQ(BugMessages(*m, 1),
            std::vector<std::string>{"4-byte access to 1-byte object 'flag'"});
}

TEST(BugMessageTest, OutOfBoundsOnANamedAllocaCarriesTheIrName) {
  auto m = ParseModuleOrDie(R"(
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %table = alloca [4 x i8]
      %c = load %in
      %ix = zext %c to i64
      %p = gep [4 x i8], %table, i64 0, %ix
      %v = load %p
      %r = zext %v to i32
      ret %r
    }
  )");
  EXPECT_EQ(BugMessages(*m, 1),
            std::vector<std::string>{"access beyond object 'table' (4 bytes)"});
}

TEST(BugMessageTest, DivisionGuardsAndChecks) {
  auto m = ParseModuleOrDie(R"(
    func @umain(%in: i8*, %n: i32) -> i32 {
    entry:
      %c = load %in
      %d = zext %c to i32
      %q = udiv i32 100, %d
      %is_min = icmp eq %c, i8 1
      %lhs = select %is_min, i32 -2147483648, i32 5
      %is_neg = icmp eq %c, i8 2
      %rhs = select %is_neg, i32 -1, i32 1
      %both = icmp eq %c, i8 1
      %rhs2 = select %both, i32 -1, %rhs
      %s = sdiv %lhs, %rhs2
      %ok = icmp ne %c, i8 120
      check %ok, assert, "x is forbidden"
      %r = add %q, %s
      ret %r
    }
  )");
  std::vector<std::string> messages = BugMessages(*m, 1);
  std::sort(messages.begin(), messages.end());
  EXPECT_EQ(messages, (std::vector<std::string>{"assert: x is forbidden", "division by zero",
                                                "signed division overflow"}));
}

TEST(DeadStackObjectTest, EscapedFrameAddressIsReportedOnUse) {
  // A function stores the address of its local into a global slot; using it
  // after return is a classic stack-escape bug the engine flags.
  auto m = CompileOrDie(R"(
    unsigned char *saved;
    void leak(void) {
      unsigned char local[2];
      local[0] = 5;
      saved = local;
    }
    int umain(unsigned char *in, int n) {
      leak();
      return *saved;
    }
  )");
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 1, limits);
  EXPECT_TRUE(result.FoundBug(BugKind::kOutOfBounds));
}

// ---- SupportSet overflow: symbol indices >= 64 leave the one-word bitmask
// and live in the sorted overflow vector (src/symex/expr.h). Drive that
// path end to end through the engine: constraints over bytes 65/68/70 flow
// through FilterIndependent's overflow-aware intersection tests, the core
// solver's support walks, and bug-model extraction.

TEST(SupportOverflowTest, WorkloadWithMoreThan64SymbolicBytesIsExplored) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      if (in[65] == 'A' && in[70] == 'B') {
        __check(in[2] != '!', "bang past the bitmask");
        return 1;
      }
      if (in[0] == in[68]) { return 2; }
      return 0;
    }
  )");
  constexpr unsigned kBytes = 72;
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(*m).Run("umain", kBytes, limits);
  EXPECT_TRUE(result.exhausted);
  // The high-byte constraints must actually prune: byte 2's check only
  // fires on the path where bytes 65 and 70 matched.
  ASSERT_TRUE(result.FoundBug(BugKind::kCheckFailed));
  for (const BugReport& bug : result.bugs) {
    if (bug.kind != BugKind::kCheckFailed) {
      continue;
    }
    // The model spans every symbolic byte and satisfies the overflow-path
    // constraints that guard the bug.
    ASSERT_EQ(bug.example_input.size(), kBytes);
    EXPECT_EQ(bug.example_input[65], 'A');
    EXPECT_EQ(bug.example_input[70], 'B');
    EXPECT_EQ(bug.example_input[2], '!');
  }
  // Independence filtering keeps overflow-support constraints when they
  // share a high symbol: the in[0] == in[68] branch forks on both sides.
  EXPECT_GE(result.metrics.Get(Counter::kPathsCompleted), 4u);
}

TEST(SupportOverflowTest, HighSymbolResultsAreWorkerCountIndependent) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      int score = 0;
      if (in[66] > 'm') { score += 1; }
      if (in[1] == in[67]) { score += 2; }
      if (in[71] == in[66]) { score += 4; }
      return score;
    }
  )");
  SymexLimits limits;
  SymexOptions one_opts;
  one_opts.jobs = 1;
  SymexResult one = SymbolicExecutor(*m, one_opts).Run("umain", 72, limits);
  EXPECT_TRUE(one.exhausted);
  SymexOptions four_opts;
  four_opts.jobs = 4;
  SymexResult four = SymbolicExecutor(*m, four_opts).Run("umain", 72, limits);
  EXPECT_EQ(one.metrics.Get(Counter::kPathsCompleted), four.metrics.Get(Counter::kPathsCompleted));
  EXPECT_EQ(one.metrics.Get(Counter::kForks), four.metrics.Get(Counter::kForks));
  EXPECT_EQ(one.metrics.Get(Counter::kInstructions), four.metrics.Get(Counter::kInstructions));
}

TEST(OutputCaptureTest, SymbolicOutputBytesAreTracked) {
  auto m = CompileOrDie(R"(
    int umain(unsigned char *in, int n) {
      putchar(in[0] + 1);   /* symbolic byte flows to output */
      putchar('!');
      return 0;
    }
  )");
  SymexLimits limits;
  SymexResult result = SymbolicExecutor(*m).Run("umain", 1, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.metrics.Get(Counter::kPathsCompleted), 1u);  // output does not fork
}

}  // namespace
}  // namespace overify
