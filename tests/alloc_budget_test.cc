// Allocation budget of the exploration step. This binary replaces the
// global operator new with a counting one and explores `wc` at -O0: the
// step, the fork path and the guards must not allocate per instruction
// (docs/engine.md, "What a step allocates").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/driver/compiler.h"
#include "src/workloads/workloads.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace overify {
namespace {

// Measured with this test (175,611 instructions, 2,800 forks): 1.40
// allocations per instruction while the guards formatted their messages
// eagerly and forks copied node-based maps, 0.35 since. Formatting just the
// "access beyond object" message eagerly again reads 0.55. What remains is
// per fork and per copy-on-write clone (docs/engine.md).
constexpr double kMaxAllocationsPerInstruction = 0.45;

TEST(AllocationBudgetTest, ExploringWcAtO0AllocatesPerForkNotPerInstruction) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  Compiler compiler;
  CompileResult compiled = compiler.Compile(wc->source, OptLevel::kO0, "wc");
  ASSERT_TRUE(compiled.ok) << compiled.errors;

  SymexLimits limits;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  SymexResult result = Analyze(compiled, "umain", /*input_bytes=*/4, limits, /*jobs=*/1);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_TRUE(result.exhausted);
  const uint64_t instructions = result.metrics.Get(Counter::kInstructions);
  ASSERT_GT(instructions, 0u);
  const double per_instruction =
      static_cast<double>(allocations) / static_cast<double>(instructions);
  std::printf("wc -O0 width 4: %llu allocations, %llu instructions, %.3f per instruction\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(instructions), per_instruction);
  EXPECT_LT(per_instruction, kMaxAllocationsPerInstruction);
}

}  // namespace
}  // namespace overify
