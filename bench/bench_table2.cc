// Table 2 of the paper: the impact of each compiler-transformation family on
// Verification cost and Execution cost (+ improves, - hurts, 0 neutral).
//
// The paper states the matrix qualitatively; this harness measures it. For
// each row a microbenchmark kernel is compiled twice — with the
// transformation family enabled and disabled — and both builds are (a)
// symbolically analyzed (verification cost = interpreted instructions +
// solver queries) and (b) concretely executed (execution cost units).
#include "bench/bench_common.h"

using namespace overify;
using namespace overify::bench;

namespace {

struct Row {
  const char* name;
  const char* program;
  unsigned sym_bytes;
  // Mutates the baseline options into the "transformation off" variant.
  void (*disable)(PipelineOptions&);
  const char* paper_verify;  // the sign printed in the paper
  const char* paper_exec;
};

uint64_t VerifyCost(CompileResult& compiled, unsigned bytes) {
  SymexLimits limits;
  limits.max_paths = 200000;
  limits.max_seconds = 20;
  SymexResult result = Analyze(compiled, "umain", bytes, limits);
  return result.metrics.Get(Counter::kInstructions) +
         10 * result.metrics.Get(Counter::kSolverQueries);
}

uint64_t ExecCost(CompileResult& compiled, const std::string& input) {
  Interpreter interp(*compiled.module);
  InterpResult run = interp.Run("umain", input);
  return run.ok ? run.cost_units : 0;
}

const char* Sign(uint64_t off_cost, uint64_t on_cost) {
  // "+" = enabling the transformation reduces cost.
  if (on_cost * 100 < off_cost * 97) {
    return "+";
  }
  if (off_cost * 100 < on_cost * 97) {
    return "-";
  }
  return "0";
}

}  // namespace

int main() {
  const Row kRows[] = {
      {"Constant propagation/folding, arithmetic simplification",
       R"(
         int umain(unsigned char *in, int n) {
           int x = in[0];
           int y = x;        /* the paper's x=input(); y=x; x-=y example */
           x -= y;
           int k = (3 * 14 + 2) / 4;
           if (x + k == in[1] + 10) { return 1; }
           return 0;
         }
       )",
       3, [](PipelineOptions& o) { o.instcombine = false; o.cse = false; }, "+", "+"},

      {"Remove/split memory accesses (mem2reg + SROA)",
       R"(
         int umain(unsigned char *in, int n) {
           int parts[4];
           parts[0] = in[0]; parts[1] = in[1]; parts[2] = 7; parts[3] = 9;
           int sum = 0;
           for (int i = 0; i < 2; i++) { sum += parts[i]; }
           return sum + parts[2] * parts[3];
         }
       )",
       3, [](PipelineOptions& o) { o.mem2reg = false; o.sroa = false; }, "+", "+"},

      {"Simplify control flow (unswitch + jump threading + if-convert)",
       R"(
         int classify(unsigned char *s, int strict) {
           int bad = 0;
           for (long i = 0; s[i]; i++) {
             if (strict && !isalnum(s[i])) { bad++; }
             else if (s[i] == '?') { bad++; }
           }
           return bad;
         }
         int umain(unsigned char *in, int n) { return classify(in, 1); }
       )",
       4,
       [](PipelineOptions& o) {
         o.unswitch = false;
         o.jump_threading = false;
         o.if_convert = false;
       },
       "+", "+/-"},

      {"Restructure the program (inlining + unrolling)",
       R"(
         int weight(int c) { return isalpha(c) ? 2 : 1; }
         int umain(unsigned char *in, int n) {
           int sum = 0;
           for (int i = 0; i < 3; i++) { sum += weight(in[i]); }
           return sum;
         }
       )",
       3,
       [](PipelineOptions& o) {
         o.inline_functions = false;
         o.unroll = false;
       },
       "+/-", "+/-"},

      {"Program annotations (ranges, trip counts)",
       R"(
         int umain(unsigned char *in, int n) {
           int x = in[0] & 31;
           int sum = 0;
           /* putchar blocks speculation, so these branches survive to the
              engine; their conditions are decidable only via ranges. */
           if (x < 40) { putchar('a'); sum++; }
           if (x + (in[1] & 15) < 300) { putchar('b'); sum++; }
           if (in[1] > 5) { putchar('c'); sum++; }
           return sum;
         }
       )",
       2, [](PipelineOptions& o) { o.annotate = false; }, "+", "-"},

      {"Generate runtime checks",
       R"(
         int umain(unsigned char *in, int n) {
           int d = (in[0] & 7) + 1;
           int q = 100 / d;           /* provably safe: check elided */
           int r = 100 / (in[1] - 3); /* can trap: check stays */
           return q + r;
         }
       )",
       2, [](PipelineOptions& o) { o.runtime_checks = false; }, "+", "-"},
  };

  std::printf("Table 2: transformation impact on Verification and Execution cost\n");
  std::printf("(measured: each row on/off under the -OVERIFY pipeline; '+' = enabling helps)\n\n");

  TextTable table({"Transformation", "Verif (meas)", "Exec (meas)", "Verif (paper)",
                   "Exec (paper)"});
  for (const Row& row : kRows) {
    PipelineOptions on = PipelineOptions::For(OptLevel::kOverify);
    PipelineOptions off = on;
    row.disable(off);

    Compiler compiler;
    CompileResult on_build = compiler.CompileWithOptions(row.program, on);
    CompileResult off_build = compiler.CompileWithOptions(row.program, off);
    if (!on_build.ok || !off_build.ok) {
      std::fprintf(stderr, "compile failed for row '%s'\n%s%s\n", row.name,
                   on_build.errors.c_str(), off_build.errors.c_str());
      return 1;
    }

    std::string input(row.sym_bytes, 'a');
    uint64_t verify_on = VerifyCost(on_build, row.sym_bytes);
    uint64_t verify_off = VerifyCost(off_build, row.sym_bytes);
    uint64_t exec_on = ExecCost(on_build, input);
    uint64_t exec_off = ExecCost(off_build, input);

    table.AddRow({row.name,
                  StrFormat("%s (%llu vs %llu)", Sign(verify_off, verify_on),
                            static_cast<unsigned long long>(verify_on),
                            static_cast<unsigned long long>(verify_off)),
                  StrFormat("%s (%llu vs %llu)", Sign(exec_off, exec_on),
                            static_cast<unsigned long long>(exec_on),
                            static_cast<unsigned long long>(exec_off)),
                  row.paper_verify, row.paper_exec});
  }
  // The machine-specific row cannot be modeled without a hardware backend.
  table.AddRow({"Improve cache behavior / regalloc / scheduling", "n/a (no machine backend)",
                "n/a", "-", "+"});
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
