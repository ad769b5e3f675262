#include "src/symex/engine_core.h"

#include <string_view>
#include <type_traits>

#include "src/ir/constant.h"
#include "src/support/string_utils.h"
#include "src/support/trace.h"

namespace overify {
namespace sched {

namespace {

// Largest object a symbolic-offset access may address before the engine
// refuses (select chains grow linearly with object size).
constexpr uint64_t kMaxSymbolicAccessObject = 4096;

// Steps between batched flushes of the local instruction count into the
// shared atomics (and global limit re-checks). Bounds the overshoot of a
// limit stop to kLimitCheckInterval instructions per worker.
constexpr uint64_t kLimitCheckInterval = 32;

// Per-side salts mixed into a state's path_id at every fork. Any two
// distinct constants work; the values are arbitrary.
constexpr uint64_t kTrueSideSalt = 0x2545f4914f6cdd1dULL;
constexpr uint64_t kFalseSideSalt = 0xd1b54a32d192ed03ULL;

// A bug message is either a string literal or a callable returning the
// formatted text; the callable runs only when a report is actually filed.
// The guards pass one on every access and division, where formatting
// eagerly would cost more than the rest of the step.
template <typename Message>
std::string MessageText(const Message& message) {
  if constexpr (std::is_convertible_v<const Message&, const char*>) {
    return message;
  } else {
    return message();
  }
}

}  // namespace

class EngineCore::Impl {
 public:
  Impl(Module& module, const SymexOptions& options, SharedCounters& shared,
       LocalSlotCache& slots, unsigned num_input_bytes, unsigned worker_index,
       ExprInterner* interner)
      : module_(module),
        options_(options),
        shared_(shared),
        slots_(slots),
        ctx_(interner),
        solver_(ctx_),
        injector_(options.faults, worker_index),
        num_symbols_(num_input_bytes),
        worker_index_(worker_index) {
    // Engine queries are microseconds-scale, so histogram timing is always
    // on for engine-owned shards (docs/observability.md).
    metrics_.timing = true;
    // The solver writes into this worker's shard directly; installed before
    // any query so no counts land in the chain's private fallback shard.
    solver_.set_metrics(&metrics_);
    solver_.set_preprocessing(options_.solver_preprocess);
    solver_.set_learning(options_.solver_learning);
    // Cooperative query controls: the run deadline (stamped by the pool; a
    // default-constructed SharedCounters leaves it unset, so direct engine
    // users never get spurious deadline unknowns), the stop latch, this
    // worker's fault injector, and the per-query budgets.
    QueryControl control;
    if (shared_.deadline != std::chrono::steady_clock::time_point{}) {
      control.has_deadline = true;
      control.deadline = shared_.deadline;
    }
    control.cancel = &shared_.stop;
    control.faults = injector_.enabled() ? &injector_ : nullptr;
    control.query_candidates = shared_.limits.query_candidates;
    control.query_seconds = shared_.limits.query_seconds;
    solver_.set_control(control);
    // Global object ids are deterministic — the initial state allocates
    // them first, in module order, starting at 1 — so every worker can
    // reconstruct the mapping without owning the allocation.
    uint64_t next_id = 1;
    for (const auto& global : module_.globals()) {
      global_objects_[global.get()] = next_id++;
    }
  }

  std::unique_ptr<ExecState> MakeInitialState(Function* entry) {
    auto state = std::make_unique<ExecState>();
    state->id = NextStateId();
    SetupGlobals(*state);
    SetupEntry(*state, entry);
    return state;
  }

  PathOutcome RunState(ExecState& state, ForkSink& sink, Searcher* searcher) {
    const uint64_t t0 = MetricsNowNs();
    PathOutcome outcome = RunStateImpl(state, sink, searcher);
    const uint64_t t1 = MetricsNowNs();
    metrics_.Record(Hist::kPathRunNs, t1 - t0);
    if (trace_ != nullptr) {
      trace_->Span(TraceKind::kPathRun, t0, t1, static_cast<uint64_t>(outcome), state.depth);
    }
    return outcome;
  }

  MetricsShard& metrics_shard() { return metrics_; }

  // Flushes subsystem-owned totals (solver caches/preprocessor via the
  // chain, this worker's fault-injector stats) into the shard so a merge
  // sees everything.
  void SyncMetrics() {
    solver_.SyncMetrics();
    const FaultStats& f = injector_.stats();
    metrics_.Set(Counter::kFaultSolverUnknown, f.solver_unknown);
    metrics_.Set(Counter::kFaultCacheLookup, f.cache_lookup);
    metrics_.Set(Counter::kFaultStealBatch, f.steal_batch);
    metrics_.Set(Counter::kFaultWorkerStalls, f.worker_stalls);
    metrics_.Set(Counter::kFaultWorkerDeaths, f.worker_deaths);
    metrics_.Set(Counter::kFaultDraws, f.draws);
  }

  void set_trace(TraceBuffer* trace) {
    trace_ = trace;
    solver_.set_trace(trace);
  }
  TraceBuffer* trace() { return trace_; }

  SolverChain& solver() { return solver_; }
  const std::map<std::pair<const Instruction*, BugKind>, BugCandidate>& bugs() const {
    return bugs_;
  }
  FaultInjector& faults() { return injector_; }

 private:
  PathOutcome RunStateImpl(ExecState& state, ForkSink& sink, Searcher* searcher) {
    sink_ = &sink;
    searcher_ = searcher;
    for (;;) {
      if (++steps_since_check_ >= kLimitCheckInterval) {
        FlushInstructions();
        // Injected worker death: the state is untouched and still live; the
        // pool requeues it where a thief can pick it up (docs/robustness.md).
        // The draw only kills when the run's death cap has headroom, so a
        // configured number of survivors is guaranteed.
        if (injector_.enabled() && injector_.Fire(FaultSite::kWorkerDeath) &&
            shared_.ClaimWorkerDeath(options_.faults.max_worker_deaths)) {
          if (trace_ != nullptr) {
            trace_->Instant(TraceKind::kFaultFired, MetricsNowNs(),
                            static_cast<uint64_t>(FaultSite::kWorkerDeath));
          }
          return PathOutcome::kDied;
        }
        LatchExceededLimit();
      }
      if (shared_.StopRequested()) {
        FlushInstructions();
        metrics_.Inc(Counter::kPathsLimit);
        return PathOutcome::kLimitStop;
      }
      StepOutcome outcome = Step(state);
      if (outcome == StepOutcome::kContinue) {
        continue;
      }
      FlushInstructions();
      switch (outcome) {
        case StepOutcome::kPathComplete:
          metrics_.Inc(Counter::kPathsCompleted);
          shared_.paths_completed.fetch_add(1, std::memory_order_relaxed);
          LatchExceededLimit();
          return PathOutcome::kCompleted;
        case StepOutcome::kPathInfeasible:
          metrics_.Inc(Counter::kPathsInfeasible);
          return PathOutcome::kInfeasible;
        case StepOutcome::kPathUnknown:
          return RecordUnknown();
        default:
          metrics_.Inc(Counter::kPathsBug);
          return PathOutcome::kBug;
      }
    }
  }

  enum class StepOutcome {
    kContinue,        // state advanced; keep running it
    kPathComplete,    // main returned
    kPathInfeasible,  // no feasible direction remained
    kPathBug,         // died at a bug site (including engine errors)
    kPathUnknown,     // the solver gave up on a decisive query
  };

  // Guard/access outcomes: the state either survives or dies for a cause.
  enum class GuardResult { kOk, kDiedBug, kDiedInfeasible, kDiedUnknown };

  static StepOutcome DeadOutcome(GuardResult result) {
    switch (result) {
      case GuardResult::kDiedBug:
        return StepOutcome::kPathBug;
      case GuardResult::kDiedUnknown:
        return StepOutcome::kPathUnknown;
      default:
        return StepOutcome::kPathInfeasible;
    }
  }

  void LatchExceededLimit() {
    StopCause cause = shared_.ExceededCause();
    if (cause != StopCause::kNone) {
      shared_.RequestStop(cause);
    }
  }

  // Terminates the current path as unknown, attributed to exactly one cause.
  // A query cancelled by the global stop latch is a limit death (the path
  // would have been drained anyway); a query that itself hit the run
  // deadline both counts as a deadline unknown and latches the stop so the
  // rest of the pool drains promptly.
  PathOutcome RecordUnknown() {
    if (shared_.StopRequested()) {
      metrics_.Inc(Counter::kPathsLimit);
      return PathOutcome::kLimitStop;
    }
    metrics_.Inc(Counter::kPathsUnknown);
    switch (solver_.last_unknown_cause()) {
      case UnknownCause::kDeadline:
        metrics_.Inc(Counter::kPathsUnknownDeadline);
        shared_.RequestStop(StopCause::kDeadline);
        break;
      case UnknownCause::kInjected:
        metrics_.Inc(Counter::kPathsUnknownInjected);
        break;
      default:
        metrics_.Inc(Counter::kPathsUnknownBudget);
        break;
    }
    return PathOutcome::kUnknown;
  }

  uint64_t NextStateId() {
    return (static_cast<uint64_t>(worker_index_) << 48) | next_state_id_++;
  }

  void FlushInstructions() {
    steps_since_check_ = 0;
    if (unflushed_instructions_ != 0) {
      shared_.instructions.fetch_add(unflushed_instructions_, std::memory_order_relaxed);
      unflushed_instructions_ = 0;
    }
  }

  void CountInstructions(uint64_t n) {
    metrics_.Add(Counter::kInstructions, n);
    unflushed_instructions_ += n;
  }

  void EnterBlock(ExecState& state, BasicBlock* block) {
    if (searcher_ != nullptr) {
      searcher_->NotifyBlockEntered(block);
    }
    state.JumpTo(block);
  }

  // ---- Setup ----

  void SetupGlobals(ExecState& state) {
    for (const auto& global : module_.globals()) {
      uint64_t id = state.memory.Allocate(ctx_, global->value_type()->SizeInBytes(),
                                          global->is_const(), false, global->name());
      OVERIFY_ASSERT(id == global_objects_.at(global.get()),
                     "global object numbering out of sync");
      ObjectState& object = state.memory.Write(id);
      const auto& init = global->initializer();
      for (size_t i = 0; i < init.size(); ++i) {
        object.SetByte(i, ctx_.Constant(init[i], 8));
      }
    }
  }

  void SetupEntry(ExecState& state, Function* entry) {
    StackFrame frame;
    frame.fn = entry;
    frame.block = entry->entry();
    frame.pc = frame.block->begin();
    frame.locals.resize(slots_.Count(entry));

    if (entry->NumArgs() >= 1) {
      OVERIFY_ASSERT(entry->NumArgs() == 2 || entry->NumArgs() == 4,
                     "entry must be (u8* buf, i32 len), (u8* a, i32 na, u8* b, i32 nb), or ()");
      // Input buffers: the symbolic bytes plus a forced NUL terminator per
      // buffer (the paper's Coreutils runs model symbolic arguments the same
      // way). A 4-arg entry models two-input utilities (cmp, comm): the
      // symbolic bytes split first-buffer-gets-the-ceiling, with symbol
      // indices running consecutively across the buffers; the concrete
      // interpreter splits its input identically (docs/workloads.md).
      unsigned first = entry->NumArgs() == 4 ? num_symbols_ - num_symbols_ / 2 : num_symbols_;
      unsigned symbol = 0;
      for (size_t arg = 0; arg + 1 < entry->NumArgs(); arg += 2) {
        unsigned count = arg == 0 ? first : num_symbols_ - first;
        uint64_t buffer = state.memory.Allocate(ctx_, count + 1, false, false,
                                                arg == 0 ? "input" : "input2");
        ObjectState& object = state.memory.Write(buffer);
        for (unsigned i = 0; i < count; ++i) {
          object.SetByte(i, ctx_.Symbol(symbol++));
        }
        object.SetByte(count, ctx_.Constant(0, 8));
        frame.locals[entry->Arg(arg)->local_slot()] =
            RuntimeValue::Pointer(SymPointer{buffer, ctx_.Constant(0, 64)});
        frame.locals[entry->Arg(arg + 1)->local_slot()] = RuntimeValue::Int(
            ctx_.Constant(count, entry->Arg(arg + 1)->type()->bits()));
      }
    }
    state.stack.push_back(std::move(frame));
  }

  // ---- Bug reporting ----

  // Records a candidate report. The canonical representative of a (site,
  // kind) pair is the one from the smallest path_id; combined with the
  // canonical (history-free) model query, the surviving report is
  // schedule-independent, so merged bug sets are identical across worker
  // counts on exhausted runs.
  //
  // Returns true when a witnessed report for (site, kind) exists afterwards.
  // A candidate whose canonical witness query comes back non-SAT (budget,
  // deadline, or injected unknown) is dropped entirely rather than filed
  // without an example input — every surviving report stays replayable, and
  // the caller degrades the path to unknown instead (docs/robustness.md).
  template <typename Message>
  bool ReportBug(ExecState& state, const Instruction* site, BugKind kind,
                 const Message& message) {
    auto key = std::make_pair(site, kind);
    auto it = bugs_.find(key);
    if (it != bugs_.end() && it->second.path_id <= state.path_id) {
      return true;
    }
    std::vector<uint8_t> model;
    if (solver_.CheckSatCanonical(state.constraints, &model) != SatResult::kSat) {
      // The candidate would have become (or replaced) the canonical report
      // but cannot be witnessed. Failing — even when an older report exists —
      // is what keeps the surviving representative identical to the clean
      // run's: the caller records the path as unknown, so the run is not
      // exhausted and is excluded from the bit-identity contract.
      return false;
    }
    BugCandidate bug;
    bug.kind = kind;
    bug.message = MessageText(message);
    bug.site = site;
    bug.path_id = state.path_id;
    model.resize(num_symbols_, 0);
    bug.example_input = std::move(model);
    bugs_[key] = std::move(bug);
    return true;
  }

  // ---- Value resolution ----

  RuntimeValue Resolve(ExecState& state, const Value* v) {
    if (const auto* ci = DynCast<ConstantInt>(v)) {
      return RuntimeValue::Int(ctx_.Constant(ci->value(), ci->type()->bits()));
    }
    if (Isa<NullValue>(v)) {
      return RuntimeValue::Pointer(SymPointer{0, ctx_.Constant(0, 64)});
    }
    if (const auto* undef = DynCast<UndefValue>(v)) {
      // Undef concretizes to zero/null: deterministic and reproducible.
      if (undef->type()->IsPointer()) {
        return RuntimeValue::Pointer(SymPointer{0, ctx_.Constant(0, 64)});
      }
      return RuntimeValue::Int(ctx_.Constant(0, undef->type()->bits()));
    }
    if (const auto* global = DynCast<GlobalVariable>(v)) {
      return RuntimeValue::Pointer(
          SymPointer{global_objects_.at(global), ctx_.Constant(0, 64)});
    }
    return state.Local(v);
  }

  const Expr* ResolveInt(ExecState& state, const Value* v) {
    RuntimeValue rv = Resolve(state, v);
    OVERIFY_ASSERT(rv.kind == RuntimeValue::Kind::kInt, "expected integer value");
    return rv.expr;
  }

  // ---- Branch feasibility ----

  // Decides a boolean expr against the path constraints; forks when both
  // directions are possible. Returns the value for the current state
  // (true branch) and queues the false sibling.
  enum class CondOutcome { kTrue, kFalse, kBoth, kNeither, kUnknown };

  CondOutcome DecideCondition(ExecState& state, const Expr* cond, const Value* ir_cond) {
    if (cond->IsConstant()) {
      return cond->IsTrue() ? CondOutcome::kTrue : CondOutcome::kFalse;
    }
    // Compiler annotations can settle the branch without the solver.
    if (options_.annotations != nullptr && ir_cond != nullptr) {
      auto it = options_.annotations->value_ranges.find(ir_cond);
      if (it != options_.annotations->value_ranges.end() && it->second.IsSingleValue()) {
        metrics_.Inc(Counter::kAnnotationHits);
        return it->second.lo != 0 ? CondOutcome::kTrue : CondOutcome::kFalse;
      }
    }
    // Path-membership fast path. A forked sibling resumes *at* its branch
    // instruction with the decided direction already appended to its
    // constraints (ConstrainOrFork), so the re-executed branch is settled
    // here by a pointer scan — hash-consing makes structural equality
    // pointer equality within a context. Without this, the sibling's
    // re-decide poses a query containing a constraint and its own negation,
    // an UNSAT set the backtracking core can only refute by enumeration —
    // invisible on narrow conditions (the preprocessor's byte bindings
    // shortcut it), but a full candidate-budget burn per fork on
    // wide-support conditions like the suite-scale checksum workloads.
    const Expr* not_cond = ctx_.Not(cond);
    for (auto it = state.constraints.rbegin(); it != state.constraints.rend(); ++it) {
      if (*it == cond) {
        return CondOutcome::kTrue;
      }
      if (*it == not_cond) {
        return CondOutcome::kFalse;
      }
    }
    SatResult can_true = solver_.MayBeTrue(state.constraints, cond, nullptr,
                                           &state.solver_prefix);
    SatResult can_false = solver_.MayBeTrue(state.constraints, not_cond, nullptr,
                                            &state.solver_prefix);
    if (can_true == SatResult::kSat && can_false == SatResult::kSat) {
      return CondOutcome::kBoth;
    }
    if (can_true == SatResult::kSat && can_false == SatResult::kUnsat) {
      return CondOutcome::kTrue;
    }
    if (can_true == SatResult::kUnsat && can_false == SatResult::kSat) {
      return CondOutcome::kFalse;
    }
    if (can_true == SatResult::kUnsat && can_false == SatResult::kUnsat) {
      return CondOutcome::kNeither;
    }
    // One side unknown. The path invariant — the constraints alone are
    // satisfiable — decides the branch when the other side is refuted:
    // constraints SAT and constraints ∧ ¬cond UNSAT imply constraints ∧ cond
    // SAT. This is what lets a run absorb injected or budget unknowns on
    // one-sided branches and still match the clean run bit for bit; only a
    // genuinely undecidable branch (SAT/unknown or unknown/unknown) kills
    // the path as unknown.
    if (can_false == SatResult::kUnsat) {
      return CondOutcome::kTrue;
    }
    if (can_true == SatResult::kUnsat) {
      return CondOutcome::kFalse;
    }
    return CondOutcome::kUnknown;
  }

  // Adds `cond` (or its negation) to the state, forking if needed. The
  // current state dies on kInfeasible (no feasible direction) and on
  // kUnknown (the solver could not decide either direction). On a fork, the
  // sibling (negated) state goes to the sink.
  enum class ForkDecision { kOk, kInfeasible, kUnknown };

  ForkDecision ConstrainOrFork(ExecState& state, const Expr* cond, const Value* ir_cond,
                               bool* took_true) {
    // The fork-decide span is trace-only: most decisions settle on a
    // constant / annotation / path-membership fast path costing less than a
    // clock-read pair, so timing them in metrics mode would dominate what it
    // measures. The engine.forks counter stays exact either way.
    const bool traced = trace_ != nullptr;
    const uint64_t t0 = traced ? MetricsNowNs() : 0;
    CondOutcome outcome = DecideCondition(state, cond, ir_cond);
    if (traced) {
      const uint64_t t1 = MetricsNowNs();
      metrics_.Record(Hist::kForkDecideNs, t1 - t0);
      // ForkOutcome mirrors CondOutcome's declaration order (trace.h), so
      // the cast is a straight relabel.
      trace_->Span(TraceKind::kForkDecide, t0, t1, static_cast<uint64_t>(outcome));
    }
    switch (outcome) {
      case CondOutcome::kTrue:
        if (!cond->IsConstant()) {
          state.AddConstraint(cond);
        }
        *took_true = true;
        return ForkDecision::kOk;
      case CondOutcome::kFalse:
        if (!cond->IsConstant()) {
          state.AddConstraint(ctx_.Not(cond));
        }
        *took_true = false;
        return ForkDecision::kOk;
      case CondOutcome::kBoth: {
        metrics_.Inc(Counter::kForks);
        shared_.forks.fetch_add(1, std::memory_order_relaxed);
        auto sibling = state.Clone();
        sibling->id = NextStateId();
        sibling->depth = state.depth + 1;
        sibling->path_id = HashMix64(state.path_id ^ kFalseSideSalt);
        sibling->AddConstraint(ctx_.Not(cond));
        state.AddConstraint(cond);
        state.depth += 1;
        state.path_id = HashMix64(state.path_id ^ kTrueSideSalt);
        sink_->PushFork(std::move(sibling));
        LatchExceededLimit();
        *took_true = true;
        return ForkDecision::kOk;
      }
      case CondOutcome::kNeither:
        return ForkDecision::kInfeasible;
      case CondOutcome::kUnknown:
        return ForkDecision::kUnknown;
    }
    return ForkDecision::kInfeasible;
  }

  static StepOutcome ForkDeadOutcome(ForkDecision decision) {
    return decision == ForkDecision::kUnknown ? StepOutcome::kPathUnknown
                                              : StepOutcome::kPathInfeasible;
  }

  // Definite bug sites die as bugs only when the report was witnessed; a
  // dropped witness degrades the path to unknown (see ReportBug).
  static StepOutcome BugOutcome(bool reported) {
    return reported ? StepOutcome::kPathBug : StepOutcome::kPathUnknown;
  }

  // Guard for a potentially trapping condition: if `bad` is feasible, report
  // a bug, then continue on the safe side (constraining !bad). The state
  // dies when the safe side is infeasible — as a bug death when a report
  // was filed, otherwise as an infeasible one.
  //
  // Soundness never degrades under unknowns: when the bad-side query cannot
  // be decided, the state dies unknown instead of silently skipping a
  // possible bug, and a bug whose witness was dropped likewise degrades to
  // unknown rather than surviving as an unreplayable report.
  template <typename Message>
  GuardResult GuardAgainst(ExecState& state, const Expr* bad, const Instruction* site,
                           BugKind kind, const Message& message) {
    if (bad->IsFalse()) {
      return GuardResult::kOk;
    }
    if (bad->IsTrue()) {
      return ReportBug(state, site, kind, message) ? GuardResult::kDiedBug
                                                   : GuardResult::kDiedUnknown;
    }
    SatResult bad_sat =
        solver_.MayBeTrue(state.constraints, bad, nullptr, &state.solver_prefix);
    if (bad_sat == SatResult::kUnknown) {
      return GuardResult::kDiedUnknown;
    }
    bool reported = false;
    if (bad_sat == SatResult::kSat) {
      // Report with the bad branch's model: ReportBug reads only the
      // constraints and the path id, so extend the constraints in place.
      state.constraints.push_back(bad);
      reported = ReportBug(state, site, kind, message);
      state.constraints.pop_back();
      if (!reported) {
        return GuardResult::kDiedUnknown;
      }
    }
    const Expr* safe = ctx_.Not(bad);
    if (bad_sat == SatResult::kUnsat) {
      // Path invariant: the constraints alone are satisfiable, and the bad
      // side is refuted, so the safe side must be satisfiable — no query.
      state.AddConstraint(safe);
      return GuardResult::kOk;
    }
    SatResult safe_sat =
        solver_.MayBeTrue(state.constraints, safe, nullptr, &state.solver_prefix);
    if (safe_sat == SatResult::kUnknown) {
      // A clean run would have decided this query and either continued or
      // died at the bug; terminating as anything but unknown here would
      // leave the run looking exhausted with a diverged signature.
      return GuardResult::kDiedUnknown;
    }
    if (safe_sat != SatResult::kSat) {
      return reported ? GuardResult::kDiedBug : GuardResult::kDiedInfeasible;
    }
    state.AddConstraint(safe);
    return GuardResult::kOk;
  }

  // ---- Memory access ----

  // Computes the byte offset expression of a GEP.
  const Expr* GepOffset(ExecState& state, const GepInst* gep) {
    const Expr* offset = ctx_.Constant(0, 64);
    Type* current = gep->source_type();
    for (unsigned i = 0; i < gep->NumIndices(); ++i) {
      const Expr* index = ResolveInt(state, gep->Index(i));
      if (index->width() < 64) {
        index = ctx_.SExt(index, 64);
      }
      uint64_t scale;
      if (i == 0) {
        scale = current->SizeInBytes();
      } else if (current->IsArray()) {
        current = current->element();
        scale = current->SizeInBytes();
      } else {
        // Struct index: constant by construction.
        uint64_t field = Cast<ConstantInt>(gep->Index(i))->value();
        offset = ctx_.Binary(ExprKind::kAdd, offset,
                             ctx_.Constant(current->FieldOffset(
                                               static_cast<unsigned>(field)), 64));
        current = current->fields()[static_cast<unsigned>(field)];
        continue;
      }
      offset = ctx_.Binary(
          ExprKind::kAdd, offset,
          ctx_.Binary(ExprKind::kMul, index, ctx_.Constant(scale, 64)));
    }
    return offset;
  }

  // Validates an access of `width_bytes` at pointer `ptr`; reports bugs and
  // constrains to the in-bounds case.
  GuardResult CheckAccess(ExecState& state, const SymPointer& ptr, uint64_t width_bytes,
                          const Instruction* site) {
    if (ptr.IsNull()) {
      return ReportBug(state, site, BugKind::kNullDeref, "dereference of null pointer")
                 ? GuardResult::kDiedBug
                 : GuardResult::kDiedUnknown;
    }
    if (!state.memory.Exists(ptr.object_id)) {
      return ReportBug(state, site, BugKind::kOutOfBounds,
                       "use of a dead object (escaped stack address)")
                 ? GuardResult::kDiedBug
                 : GuardResult::kDiedUnknown;
    }
    const MemoryObject& meta = state.memory.Meta(ptr.object_id);
    const uint64_t size = meta.size;
    const std::string_view name = meta.name;
    if (size < width_bytes) {
      return ReportBug(state, site, BugKind::kOutOfBounds,
                       [&] {
                         return StrFormat("%llu-byte access to %llu-byte object '%.*s'",
                                          static_cast<unsigned long long>(width_bytes),
                                          static_cast<unsigned long long>(size),
                                          static_cast<int>(name.size()), name.data());
                       })
                 ? GuardResult::kDiedBug
                 : GuardResult::kDiedUnknown;
    }
    // In-bounds: offset <= size - width.
    const Expr* in_bounds =
        ctx_.Compare(ICmpPredicate::kULE, ptr.offset, ctx_.Constant(size - width_bytes, 64));
    return GuardAgainst(state, ctx_.Not(in_bounds), site, BugKind::kOutOfBounds, [&] {
      return StrFormat("access beyond object '%.*s' (%llu bytes)", static_cast<int>(name.size()),
                       name.data(), static_cast<unsigned long long>(size));
    });
  }

  // The offset's feasible window, bounded by interval analysis over the
  // offset expression (with nothing assigned). Select chains then span only
  // the bytes the access can actually touch — keeping their symbol support
  // tight is what keeps solver queries small.
  std::pair<uint64_t, uint64_t> OffsetWindow(const Expr* offset, uint64_t last) {
    static const std::vector<uint8_t> kNoBytes;
    static const std::vector<bool> kNoneAssigned;
    ctx_.NewIntervalRound();
    ExprContext::UInterval bound = ctx_.EvalInterval(offset, kNoBytes, kNoneAssigned);
    uint64_t lo = std::min(bound.lo, last);
    uint64_t hi = std::min(bound.hi, last);
    if (lo > hi) {
      lo = 0;
      hi = last;
    }
    return {lo, hi};
  }

  // Reads `width_bytes` little-endian bytes at ptr (already bounds-checked).
  const Expr* ReadMemory(ExecState& state, const SymPointer& ptr, uint64_t width_bytes,
                         bool* engine_error) {
    OVERIFY_ASSERT(width_bytes <= ExprContext::kMaxBytes, "load wider than 8 bytes");
    const ObjectState& object = state.memory.Read(ptr.object_id);
    uint64_t size = object.size();
    const unsigned count = static_cast<unsigned>(width_bytes);
    const Expr* bytes[ExprContext::kMaxBytes];
    if (ptr.offset->IsConstant()) {
      uint64_t base = ptr.offset->constant_value();
      for (unsigned i = 0; i < count; ++i) {
        bytes[i] = object.Byte(base + i);
      }
      return ctx_.FromBytes(bytes, count);
    }
    if (size > kMaxSymbolicAccessObject) {
      *engine_error = true;
      return nullptr;
    }
    // Select chain over the feasible positions only.
    auto [first, last] = OffsetWindow(ptr.offset, size - width_bytes);
    const Expr* result = nullptr;
    for (uint64_t k = first; k <= last; ++k) {
      for (unsigned i = 0; i < count; ++i) {
        bytes[i] = object.Byte(k + i);
      }
      const Expr* value = ctx_.FromBytes(bytes, count);
      if (result == nullptr) {
        result = value;  // lowest offset as the default; guarded upward
      } else {
        const Expr* hits = ctx_.Compare(ICmpPredicate::kEq, ptr.offset, ctx_.Constant(k, 64));
        result = ctx_.Select(hits, value, result);
      }
    }
    return result;
  }

  void WriteMemory(ExecState& state, const SymPointer& ptr, const Expr* value,
                   bool* engine_error) {
    ObjectState& object = state.memory.Write(ptr.object_id);
    const Expr* bytes[ExprContext::kMaxBytes];
    const unsigned count = ctx_.ToBytes(value, bytes);
    if (ptr.offset->IsConstant()) {
      uint64_t base = ptr.offset->constant_value();
      for (unsigned i = 0; i < count; ++i) {
        object.SetByte(base + i, bytes[i]);
      }
      return;
    }
    if (object.size() > kMaxSymbolicAccessObject) {
      *engine_error = true;
      return;
    }
    // byte[j] updates when offset + i == j for some written byte i; only
    // offsets inside the interval window can hit.
    uint64_t size = object.size();
    auto [first, last] = OffsetWindow(ptr.offset, size - count);
    for (unsigned i = 0; i < count; ++i) {
      for (uint64_t j = first + i; j <= last + i && j < size; ++j) {
        const Expr* hits =
            ctx_.Compare(ICmpPredicate::kEq, ptr.offset, ctx_.Constant(j - i, 64));
        object.SetByte(j, ctx_.Select(hits, bytes[i], object.Byte(j)));
      }
    }
  }

  // ---- The step function ----

  StepOutcome Step(ExecState& state) {
    Instruction* inst = state.CurrentInstruction();
    ++state.instructions_executed;
    CountInstructions(1);

    switch (inst->opcode()) {
      case Opcode::kAlloca: {
        const auto* alloca = Cast<AllocaInst>(inst);
        uint64_t id = state.memory.Allocate(
            ctx_, alloca->allocated_type()->SizeInBytes(), false, true,
            alloca->HasName() ? std::string_view(alloca->name()) : std::string_view("alloca"));
        state.Frame().alloca_objects.push_back(id);
        state.SetLocal(inst, RuntimeValue::Pointer(SymPointer{id, ctx_.Constant(0, 64)}));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kLoad: {
        RuntimeValue ptr = Resolve(state, inst->Operand(0));
        OVERIFY_ASSERT(ptr.kind == RuntimeValue::Kind::kPointer, "load from non-pointer");
        Type* type = inst->type();
        if (type->IsPointer()) {
          // Loading a pointer from memory: supported only when it was stored
          // as a whole (tracked via pointer spill map).
          return LoadPointer(state, inst, ptr.pointer);
        }
        uint64_t width_bytes = type->SizeInBytes();
        GuardResult access = CheckAccess(state, ptr.pointer, width_bytes, inst);
        if (access != GuardResult::kOk) {
          return DeadOutcome(access);
        }
        bool engine_error = false;
        const Expr* value = ReadMemory(state, ptr.pointer, width_bytes, &engine_error);
        if (engine_error) {
          return BugOutcome(ReportBug(state, inst, BugKind::kEngineError,
                                      "symbolic access to an oversized object"));
        }
        if (type->IsBool()) {
          value = ctx_.Compare(ICmpPredicate::kNe, value, ctx_.Constant(0, 8));
        }
        state.SetLocal(inst, RuntimeValue::Int(value));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kStore: {
        RuntimeValue ptr = Resolve(state, inst->Operand(1));
        OVERIFY_ASSERT(ptr.kind == RuntimeValue::Kind::kPointer, "store to non-pointer");
        RuntimeValue value = Resolve(state, inst->Operand(0));
        Type* type = inst->Operand(0)->type();
        if (type->IsPointer()) {
          return StorePointer(state, inst, ptr.pointer, value);
        }
        uint64_t width_bytes = type->SizeInBytes();
        GuardResult access = CheckAccess(state, ptr.pointer, width_bytes, inst);
        if (access != GuardResult::kOk) {
          return DeadOutcome(access);
        }
        if (state.memory.Meta(ptr.pointer.object_id).read_only) {
          return BugOutcome(
              ReportBug(state, inst, BugKind::kOutOfBounds, "write to read-only object"));
        }
        const Expr* expr = value.expr;
        if (type->IsBool()) {
          expr = ctx_.ZExt(expr, 8);
        }
        bool engine_error = false;
        WriteMemory(state, ptr.pointer, expr, &engine_error);
        if (engine_error) {
          return BugOutcome(ReportBug(state, inst, BugKind::kEngineError,
                                      "symbolic write to an oversized object"));
        }
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kGep: {
        const auto* gep = Cast<GepInst>(inst);
        RuntimeValue base = Resolve(state, gep->base());
        OVERIFY_ASSERT(base.kind == RuntimeValue::Kind::kPointer, "gep on non-pointer");
        const Expr* offset = GepOffset(state, gep);
        SymPointer result = base.pointer;
        result.offset = ctx_.Binary(ExprKind::kAdd, result.offset, offset);
        state.SetLocal(inst, RuntimeValue::Pointer(result));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kUDiv:
      case Opcode::kSDiv:
      case Opcode::kURem:
      case Opcode::kSRem: {
        const Expr* lhs = ResolveInt(state, inst->Operand(0));
        const Expr* rhs = ResolveInt(state, inst->Operand(1));
        unsigned bits = inst->type()->bits();
        const Expr* zero = ctx_.Constant(0, bits);
        GuardResult guard =
            GuardAgainst(state, ctx_.Compare(ICmpPredicate::kEq, rhs, zero), inst,
                         BugKind::kDivByZero, "division by zero");
        if (guard != GuardResult::kOk) {
          return DeadOutcome(guard);
        }
        if (inst->opcode() == Opcode::kSDiv || inst->opcode() == Opcode::kSRem) {
          // INT_MIN / -1 overflows.
          const Expr* min_val =
              ctx_.Constant(uint64_t{1} << (bits - 1), bits);
          const Expr* minus1 = ctx_.Constant(~uint64_t{0}, bits);
          const Expr* overflow = ctx_.Binary(
              ExprKind::kAnd, ctx_.Compare(ICmpPredicate::kEq, lhs, min_val),
              ctx_.Compare(ICmpPredicate::kEq, rhs, minus1));
          if (inst->opcode() == Opcode::kSDiv) {
            guard = GuardAgainst(state, overflow, inst, BugKind::kOverflow,
                                 "signed division overflow");
            if (guard != GuardResult::kOk) {
              return DeadOutcome(guard);
            }
          }
        }
        ExprKind kind = inst->opcode() == Opcode::kUDiv   ? ExprKind::kUDiv
                        : inst->opcode() == Opcode::kSDiv ? ExprKind::kSDiv
                        : inst->opcode() == Opcode::kURem ? ExprKind::kURem
                                                          : ExprKind::kSRem;
        state.SetLocal(inst, RuntimeValue::Int(ctx_.Binary(kind, lhs, rhs)));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr: {
        const Expr* lhs = ResolveInt(state, inst->Operand(0));
        const Expr* rhs = ResolveInt(state, inst->Operand(1));
        unsigned bits = inst->type()->bits();
        ExprKind kind = inst->opcode() == Opcode::kShl    ? ExprKind::kShl
                        : inst->opcode() == Opcode::kLShr ? ExprKind::kLShr
                                                          : ExprKind::kAShr;
        const Expr* result;
        if (rhs->IsConstant()) {
          result = rhs->constant_value() >= bits ? ctx_.Constant(0, bits)
                                                 : ctx_.Binary(kind, lhs, rhs);
        } else {
          // Oversized shifts are defined as zero (consistently with the
          // interpreter and the evaluator).
          const Expr* in_range =
              ctx_.Compare(ICmpPredicate::kULT, rhs, ctx_.Constant(bits, bits));
          result = ctx_.Select(in_range, ctx_.Binary(kind, lhs, rhs), ctx_.Constant(0, bits));
        }
        state.SetLocal(inst, RuntimeValue::Int(result));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor: {
        const Expr* lhs = ResolveInt(state, inst->Operand(0));
        const Expr* rhs = ResolveInt(state, inst->Operand(1));
        ExprKind kind;
        switch (inst->opcode()) {
          case Opcode::kAdd:
            kind = ExprKind::kAdd;
            break;
          case Opcode::kSub:
            kind = ExprKind::kSub;
            break;
          case Opcode::kMul:
            kind = ExprKind::kMul;
            break;
          case Opcode::kAnd:
            kind = ExprKind::kAnd;
            break;
          case Opcode::kOr:
            kind = ExprKind::kOr;
            break;
          default:
            kind = ExprKind::kXor;
            break;
        }
        state.SetLocal(inst, RuntimeValue::Int(ctx_.Binary(kind, lhs, rhs)));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kICmp: {
        const auto* cmp = Cast<ICmpInst>(inst);
        RuntimeValue lhs = Resolve(state, cmp->lhs());
        RuntimeValue rhs = Resolve(state, cmp->rhs());
        const Expr* result;
        if (lhs.kind == RuntimeValue::Kind::kPointer ||
            rhs.kind == RuntimeValue::Kind::kPointer) {
          result = ComparePointers(cmp->predicate(), lhs, rhs);
        } else {
          result = ctx_.Compare(cmp->predicate(), lhs.expr, rhs.expr);
        }
        state.SetLocal(inst, RuntimeValue::Int(result));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kSelect: {
        const Expr* cond = ResolveInt(state, inst->Operand(0));
        RuntimeValue tv = Resolve(state, inst->Operand(1));
        RuntimeValue fv = Resolve(state, inst->Operand(2));
        if (tv.kind == RuntimeValue::Kind::kPointer) {
          // Pointer select requires a decided condition (fork if needed).
          bool took_true;
          ForkDecision decision = ConstrainOrFork(state, cond, inst->Operand(0), &took_true);
          if (decision != ForkDecision::kOk) {
            return ForkDeadOutcome(decision);
          }
          state.SetLocal(inst, took_true ? tv : fv);
        } else {
          state.SetLocal(inst, RuntimeValue::Int(ctx_.Select(cond, tv.expr, fv.expr)));
        }
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kTrunc: {
        const Expr* v = ResolveInt(state, inst->Operand(0));
        unsigned width = inst->type()->bits();
        const Expr* result = inst->opcode() == Opcode::kZExt   ? ctx_.ZExt(v, width)
                             : inst->opcode() == Opcode::kSExt ? ctx_.SExt(v, width)
                                                               : ctx_.Trunc(v, width);
        state.SetLocal(inst, RuntimeValue::Int(result));
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kPhi: {
        // Resolve all phis of the block atomically against prev_block.
        BasicBlock* from = state.Frame().prev_block;
        OVERIFY_ASSERT(from != nullptr, "phi in entry block");
        std::vector<std::pair<Instruction*, RuntimeValue>>& values = phi_scratch_;
        values.clear();
        BasicBlock* block = state.Frame().block;
        for (auto& phi_inst : *block) {
          auto* phi = DynCast<PhiInst>(phi_inst.get());
          if (phi == nullptr) {
            break;
          }
          values.push_back({phi, Resolve(state, phi->IncomingValueFor(from))});
        }
        for (auto& [phi, value] : values) {
          state.SetLocal(phi, value);
          ++state.instructions_executed;
        }
        CountInstructions(values.size() - 1);
        // Jump the pc past all phis.
        StackFrame& frame = state.Frame();
        frame.pc = block->FirstNonPhi();
        return StepOutcome::kContinue;
      }
      case Opcode::kCheck: {
        const auto* check = Cast<CheckInst>(inst);
        const Expr* cond = ResolveInt(state, check->condition());
        // Compiler-inserted checks unify "various failures into run-time
        // crashes" (Table 2); the report keeps the underlying kind so bug
        // identity is stable across optimization levels.
        BugKind kind = BugKind::kCheckFailed;
        switch (check->check_kind()) {
          case CheckKind::kDivByZero:
            kind = BugKind::kDivByZero;
            break;
          case CheckKind::kBounds:
            kind = BugKind::kOutOfBounds;
            break;
          case CheckKind::kNullDeref:
            kind = BugKind::kNullDeref;
            break;
          case CheckKind::kOverflow:
          case CheckKind::kShift:
            kind = BugKind::kOverflow;
            break;
          case CheckKind::kAssert:
            kind = BugKind::kCheckFailed;
            break;
        }
        GuardResult guard = GuardAgainst(state, ctx_.Not(cond), inst, kind, [check] {
          return StrFormat("%s: %s", CheckKindName(check->check_kind()),
                           check->message().c_str());
        });
        if (guard != GuardResult::kOk) {
          return DeadOutcome(guard);
        }
        state.AdvancePC();
        return StepOutcome::kContinue;
      }
      case Opcode::kCall:
        return ExecCall(state, Cast<CallInst>(inst));
      case Opcode::kBr: {
        const auto* br = Cast<BranchInst>(inst);
        if (!br->IsConditional()) {
          EnterBlock(state, br->SingleDest());
          return StepOutcome::kContinue;
        }
        const Expr* cond = ResolveInt(state, br->condition());
        bool took_true;
        ForkDecision decision = ConstrainOrFork(state, cond, br->condition(), &took_true);
        if (decision != ForkDecision::kOk) {
          return ForkDeadOutcome(decision);
        }
        EnterBlock(state, took_true ? br->true_dest() : br->false_dest());
        return StepOutcome::kContinue;
      }
      case Opcode::kRet:
        return ExecRet(state, Cast<RetInst>(inst));
      case Opcode::kUnreachable:
        return BugOutcome(
            ReportBug(state, inst, BugKind::kUnreachable, "reached 'unreachable'"));
    }
    OVERIFY_UNREACHABLE("unhandled opcode in executor");
  }

  // Pointer loads/stores: pointers are not byte-serializable (they carry an
  // object id), so pointer-typed memory slots live in a side table keyed by
  // (object, constant offset). This matches how the workloads use pointer
  // variables (spilled locals at -O0).
  StepOutcome LoadPointer(ExecState& state, Instruction* inst, const SymPointer& ptr) {
    GuardResult access = CheckAccess(state, ptr, 8, inst);
    if (access != GuardResult::kOk) {
      return DeadOutcome(access);
    }
    if (!ptr.offset->IsConstant()) {
      return BugOutcome(ReportBug(state, inst, BugKind::kEngineError,
                                  "symbolic-offset load of a pointer value"));
    }
    auto key = std::make_pair(ptr.object_id, ptr.offset->constant_value());
    auto it = state.pointer_slots.find(key);
    if (it == state.pointer_slots.end()) {
      // Never-written pointer slot: treat as null.
      state.SetLocal(inst, RuntimeValue::Pointer(SymPointer{0, ctx_.Constant(0, 64)}));
    } else {
      state.SetLocal(inst, RuntimeValue::Pointer(it->second));
    }
    state.AdvancePC();
    return StepOutcome::kContinue;
  }

  StepOutcome StorePointer(ExecState& state, Instruction* inst, const SymPointer& ptr,
                           const RuntimeValue& value) {
    GuardResult access = CheckAccess(state, ptr, 8, inst);
    if (access != GuardResult::kOk) {
      return DeadOutcome(access);
    }
    if (!ptr.offset->IsConstant()) {
      return BugOutcome(ReportBug(state, inst, BugKind::kEngineError,
                                  "symbolic-offset store of a pointer value"));
    }
    OVERIFY_ASSERT(value.kind == RuntimeValue::Kind::kPointer, "pointer store of non-pointer");
    state.pointer_slots[{ptr.object_id, ptr.offset->constant_value()}] = value.pointer;
    state.AdvancePC();
    return StepOutcome::kContinue;
  }

  const Expr* ComparePointers(ICmpPredicate pred, const RuntimeValue& lhs,
                              const RuntimeValue& rhs) {
    OVERIFY_ASSERT(lhs.kind == RuntimeValue::Kind::kPointer &&
                       rhs.kind == RuntimeValue::Kind::kPointer,
                   "mixed pointer comparison");
    const SymPointer& a = lhs.pointer;
    const SymPointer& b = rhs.pointer;
    if (a.object_id != b.object_id) {
      // Distinct objects: equal never, unequal always; ordering is not
      // meaningful but must be deterministic.
      switch (pred) {
        case ICmpPredicate::kEq:
          return ctx_.False();
        case ICmpPredicate::kNe:
          return ctx_.True();
        default:
          return ctx_.Bool(a.object_id < b.object_id);
      }
    }
    return ctx_.Compare(pred, a.offset, b.offset);
  }

  StepOutcome ExecCall(ExecState& state, const CallInst* call) {
    Function* callee = call->callee();
    if (callee->IsDeclaration()) {
      return ExecExternal(state, call);
    }
    if (state.stack.size() >= 256) {
      return BugOutcome(ReportBug(state, call, BugKind::kEngineError,
                                  "call stack overflow (recursion too deep)"));
    }
    StackFrame frame;
    frame.fn = callee;
    frame.block = callee->entry();
    frame.pc = frame.block->begin();
    frame.call_site = call;
    frame.locals.resize(slots_.Count(callee));
    for (unsigned i = 0; i < call->NumArgs(); ++i) {
      frame.locals[callee->Arg(i)->local_slot()] = Resolve(state, call->Arg(i));
    }
    if (searcher_ != nullptr) {
      searcher_->NotifyBlockEntered(frame.block);
    }
    state.stack.push_back(std::move(frame));
    return StepOutcome::kContinue;
  }

  StepOutcome ExecExternal(ExecState& state, const CallInst* call) {
    const std::string& name = call->callee()->name();
    if (name == "putchar") {
      const Expr* c = ResolveInt(state, call->Arg(0));
      state.output.push_back(ctx_.Trunc(c, 8));
      state.SetLocal(const_cast<CallInst*>(call), RuntimeValue::Int(c));
      state.AdvancePC();
      return StepOutcome::kContinue;
    }
    if (name == "getchar") {
      // No interactive input in this model: EOF.
      state.SetLocal(const_cast<CallInst*>(call),
                     RuntimeValue::Int(ctx_.Constant(static_cast<uint64_t>(-1), 32)));
      state.AdvancePC();
      return StepOutcome::kContinue;
    }
    if (name == "abort") {
      return BugOutcome(ReportBug(state, call, BugKind::kAbort, "abort() called"));
    }
    return BugOutcome(ReportBug(state, call, BugKind::kEngineError, [&] {
      return StrFormat("call to unmodeled external function '%s'", name.c_str());
    }));
  }

  StepOutcome ExecRet(ExecState& state, const RetInst* ret) {
    RuntimeValue result;
    if (ret->HasValue()) {
      result = Resolve(state, ret->value());
    }
    // Free this frame's allocas.
    for (uint64_t id : state.Frame().alloca_objects) {
      state.memory.Free(id);
    }
    const CallInst* call_site = state.Frame().call_site;
    state.stack.pop_back();
    if (state.stack.empty()) {
      return StepOutcome::kPathComplete;
    }
    if (call_site != nullptr && !call_site->type()->IsVoid()) {
      state.SetLocal(call_site, result);
    }
    state.AdvancePC();  // past the call
    return StepOutcome::kContinue;
  }

  Module& module_;
  SymexOptions options_;
  SharedCounters& shared_;
  LocalSlotCache& slots_;
  ExprContext ctx_;
  SolverChain solver_;
  FaultInjector injector_;
  MetricsShard metrics_;
  TraceBuffer* trace_ = nullptr;
  std::map<std::pair<const Instruction*, BugKind>, BugCandidate> bugs_;
  unsigned num_symbols_ = 0;
  unsigned worker_index_ = 0;
  uint64_t next_state_id_ = 0;
  uint64_t unflushed_instructions_ = 0;
  uint64_t steps_since_check_ = 0;
  ForkSink* sink_ = nullptr;
  Searcher* searcher_ = nullptr;
  std::unordered_map<const GlobalVariable*, uint64_t> global_objects_;
  // Phi resolution's (phi, value) pairs, reused across steps.
  std::vector<std::pair<Instruction*, RuntimeValue>> phi_scratch_;
};

EngineCore::EngineCore(Module& module, const SymexOptions& options, SharedCounters& shared,
                       LocalSlotCache& slots, unsigned num_input_bytes, unsigned worker_index,
                       ExprInterner* interner)
    : impl_(std::make_unique<Impl>(module, options, shared, slots, num_input_bytes,
                                   worker_index, interner)) {}

EngineCore::~EngineCore() = default;

std::unique_ptr<ExecState> EngineCore::MakeInitialState(Function* entry) {
  return impl_->MakeInitialState(entry);
}

PathOutcome EngineCore::RunState(ExecState& state, ForkSink& sink, Searcher* searcher) {
  return impl_->RunState(state, sink, searcher);
}

MetricsShard& EngineCore::metrics_shard() { return impl_->metrics_shard(); }

void EngineCore::SyncMetrics() { impl_->SyncMetrics(); }

void EngineCore::set_trace(TraceBuffer* trace) { impl_->set_trace(trace); }

TraceBuffer* EngineCore::trace() { return impl_->trace(); }

SolverChain& EngineCore::solver() { return impl_->solver(); }

const std::map<std::pair<const Instruction*, BugKind>, BugCandidate>& EngineCore::bugs() const {
  return impl_->bugs();
}


FaultInjector& EngineCore::faults() { return impl_->faults(); }

}  // namespace sched
}  // namespace overify
