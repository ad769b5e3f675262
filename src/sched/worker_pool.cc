#include "src/sched/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/cache/persist.h"
#include "src/support/string_utils.h"
#include "src/support/trace.h"
#include "src/symex/engine_core.h"

namespace overify {
namespace sched {
namespace {

// Positions of every instruction in module order — the canonical sort key
// for merged bug reports (instruction pointers vary run to run; module
// order does not).
std::unordered_map<const Instruction*, uint64_t> SiteOrder(Module& module) {
  std::unordered_map<const Instruction*, uint64_t> order;
  uint64_t index = 0;
  for (const auto& fn : module.functions()) {
    for (BasicBlock& block : *fn) {
      for (const auto& inst : block) {
        order[inst.get()] = index++;
      }
    }
  }
  return order;
}

// Stolen-state validation runs in every build without NDEBUG — the same
// build-mode rule as kVerifyIRAfterEachPass — so the Debug + sanitizer test
// runs check every steal and release builds pay nothing.
#ifdef NDEBUG
constexpr bool kValidateSteals = false;
#else
constexpr bool kValidateSteals = true;
#endif

void ValidateExpr(const Expr* e, const ExprInterner& interner) {
  if (e == nullptr) {
    return;
  }
  // Owns() probes the node's home shard, which transitively vouches for the
  // children too (an interned node's children are interned), so the walk
  // stays shallow: one probe per reachable root.
  OVERIFY_ASSERT(interner.Owns(e),
                 "stolen state references an expression outside the shared interner");
}

// Walks every expression reference in a stolen `state` and asserts it is
// owned by the run's shared `interner` — what a steal must guarantee for
// the state to run on the thief as-is. Aborts on the first foreign node.
void ValidateStateInterned(const ExecState& state, const ExprInterner& interner) {
  for (const StackFrame& frame : state.stack) {
    for (const RuntimeValue& local : frame.locals) {
      switch (local.kind) {
        case RuntimeValue::Kind::kNone:
          break;
        case RuntimeValue::Kind::kInt:
          ValidateExpr(local.expr, interner);
          break;
        case RuntimeValue::Kind::kPointer:
          ValidateExpr(local.pointer.offset, interner);
          break;
      }
    }
  }
  state.memory.ForEachByte([&interner](const Expr* e) { ValidateExpr(e, interner); });
  for (const Expr* constraint : state.constraints) {
    ValidateExpr(constraint, interner);
  }
  // The preprocessing summary survives the steal with its pre-steal
  // expression pointers, so walk it too.
  for (const Expr* definition : state.solver_prefix.definitions) {
    ValidateExpr(definition, interner);
  }
  for (const Expr* simplified : state.solver_prefix.simplified) {
    ValidateExpr(simplified, interner);
  }
  for (const Expr* byte : state.output) {
    ValidateExpr(byte, interner);
  }
  for (const auto& [key, pointer] : state.pointer_slots) {
    ValidateExpr(pointer.offset, interner);
  }
}

}  // namespace

WorkerPool::WorkerPool(Module& module, const SymexOptions& options)
    : module_(module), options_(options) {}

WorkerPool::~WorkerPool() = default;

SymexResult WorkerPool::Run(Function* entry, unsigned num_input_bytes,
                            const SymexLimits& limits) {
  // Malformed driver input is a structured error, not an assertion: the
  // engine's own SetupEntry preconditions are validated here, before any
  // worker launches (docs/robustness.md).
  {
    SymexResult invalid;
    invalid.ok = false;
    if (entry == nullptr || entry->IsDeclaration()) {
      invalid.error = "entry function is missing or has no body";
      return invalid;
    }
    if (entry->NumArgs() != 0 && entry->NumArgs() != 2 && entry->NumArgs() != 4) {
      invalid.error = StrFormat(
          "entry '%s' takes %zu arguments; supported signatures are (), "
          "(u8* buf, i32 len), and (u8* a, i32 na, u8* b, i32 nb)",
          entry->name().c_str(), entry->NumArgs());
      return invalid;
    }
    if (entry->NumArgs() >= 2 && num_input_bytes == 0) {
      invalid.error = StrFormat(
          "zero-width symbolic buffer: entry '%s' takes an input buffer but "
          "0 symbolic bytes were requested",
          entry->name().c_str());
      return invalid;
    }
    if (entry->NumArgs() == 4 && num_input_bytes < 2) {
      invalid.error = StrFormat(
          "entry '%s' takes two input buffers but only %u symbolic byte(s) "
          "were requested (need at least one per buffer)",
          entry->name().c_str(), num_input_bytes);
      return invalid;
    }
  }

  unsigned jobs = options_.jobs;
  if (jobs == 0) {
    jobs = std::max(1u, std::thread::hardware_concurrency());
  }

  // Pre-stamp every defined function's local-slot numbering so no engine
  // writes to the (otherwise immutable, shared) IR once workers run.
  LocalSlotCache slots;
  for (const auto& fn : module_.functions()) {
    if (!fn->IsDeclaration()) {
      slots.Count(fn.get());
    }
  }

  SharedCounters shared;
  shared.limits = limits;
  shared.watch.Restart();
  // The run deadline as a monotonic time point, threaded into every solver
  // query's QueryControl so max_seconds interrupts a pathological query
  // mid-search instead of waiting for it to return. Clamped so an
  // effectively-unbounded max_seconds cannot overflow the duration cast.
  shared.deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::min(limits.max_seconds, 86400.0 * 365)));

  // One shared, lock-striped interner per multi-worker run: every worker's
  // ExprContext builds into it, so stolen states run anywhere as-is. A
  // single worker keeps a private interner, which elides the shard locks
  // and keeps the inline memo slots. A warm interner from a long-lived host
  // (the daemon) takes precedence over both: the run interns into it, so
  // repeated runs of the same module skip rebuilding the expression DAG.
  ExprInterner* run_interner = options_.warm_interner;
  std::unique_ptr<ExprInterner> interner;
  if (run_interner == nullptr && jobs > 1) {
    interner = std::make_unique<ExprInterner>(/*concurrent=*/true);
    run_interner = interner.get();
  }

  // Engines (contexts, solver caches, metrics shards) are per-run; queues
  // persist across runs and are reset at the run boundaries.
  std::vector<std::unique_ptr<EngineCore>> engines;
  engines.reserve(jobs);
  if (queues_.empty()) {
    queues_.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) {
      queues_.push_back(std::make_unique<WorkerQueue>());
    }
  }
  OVERIFY_ASSERT(queues_.size() == jobs, "worker count changed across Run()s");

  // Structured tracing: one lock-free buffer per worker, flushed into a
  // single Chrome-trace-event JSON file after the join. Off (the default)
  // costs one null-pointer branch per instrumented site
  // (docs/observability.md).
  std::string trace_path = options_.trace_path;
  if (trace_path.empty()) {
    const char* env = std::getenv("OVERIFY_TRACE");
    if (env != nullptr) {
      trace_path = env;
    }
  }
  std::unique_ptr<TraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<TraceSink>(trace_path, jobs);
  }

  for (unsigned w = 0; w < jobs; ++w) {
    engines.push_back(std::make_unique<EngineCore>(module_, options_, shared, slots,
                                                   num_input_bytes, w, run_interner));
    engines[w]->set_trace(trace_sink != nullptr ? trace_sink->buffer(w) : nullptr);
    queues_[w]->BeginRun(shared);
  }

  // Cross-run persistence (src/cache/persist.h): seed every worker's
  // counterexample cache from the store's blob for this exact (module
  // content, options) pair before the first query. Entries are addressed by
  // portable content hashes, so a blob harvested by another process (or the
  // daemon's previous run) resolves here; persisted SAT models arrive
  // unvalidated and are re-checked against live constraints at first use.
  uint64_t persist_module_hash = 0;
  uint64_t persist_options_fp = 0;
  if (options_.cache_store != nullptr) {
    persist_module_hash = ModuleContentHash(module_);
    persist_options_fp = OptionsFingerprint(options_);
    if (RunBlob* blob =
            options_.cache_store->FindRun(persist_module_hash, persist_options_fp)) {
      for (const auto& engine : engines) {
        SeedChain(*blob, engine->solver());
      }
    }
  }

  queues_[0]->PushFork(engines[0]->MakeInitialState(entry));

  // Batch stealing: scan victims round-robin; the first queue with work
  // yields up to half its cold end in one lock acquisition. The thief runs
  // the coldest state immediately and queues the rest for itself.
  auto try_steal = [&](unsigned thief) -> std::unique_ptr<ExecState> {
    std::vector<std::unique_ptr<ExecState>> batch;
    EngineCore& thief_engine = *engines[thief];
    FaultInjector& injector = thief_engine.faults();
    // Steal accounting lands in the thief's own shard — the thief's thread
    // is the only writer, same single-writer rule as the engine counters.
    MetricsShard& tm = thief_engine.metrics_shard();
    TraceBuffer* tb = thief_engine.trace();
    for (unsigned k = 1; k < jobs; ++k) {
      unsigned victim = (thief + k) % jobs;
      // Injected steal failure: this victim yields nothing this round, as if
      // a thief raced us to its queue. The thief just moves on; states are
      // never lost, only delayed.
      if (injector.enabled() && injector.Fire(FaultSite::kStealBatch)) {
        if (tb != nullptr) {
          tb->Instant(TraceKind::kFaultFired, MetricsNowNs(),
                      static_cast<uint64_t>(FaultSite::kStealBatch));
        }
        continue;
      }
      const uint64_t t0 = MetricsNowNs();
      queues_[victim]->StealBatch(batch);
      if (batch.empty()) {
        continue;
      }
      tm.Inc(Counter::kStealBatches);
      tm.Add(Counter::kSteals, batch.size());
      for (auto& state : batch) {
        // Every expression the state references lives in the shared
        // interner — the state runs on the thief as-is. The preprocessing
        // summary's contents stay valid too; only its interval-memo handle
        // is tied to the victim context's generation counter, so detach it.
        state->solver_prefix.interval_memo_generation = 0;
        if (kValidateSteals) {
          ValidateStateInterned(*state, *run_interner);
        }
      }
      const uint64_t t1 = MetricsNowNs();
      tm.Record(Hist::kStealBatchNs, t1 - t0);
      if (tb != nullptr) {
        tb->Span(TraceKind::kStealBatch, t0, t1, batch.size(), victim);
      }
      std::unique_ptr<ExecState> first = std::move(batch.front());
      for (size_t i = 1; i < batch.size(); ++i) {
        queues_[thief]->AddStolen(std::move(batch[i]));
      }
      return first;
    }
    return nullptr;
  };

  auto worker_loop = [&](unsigned w) {
    EngineCore& engine = *engines[w];
    WorkerQueue& queue = *queues_[w];
    TraceBuffer* tb = engine.trace();
    const uint64_t run_t0 = tb != nullptr ? MetricsNowNs() : 0;
    unsigned idle_rounds = 0;
    for (;;) {
      if (shared.StopRequested()) {
        break;
      }
      std::unique_ptr<ExecState> state = queue.PopOwn();
      if (state == nullptr && jobs > 1) {
        state = try_steal(w);
      }
      if (state == nullptr) {
        if (shared.live_states.load(std::memory_order_acquire) == 0) {
          break;
        }
        // Back off after a while: during serial phases (one deep path
        // left) a pure yield loop would pin every idle core and hammer the
        // victims' queue mutexes.
        if (++idle_rounds < 64) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      idle_rounds = 0;
      FaultInjector& injector = engine.faults();
      if (injector.enabled() && injector.Fire(FaultSite::kWorkerStall)) {
        // Injected stall: hold the state while the rest of the pool makes
        // progress (models a descheduled or swapping worker).
        if (tb != nullptr) {
          tb->Instant(TraceKind::kFaultFired, MetricsNowNs(),
                      static_cast<uint64_t>(FaultSite::kWorkerStall));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      PathOutcome outcome = engine.RunState(*state, queue);
      if (outcome == PathOutcome::kDied) {
        // Injected worker death mid-state: the state is untouched and still
        // counted live. Requeue it on this worker's queue — survivors steal
        // it from there — and run nothing further on this thread. With no
        // survivors (or jobs == 1) the requeued states surface as
        // paths_unexplored at aggregation, attributed to kWorkerDeath.
        queue.AddStolen(std::move(state));
        break;
      }
      state.reset();
      shared.live_states.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (tb != nullptr) {
      tb->Span(TraceKind::kWorkerRun, run_t0, MetricsNowNs(), w);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs > 0 ? jobs - 1 : 0);
  for (unsigned w = 1; w < jobs; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (std::thread& t : threads) {
    t.join();
  }

  if (trace_sink != nullptr) {
    trace_sink->Write();
  }

  // ---- Deterministic aggregation ----

  SymexResult result;
  result.workers = jobs;
  result.wall_seconds = shared.watch.ElapsedSeconds();

  // One merge replaces the old per-family hand-written sums: each worker's
  // shard (engine, solver, steal, and fault counters plus the latency
  // histograms) folds into the run's registry element-wise, in worker
  // order. Shard merge is associative and commutative, so the totals are
  // independent of worker count for the deterministic counter families
  // (docs/observability.md).
  for (const auto& queue : queues_) {
    result.metrics.Add(Counter::kPathsUnexplored, queue->Remaining());
  }
  for (const auto& engine : engines) {
    engine->SyncMetrics();
    result.metrics.Merge(engine->metrics_shard());
  }
  // Harvest the run's counterexample caches back into the store: append
  // (deduplicated by set hash) into the existing blob so entries the warm
  // run never touched survive, creating the blob on a first cold run. The
  // run signature on the blob is maintained by the store's host (daemon or
  // driver), which computes it from the aggregated result.
  if (options_.cache_store != nullptr) {
    RunBlob* blob =
        options_.cache_store->FindRun(persist_module_hash, persist_options_fp);
    if (blob == nullptr) {
      blob = &options_.cache_store->PutRun(persist_module_hash, persist_options_fp);
    }
    for (const auto& engine : engines) {
      HarvestChain(engine->solver(), *blob);
    }
  }
  // Worker deaths are the claimed count (bounded by max_worker_deaths), not
  // the raw draw fires accumulated from the per-worker injector stats.
  result.metrics.Set(Counter::kFaultWorkerDeaths,
                     shared.worker_deaths.load(std::memory_order_relaxed));
  // Asserts the unknown-cause sum invariant in one place.
  result.FinalizeFromMetrics();
  // Exhausted means every path actually ran to its end — not merely "no
  // limit tripped": a run that completes its last path exactly at a limit
  // (paths.completed == max_paths with nothing queued) latches the stop
  // flag yet explored everything. A path the solver gave up on is a path
  // that did not run to its end, so unknowns also forfeit exhaustion.
  const MetricsShard& m = result.metrics;
  result.exhausted = m.Get(Counter::kPathsLimit) == 0 && m.Get(Counter::kPathsUnexplored) == 0 &&
                     m.Get(Counter::kPathsUnknown) == 0;
  result.stop_cause = static_cast<StopCause>(shared.stop_cause.load(std::memory_order_relaxed));
  if (!result.exhausted && result.stop_cause == StopCause::kNone &&
      m.Get(Counter::kFaultWorkerDeaths) > 0) {
    // No limit latched the stop, but injected deaths left states behind.
    result.stop_cause = StopCause::kWorkerDeath;
  }

  // Merge bug candidates: smallest path_id wins a (site, kind) pair, final
  // order follows the site's position in the module.
  std::map<std::pair<const Instruction*, BugKind>, const BugCandidate*> merged;
  for (const auto& engine : engines) {
    for (const auto& [key, bug] : engine->bugs()) {
      auto it = merged.find(key);
      if (it == merged.end() || bug.path_id < it->second->path_id) {
        merged[key] = &bug;
      }
    }
  }
  std::vector<const BugCandidate*> ordered;
  ordered.reserve(merged.size());
  for (const auto& [key, bug] : merged) {
    ordered.push_back(bug);
  }
  std::unordered_map<const Instruction*, uint64_t> site_order = SiteOrder(module_);
  std::sort(ordered.begin(), ordered.end(),
            [&site_order](const BugCandidate* a, const BugCandidate* b) {
              uint64_t sa = site_order.at(a->site);
              uint64_t sb = site_order.at(b->site);
              if (sa != sb) {
                return sa < sb;
              }
              return static_cast<int>(a->kind) < static_cast<int>(b->kind);
            });
  for (const BugCandidate* bug : ordered) {
    BugReport report;
    report.kind = bug->kind;
    report.message = bug->message;
    report.site = bug->site;
    report.example_input = bug->example_input;
    result.bugs.push_back(std::move(report));
  }

  // Free anything a limit stop left queued so a reused pool starts clean;
  // Remaining() above already tallied it.
  for (const auto& queue : queues_) {
    queue->EndRun();
  }
  return result;
}

}  // namespace sched
}  // namespace overify
