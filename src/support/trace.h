// Opt-in structured run tracing: Chrome-trace-event/Perfetto-compatible
// JSON timelines of the engine's hot phases.
//
// A TraceSink owns one TraceBuffer per worker; exactly one thread writes a
// buffer while a run is live, so recording is a lock-free vector push of a
// small POD event. The engine holds a TraceBuffer* that is null when
// tracing is off — the disabled cost is one cold-pointer branch per
// instrumented site, nothing else (docs/observability.md spells out the
// overhead contract).
//
// Span kinds cover the phases every perf investigation of this engine has
// needed so far: solver query (verdict + unknown cause), core search,
// prefix-cache lookup (hit class), constraint preprocessing, fork/branch
// decision, whole-path execution, steal batches, worker lifecycle, and
// fault firings (instants). After the workers join, TraceSink::Write emits
// one JSON array of trace events — load it at https://ui.perfetto.dev or
// chrome://tracing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace overify {

enum class TraceKind : uint16_t {
  kSolverQuery,  // arg_a = SatResult, arg_b = UnknownCause
  kCoreSearch,   // arg_a = SatResult, arg_b = candidates tried
  kCacheLookup,  // arg_a = CacheHitClass
  kPreprocess,   // arg_a = constraints newly consumed
  kForkDecide,   // arg_a = ForkOutcome
  kPathRun,      // arg_a = path outcome, arg_b = final depth
  kStealBatch,   // arg_a = states taken, arg_b = victim worker
  kWorkerRun,    // arg_a = worker index
  kFaultFired,   // instant; arg_a = FaultSite
};

// How a counterexample-cache lookup resolved (the span's "hit" arg).
enum class CacheHitClass : uint8_t {
  kExact,
  kReuse,
  kMiss,
};

// How a branch decision resolved (the span's "outcome" arg). Mirrors the
// engine's CondOutcome order so the cast is a no-op.
enum class ForkOutcome : uint8_t {
  kTrue,
  kFalse,
  kFork,
  kUnknown,
};

class TraceSink;

// One worker's event log. Not thread-safe by design: one writer per buffer.
class TraceBuffer {
 public:
  void Span(TraceKind kind, uint64_t start_ns, uint64_t end_ns, uint64_t arg_a = 0,
            uint64_t arg_b = 0) {
    events_.push_back(Event{kind, false, start_ns, end_ns - start_ns, arg_a, arg_b});
  }

  void Instant(TraceKind kind, uint64_t ts_ns, uint64_t arg_a = 0) {
    events_.push_back(Event{kind, true, ts_ns, 0, arg_a, 0});
  }

  size_t size() const { return events_.size(); }

 private:
  friend class TraceSink;

  struct Event {
    TraceKind kind;
    bool instant;
    uint64_t ts_ns;   // absolute MetricsNowNs timestamp
    uint64_t dur_ns;  // 0 for instants
    uint64_t arg_a;
    uint64_t arg_b;
  };

  std::vector<Event> events_;
  unsigned tid_ = 0;
};

class TraceSink {
 public:
  // `workers` buffers, tids 0..workers-1; the epoch (t=0 of the timeline)
  // is the construction instant.
  TraceSink(std::string path, unsigned workers);

  TraceBuffer* buffer(unsigned worker) { return buffers_[worker].get(); }
  unsigned workers() const { return static_cast<unsigned>(buffers_.size()); }
  uint64_t epoch_ns() const { return epoch_ns_; }
  const std::string& path() const { return path_; }

  // Serializes every buffer to `path` as a Chrome trace-event JSON array.
  // Returns false (with a stderr warning) if the file cannot be written.
  // Call after the writers joined.
  bool Write() const;

 private:
  std::string path_;
  uint64_t epoch_ns_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

}  // namespace overify
