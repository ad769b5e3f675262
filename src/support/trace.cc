#include "src/support/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/support/fault.h"
#include "src/support/metrics.h"

namespace overify {

namespace {

struct KindInfo {
  const char* name;
  const char* category;
};

const KindInfo kKinds[] = {
    {"solver_query", "solver"}, {"core_search", "solver"},  {"cache_lookup", "solver"},
    {"preprocess", "solver"},   {"fork_decide", "engine"},  {"path_run", "engine"},
    {"steal_batch", "sched"},   {"worker_run", "sched"},    {"fault_fired", "fault"},
};

// Argument name tables. The numeric args were produced by casting engine
// enums; each table mirrors its enum's declaration order (SatResult and
// UnknownCause in src/symex/solver.h, PathOutcome in src/symex/engine_core.h)
// so this file needs no dependency on the symex layer.
const char* const kVerdictNames[] = {"sat", "unsat", "unknown"};
const char* const kCauseNames[] = {"none", "budget", "deadline", "cancelled", "injected"};
const char* const kHitNames[] = {"exact", "reuse", "miss"};
const char* const kForkNames[] = {"true", "false", "fork", "unknown"};
const char* const kPathNames[] = {"completed", "bug", "limit", "unknown", "died"};

template <size_t N>
const char* NameOrRaw(const char* const (&table)[N], uint64_t value) {
  return value < N ? table[value] : "?";
}

void WriteArgs(std::FILE* f, TraceKind kind, uint64_t a, uint64_t b) {
  switch (kind) {
    case TraceKind::kSolverQuery:
      std::fprintf(f, "{\"verdict\":\"%s\",\"cause\":\"%s\"}", NameOrRaw(kVerdictNames, a),
                   NameOrRaw(kCauseNames, b));
      break;
    case TraceKind::kCoreSearch:
      std::fprintf(f, "{\"verdict\":\"%s\",\"candidates\":%" PRIu64 "}",
                   NameOrRaw(kVerdictNames, a), b);
      break;
    case TraceKind::kCacheLookup:
      std::fprintf(f, "{\"hit\":\"%s\"}", NameOrRaw(kHitNames, a));
      break;
    case TraceKind::kPreprocess:
      std::fprintf(f, "{\"constraints\":%" PRIu64 "}", a);
      break;
    case TraceKind::kForkDecide:
      std::fprintf(f, "{\"outcome\":\"%s\"}", NameOrRaw(kForkNames, a));
      break;
    case TraceKind::kPathRun:
      std::fprintf(f, "{\"outcome\":\"%s\",\"depth\":%" PRIu64 "}",
                   NameOrRaw(kPathNames, a), b);
      break;
    case TraceKind::kStealBatch:
      std::fprintf(f, "{\"states\":%" PRIu64 ",\"victim\":%" PRIu64 "}", a, b);
      break;
    case TraceKind::kWorkerRun:
      std::fprintf(f, "{\"worker\":%" PRIu64 "}", a);
      break;
    case TraceKind::kFaultFired:
      std::fprintf(f, "{\"site\":\"%s\"}",
                   a < static_cast<uint64_t>(FaultSite::kNumSites)
                       ? FaultSiteName(static_cast<FaultSite>(a))
                       : "?");
      break;
  }
}

}  // namespace

TraceSink::TraceSink(std::string path, unsigned workers)
    : path_(std::move(path)), epoch_ns_(MetricsNowNs()) {
  buffers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    auto buffer = std::make_unique<TraceBuffer>();
    buffer->tid_ = w;
    buffers_.push_back(std::move(buffer));
  }
}

bool TraceSink::Write() const {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[trace] cannot open '%s' for writing; trace dropped\n",
                 path_.c_str());
    return false;
  }
  std::fprintf(f, "[");
  bool first = true;
  // Thread-name metadata first, so Perfetto labels each track.
  for (const auto& buffer : buffers_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"name\":\"worker-%u\"}}",
                 first ? "" : ",", buffer->tid_ + 1, buffer->tid_);
    first = false;
  }
  for (const auto& buffer : buffers_) {
    for (const TraceBuffer::Event& e : buffer->events_) {
      const KindInfo& kind = kKinds[static_cast<size_t>(e.kind)];
      // Timestamps relative to the sink epoch, in microseconds (the trace
      // event format's unit), at nanosecond resolution.
      const double ts_us = static_cast<double>(e.ts_ns - epoch_ns_) / 1000.0;
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"cat\":\"%s\",", first ? "" : ",", kind.name,
                   kind.category);
      first = false;
      if (e.instant) {
        std::fprintf(f, "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,", ts_us);
      } else {
        std::fprintf(f, "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,", ts_us,
                     static_cast<double>(e.dur_ns) / 1000.0);
      }
      std::fprintf(f, "\"pid\":1,\"tid\":%u,\"args\":", buffer->tid_ + 1);
      WriteArgs(f, e.kind, e.arg_a, e.arg_b);
      std::fprintf(f, "}");
    }
  }
  std::fprintf(f, "\n]\n");
  const bool ok = std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "[trace] error writing '%s'\n", path_.c_str());
  }
  return ok;
}

}  // namespace overify
