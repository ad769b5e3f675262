#include "src/daemon/server.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "src/daemon/protocol.h"
#include "src/driver/compiler.h"
#include "src/support/serialize.h"
#include "src/testing/diff_harness.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace daemon {

DaemonServer::DaemonServer(ServerOptions options)
    : options_(std::move(options)), store_(options_.max_runs) {
  if (!options_.store_path.empty()) {
    if (!store_.Load(options_.store_path)) {
      // Any load defect means a cold store, but only an *existing* file that
      // fails to load is a reject (version bump, corruption) — a missing
      // file is just the first start, and the smoke test asserts the reject
      // counter stays at zero across a healthy cold-start/restart cycle.
      struct stat st;
      if (::stat(options_.store_path.c_str(), &st) == 0) {
        metrics_.Inc(Counter::kDaemonStoreRejects);
        if (options_.verbose) {
          std::fprintf(stderr, "daemon: store %s not loaded: %s (starting cold)\n",
                       options_.store_path.c_str(), store_.load_error().c_str());
        }
      } else if (options_.verbose) {
        std::fprintf(stderr, "daemon: no store at %s yet (starting cold)\n",
                     options_.store_path.c_str());
      }
    } else if (options_.verbose) {
      std::fprintf(stderr, "daemon: store %s loaded: %zu runs, %zu entries\n",
                   options_.store_path.c_str(), store_.runs(), store_.TotalEntries());
    }
  }
}

std::vector<uint8_t> DaemonServer::HandleAnalyze(const std::vector<uint8_t>& request) {
  AnalyzeRequest req;
  if (!DecodeAnalyzeRequest(request, req)) {
    return EncodeError("malformed analyze request");
  }
  const Workload* workload = FindWorkload(req.workload.c_str());
  if (workload == nullptr) {
    return EncodeError("unknown workload '" + req.workload + "'");
  }
  if (req.opt_level > static_cast<uint8_t>(OptLevel::kOverify)) {
    return EncodeError("invalid optimization level " + std::to_string(req.opt_level));
  }
  const OptLevel level = static_cast<OptLevel>(req.opt_level);
  const unsigned sym_bytes =
      req.sym_bytes != 0 ? req.sym_bytes : workload->default_sym_bytes;

  Compiler compiler;
  CompileResult compiled = compiler.Compile(workload->source, level, workload->name);
  if (!compiled.ok) {
    return EncodeError("compile failed: " + compiled.errors);
  }

  SymexLimits limits;
  limits.max_paths = req.max_paths;
  limits.max_seconds = static_cast<double>(req.max_seconds_ms) / 1000.0;
  SymexOptions opts;
  opts.jobs = req.jobs;
  opts.slice_checks = req.slice_checks != 0;
  opts.cache_store = &store_;
  opts.warm_interner = &warm_interner_;

  // The run-memo key. The module hash is taken on the *freshly compiled*
  // module — every request compiles fresh, so the pre-run hash is the
  // stable one.
  const uint64_t module_hash = ModuleContentHash(*compiled.module);
  const uint64_t options_fp = OptionsFingerprint(opts);

  AnalyzeReply reply;
  if (req.force_run == 0) {
    if (RunBlob* blob = store_.FindRun(module_hash, options_fp)) {
      if (!blob->run_signature.empty()) {
        metrics_.Inc(Counter::kDaemonRunHits);
        reply.ok = true;
        reply.run_hit = true;
        reply.signature = blob->run_signature;
        if (options_.verbose) {
          std::fprintf(stderr, "daemon: %s @ %s -> run hit\n", workload->name.c_str(),
                       OptLevelName(level));
        }
        return EncodeAnalyzeReply(reply);
      }
    }
  }
  metrics_.Inc(Counter::kDaemonRunMisses);

  SymexResult result = Analyze(compiled, "umain", sym_bytes, limits, opts);
  if (!result.ok) {
    return EncodeError("analyze failed: " + result.error);
  }
  const difftest::RunSignature signature =
      difftest::SignatureOf(result, *compiled.module, "umain", /*confirm_models=*/true);

  RunBlob* blob = store_.FindRun(module_hash, options_fp);
  if (blob == nullptr) {
    blob = &store_.PutRun(module_hash, options_fp);
  }
  blob->run_signature = signature.ToString();

  reply.ok = true;
  reply.signature = blob->run_signature;
  reply.exhausted = result.exhausted;
  reply.paths = result.metrics.Get(Counter::kPathsCompleted);
  reply.bugs = result.bugs.size();
  reply.persist_seeded = result.metrics.Get(Counter::kPersistSeeded);
  reply.persist_hits = result.metrics.Get(Counter::kPersistHits);
  reply.persist_validations = result.metrics.Get(Counter::kPersistValidations);
  reply.persist_rejects = result.metrics.Get(Counter::kPersistRejects);
  reply.core_queries = result.metrics.Get(Counter::kSolverCoreQueries);
  reply.cache_hits = result.metrics.Get(Counter::kSolverCacheHits);
  if (options_.verbose) {
    std::fprintf(stderr,
                 "daemon: %s @ %s -> ran: %llu paths, seeded %llu, persist hits %llu\n",
                 workload->name.c_str(), OptLevelName(level),
                 static_cast<unsigned long long>(reply.paths),
                 static_cast<unsigned long long>(reply.persist_seeded),
                 static_cast<unsigned long long>(reply.persist_hits));
  }
  return EncodeAnalyzeReply(reply);
}

std::vector<uint8_t> DaemonServer::Handle(const std::vector<uint8_t>& request,
                                          bool& shutdown) {
  metrics_.Inc(Counter::kDaemonRequests);
  if (request.empty()) {
    return EncodeError("empty request");
  }
  switch (static_cast<RequestTag>(request[0])) {
    case RequestTag::kAnalyze: {
      std::vector<uint8_t> response = HandleAnalyze(request);
      // The store's LRU may have evicted while memoizing; mirror the total
      // into the daemon's shard so Stats and the bench report see it.
      metrics_.Set(Counter::kDaemonRunEvictions, store_.evictions());
      return response;
    }
    case RequestTag::kPing: {
      ByteWriter w;
      w.U8(0);
      w.U32(kDaemonProtocolVersion);
      return w.Take();
    }
    case RequestTag::kStats: {
      StatsReply stats;
      stats.ok = true;
      stats.requests = metrics_.Get(Counter::kDaemonRequests);
      stats.run_hits = metrics_.Get(Counter::kDaemonRunHits);
      stats.run_misses = metrics_.Get(Counter::kDaemonRunMisses);
      stats.run_evictions = store_.evictions();
      stats.store_rejects = metrics_.Get(Counter::kDaemonStoreRejects);
      stats.store_runs = store_.runs();
      stats.store_entries = store_.TotalEntries();
      return EncodeStatsReply(stats);
    }
    case RequestTag::kSaveStore: {
      if (options_.store_path.empty()) {
        return EncodeError("daemon started without --store");
      }
      if (!store_.Save(options_.store_path)) {
        return EncodeError("store save failed: " + options_.store_path);
      }
      ByteWriter w;
      w.U8(0);
      return w.Take();
    }
    case RequestTag::kShutdown: {
      shutdown = true;
      ByteWriter w;
      w.U8(0);
      return w.Take();
    }
  }
  return EncodeError("unknown request tag " + std::to_string(request[0]));
}

int DaemonServer::Run() {
  if (options_.socket_path.empty()) {
    std::fprintf(stderr, "daemon: no socket path\n");
    return 1;
  }
  if (options_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "daemon: socket path too long: %s\n",
                 options_.socket_path.c_str());
    return 1;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("daemon: socket");
    return 1;
  }
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("daemon: bind");
    ::close(listener);
    return 1;
  }
  if (::listen(listener, 8) != 0) {
    std::perror("daemon: listen");
    ::close(listener);
    return 1;
  }
  if (options_.verbose) {
    std::fprintf(stderr, "daemon: listening on %s\n", options_.socket_path.c_str());
  }

  bool shutdown = false;
  while (!shutdown) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::perror("daemon: accept");
      break;
    }
    // One connection at a time, frames in order until the client closes.
    std::vector<uint8_t> request;
    while (!shutdown && ReadFrame(conn, request)) {
      const std::vector<uint8_t> response = Handle(request, shutdown);
      if (!WriteFrame(conn, response)) {
        break;
      }
    }
    ::close(conn);
  }
  ::close(listener);
  ::unlink(options_.socket_path.c_str());

  if (!options_.store_path.empty()) {
    if (store_.Save(options_.store_path)) {
      if (options_.verbose) {
        std::fprintf(stderr, "daemon: store saved to %s (%zu runs, %zu entries)\n",
                     options_.store_path.c_str(), store_.runs(), store_.TotalEntries());
      }
    } else {
      std::fprintf(stderr, "daemon: failed to save store to %s\n",
                   options_.store_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace daemon
}  // namespace overify
