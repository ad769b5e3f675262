// The verification daemon: a long-lived server that keeps the expensive
// state of verification warm between runs (docs/daemon.md).
//
// Three layers of warmth, coarsest first:
//   1. Run-level memoization — a finished verification's RunSignature is
//      stored under (module content hash, options fingerprint); a repeat
//      request is answered without executing anything.
//   2. The persisted CacheStore — solver-level UNSAT cores and SAT models
//      seeded into every run's SolverChains, loaded from / saved to the
//      --store file across daemon restarts.
//   3. A warm shared expression interner — repeat runs of the same module
//      re-intern into an already-populated DAG.
//
// The server is single-threaded by design: verification runs themselves
// parallelize through SymexOptions::jobs, and serializing requests keeps
// the store free of write races without locks. Clients connect over a Unix
// domain socket and speak the framed protocol of src/daemon/protocol.h.
#pragma once

#include <string>

#include "src/cache/persist.h"
#include "src/support/metrics.h"
#include "src/symex/expr.h"

namespace overify {
namespace daemon {

struct ServerOptions {
  std::string socket_path;  // Unix socket to listen on (required)
  std::string store_path;   // cache store file; empty = in-memory only
  size_t max_runs = 64;     // run-blob LRU capacity of the store
  bool verbose = false;     // one stderr line per request
};

class DaemonServer {
 public:
  explicit DaemonServer(ServerOptions options);

  // Binds, listens, and serves until a Shutdown request (or a socket-level
  // failure). Returns a process exit code. On shutdown the store is saved
  // to store_path (when set).
  int Run();

  // The daemon's own counters (daemon.* in the metrics registry), exposed
  // for tests driving the server in-process.
  const MetricsShard& metrics() const { return metrics_; }
  CacheStore& store() { return store_; }

 private:
  // Handles one decoded request frame; returns the response frame. Sets
  // `shutdown` when the request asked the server to exit.
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request, bool& shutdown);
  std::vector<uint8_t> HandleAnalyze(const std::vector<uint8_t>& request);

  ServerOptions options_;
  CacheStore store_;
  ExprInterner warm_interner_{/*concurrent=*/true};
  MetricsShard metrics_;
};

}  // namespace daemon
}  // namespace overify
