// Persistent cross-run verification cache (docs/daemon.md).
//
// A CacheStore holds the harvest of previous verification runs — per
// (module content hash, options fingerprint) "run blobs" carrying the run's
// determinism signature and the counterexample cache's live entries (UNSAT
// cores and SAT models) — and serializes them to a versioned,
// checksummed on-disk file. A later run (or a warm daemon serving many
// runs) seeds its SolverChains from the matching blob, so solver queries
// whose constraint sets were answered in a previous process are answered
// from the store.
//
// Everything in a blob is addressed by portable content hashes
// (src/symex/expr_hash.h): entry identity survives processes, machines, and
// interner creation orders. Trust is asymmetric by design: UNSAT verdicts
// are covered by the 128-bit entry identity plus the store checksum, while
// SAT models are seeded *unvalidated* and re-checked against live
// constraints at first use — a corrupted or stale store degrades to a cache
// miss, never a wrong verdict.
//
// Any load failure (missing file, bad magic, version mismatch, checksum
// mismatch, truncation) leaves the store empty and records a reason:
// callers fall back to a cold run. Saves are atomic (tmp + rename) so a
// crashed writer can only lose the new store, not corrupt the old one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/symex/solver.h"

namespace overify {

class Module;
struct SymexOptions;

// Bump on ANY change to the serialized layout, to the definition of the
// portable content hash (src/symex/expr_hash.cc), to OptionsFingerprint
// *or* to what the solver or engine returns for a fixed (module, options)
// key (models, path counts, bug inputs) — stores written under a different
// definition must be rejected wholesale, not reinterpreted, and a stored
// RunSignature must be the one a cold run would produce.
constexpr uint32_t kCacheStoreVersion = 4;

// "OVFYCACH" little-endian.
constexpr uint64_t kCacheStoreMagic = 0x484341435946564Full;

// One persisted counterexample-cache entry. Field meanings match
// PrefixCache::Entry; `result` is 0 = kSat, 1 = kUnsat (kUnknown is never
// cached, live or persisted).
struct PersistedEntry {
  std::vector<uint64_t> keys;  // ascending per-constraint structural hashes
  uint64_t set_hash = 0;
  uint64_t fingerprint = 0;  // portable content fingerprint
  uint8_t result = 0;
  std::vector<uint8_t> model;
};

// The harvest of one (module, options) verification run.
struct RunBlob {
  uint64_t module_hash = 0;  // ModuleContentHash of the verified module
  uint64_t options_fp = 0;   // OptionsFingerprint of the run's options
  // RunSignature::ToString() of the run that produced the entries. The
  // daemon returns it for run-level hits, and the warm/cold differential
  // compares it bit-for-bit against a cold in-process run.
  std::string run_signature;
  std::vector<PersistedEntry> entries;
  uint64_t last_used = 0;  // logical LRU tick, maintained by CacheStore
};

class SolverChain;

// Seeds `chain`'s counterexample cache with every entry of `blob`
// (SAT models arrive unvalidated; see SolverChain::SeedPersistedEntry).
void SeedChain(const RunBlob& blob, SolverChain& chain);

// Appends `chain`'s live cache entries to `blob`, skipping set hashes the
// blob already holds — multi-worker runs harvest one chain after another
// into the same blob.
void HarvestChain(const SolverChain& chain, RunBlob& blob);

// The portable content hash of a module: a fold of its canonical printed
// form, so two processes that compiled the same source agree independently
// of pointer identity or pass ordering accidents.
uint64_t ModuleContentHash(Module& module);

// Fingerprint of the SymexOptions fields that change solver behavior or
// verdicts. Two runs may share cache entries only when these match.
uint64_t OptionsFingerprint(const SymexOptions& options);

class CacheStore {
 public:
  explicit CacheStore(size_t max_runs = 64) : max_runs_(max_runs) {}

  // Replaces the store's contents from `path`. Returns false — leaving the
  // store empty, with the reason in load_error() — on any defect; the
  // caller proceeds cold.
  bool Load(const std::string& path);
  // Atomic save: writes `path`.tmp, then renames over `path`.
  bool Save(const std::string& path) const;
  const std::string& load_error() const { return load_error_; }

  // The blob for (module_hash, options_fp), bumping its LRU tick; null when
  // the store has no matching run.
  RunBlob* FindRun(uint64_t module_hash, uint64_t options_fp);
  // Creates (or resets) the blob for (module_hash, options_fp), evicting
  // the least-recently-used run beyond max_runs.
  RunBlob& PutRun(uint64_t module_hash, uint64_t options_fp);

  // Byte-level round trip (the on-disk payload; tests and the daemon's
  // stats endpoint reuse it).
  std::vector<uint8_t> Serialize() const;
  // Full-file deserialization including magic/version/checksum envelope.
  bool Deserialize(const std::vector<uint8_t>& bytes);

  size_t runs() const { return runs_.size(); }
  uint64_t evictions() const { return evictions_; }
  size_t TotalEntries() const;

 private:
  size_t max_runs_;
  std::vector<RunBlob> runs_;
  uint64_t tick_ = 0;
  uint64_t evictions_ = 0;
  std::string load_error_;
};

}  // namespace overify
