#include "src/cache/persist.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "src/ir/module.h"
#include "src/ir/printer.h"
#include "src/support/serialize.h"
#include "src/symex/executor.h"
#include "src/symex/expr_hash.h"

namespace overify {

namespace {

// Checksum over the serialized payload: a PortableHasher fold of 8-byte
// little-endian words plus the tail. Defined on bytes, so it is the same on
// every machine that produced the same payload.
uint64_t PayloadChecksum(const uint8_t* data, size_t size) {
  PortableHasher hasher;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) {
      word = (word << 8) | data[i + static_cast<size_t>(b)];
    }
    hasher.Fold(word);
  }
  for (; i < size; ++i) {
    hasher.Fold(data[i]);
  }
  hasher.Fold(static_cast<uint64_t>(size));
  return hasher.hash();
}

void WriteEntry(ByteWriter& w, const PersistedEntry& entry) {
  w.U64(entry.set_hash);
  w.U64(entry.fingerprint);
  w.U8(entry.result);
  w.Blob(entry.model);
}

bool ReadEntry(ByteReader& r, PersistedEntry& entry) {
  entry.set_hash = r.U64();
  entry.fingerprint = r.U64();
  entry.result = r.U8();
  if (entry.result > 1) {
    return false;  // only kSat/kUnsat are ever persisted
  }
  entry.model = r.Blob();
  return r.ok();
}

}  // namespace

void SeedChain(const RunBlob& blob, SolverChain& chain) {
  for (const PersistedEntry& entry : blob.entries) {
    chain.SeedPersistedEntry(entry.set_hash, entry.fingerprint,
                             entry.result == 0 ? SatResult::kSat : SatResult::kUnsat,
                             entry.model);
  }
}

void HarvestChain(const SolverChain& chain, RunBlob& blob) {
  std::unordered_set<uint64_t> present;
  present.reserve(blob.entries.size());
  for (const PersistedEntry& entry : blob.entries) {
    present.insert(entry.set_hash);
  }
  chain.cex_cache().ForEachLive([&](const PrefixCache::Entry& live) {
    if (live.result == SatResult::kUnknown || live.unvalidated) {
      // kUnknown never persists; an unvalidated model was loaded from a
      // store and never confirmed this run — re-persisting it would launder
      // it into looking fresh.
      return;
    }
    if (!present.insert(live.set_hash).second) {
      return;
    }
    PersistedEntry entry;
    entry.set_hash = live.set_hash;
    entry.fingerprint = live.fingerprint;
    entry.result = live.result == SatResult::kSat ? 0 : 1;
    entry.model = live.model;
    blob.entries.push_back(std::move(entry));
  });
}

uint64_t ModuleContentHash(Module& module) {
  const std::string text = PrintModule(module);
  PortableHasher hasher;
  for (char c : text) {
    hasher.Fold(static_cast<uint8_t>(c));
  }
  hasher.Fold(static_cast<uint64_t>(text.size()));
  return hasher.hash();
}

uint64_t OptionsFingerprint(const SymexOptions& options) {
  // Fields that change which constraint sets arise or how they are judged.
  // jobs / trace_path / cache_store / warm_interner are deliberately
  // excluded: the scheduler contract makes results worker-count-invariant,
  // so a 1-job warm run may reuse a 8-job cold harvest.
  PortableHasher hasher;
  hasher.Fold(static_cast<uint8_t>(options.solver_preprocess ? 1 : 0));
  hasher.Fold(static_cast<uint8_t>(options.solver_learning ? 1 : 0));
  hasher.Fold(static_cast<uint8_t>(options.slice_checks ? 1 : 0));
  hasher.Fold(static_cast<uint8_t>(options.annotations != nullptr ? 1 : 0));
  hasher.Fold(static_cast<uint8_t>(options.faults.enabled() ? 1 : 0));
  if (options.faults.enabled()) {
    hasher.Fold(options.faults.seed);
    hasher.Fold(options.faults.period);
    hasher.Fold(options.faults.sites);
    hasher.Fold(options.faults.max_worker_deaths);
  }
  return hasher.hash();
}

RunBlob* CacheStore::FindRun(uint64_t module_hash, uint64_t options_fp) {
  for (RunBlob& blob : runs_) {
    if (blob.module_hash == module_hash && blob.options_fp == options_fp) {
      blob.last_used = ++tick_;
      return &blob;
    }
  }
  return nullptr;
}

RunBlob& CacheStore::PutRun(uint64_t module_hash, uint64_t options_fp) {
  if (RunBlob* existing = FindRun(module_hash, options_fp)) {
    existing->run_signature.clear();
    existing->entries.clear();
    return *existing;
  }
  if (runs_.size() >= max_runs_ && !runs_.empty()) {
    auto lru = std::min_element(runs_.begin(), runs_.end(),
                                [](const RunBlob& a, const RunBlob& b) {
                                  return a.last_used < b.last_used;
                                });
    runs_.erase(lru);
    ++evictions_;
  }
  runs_.emplace_back();
  RunBlob& blob = runs_.back();
  blob.module_hash = module_hash;
  blob.options_fp = options_fp;
  blob.last_used = ++tick_;
  return blob;
}

size_t CacheStore::TotalEntries() const {
  size_t total = 0;
  for (const RunBlob& blob : runs_) {
    total += blob.entries.size();
  }
  return total;
}

std::vector<uint8_t> CacheStore::Serialize() const {
  ByteWriter payload;
  payload.U64(runs_.size());
  for (const RunBlob& blob : runs_) {
    payload.U64(blob.module_hash);
    payload.U64(blob.options_fp);
    payload.U64(blob.last_used);
    payload.Str(blob.run_signature);
    payload.U64(blob.entries.size());
    for (const PersistedEntry& entry : blob.entries) {
      WriteEntry(payload, entry);
    }
  }

  ByteWriter file;
  file.U64(kCacheStoreMagic);
  file.U32(kCacheStoreVersion);
  file.U64(payload.bytes().size());
  const uint64_t checksum = PayloadChecksum(payload.bytes().data(), payload.bytes().size());
  for (uint8_t b : payload.bytes()) {
    file.U8(b);
  }
  file.U64(checksum);
  return file.Take();
}

bool CacheStore::Deserialize(const std::vector<uint8_t>& bytes) {
  runs_.clear();
  tick_ = 0;
  load_error_.clear();

  ByteReader r(bytes);
  if (r.U64() != kCacheStoreMagic) {
    load_error_ = "bad magic (not a cache store)";
    return false;
  }
  const uint32_t version = r.U32();
  if (version != kCacheStoreVersion) {
    load_error_ = "version mismatch (store v" + std::to_string(version) + ", expected v" +
                  std::to_string(kCacheStoreVersion) + ")";
    return false;
  }
  const uint64_t payload_size = r.U64();
  if (!r.ok() || payload_size + 8 != r.remaining()) {
    load_error_ = "truncated or oversized payload";
    return false;
  }
  const uint8_t* payload = bytes.data() + (bytes.size() - r.remaining());
  const uint64_t expected = PayloadChecksum(payload, payload_size);

  ByteReader body(payload, payload_size);
  const uint64_t num_runs = body.U64();
  if (num_runs > payload_size) {
    load_error_ = "corrupt run count";
    return false;
  }
  std::vector<RunBlob> runs;
  runs.reserve(num_runs);
  for (uint64_t i = 0; i < num_runs; ++i) {
    RunBlob blob;
    blob.module_hash = body.U64();
    blob.options_fp = body.U64();
    blob.last_used = body.U64();
    blob.run_signature = body.Str();
    const uint64_t num_entries = body.U64();
    if (num_entries > payload_size) {
      load_error_ = "corrupt entry count";
      return false;
    }
    blob.entries.resize(num_entries);
    for (PersistedEntry& entry : blob.entries) {
      if (!ReadEntry(body, entry)) {
        load_error_ = "corrupt entry";
        return false;
      }
    }
    tick_ = std::max(tick_, blob.last_used);
    runs.push_back(std::move(blob));
  }
  if (!body.AtEnd()) {
    load_error_ = "trailing or missing payload bytes";
    return false;
  }
  // Checksum verified after structural parsing so the error message can be
  // specific, but before the parsed runs are adopted — a corrupted store
  // never contributes a single entry.
  ByteReader tail(payload + payload_size, 8);
  if (tail.U64() != expected) {
    load_error_ = "checksum mismatch";
    return false;
  }
  runs_ = std::move(runs);
  return true;
}

bool CacheStore::Load(const std::string& path) {
  runs_.clear();
  load_error_.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    load_error_ = "cannot open " + path;
    return false;
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return Deserialize(bytes);
}

bool CacheStore::Save(const std::string& path) const {
  const std::vector<uint8_t> bytes = Serialize();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace overify
