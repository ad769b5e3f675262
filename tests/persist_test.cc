// The persistent cross-run verification cache (src/cache/persist.*,
// src/symex/expr_hash.*, docs/daemon.md).
//
// The load-bearing property is cross-run identity: a constraint set's
// (set_hash, portable fingerprint) pair must be a pure function of
// expression structure — identical across processes, machines, and interner
// creation orders — because the store trusts UNSAT verdicts on identity
// alone. The suites here pin that down from four sides: golden hash values
// (a silent change to the hash definition without a kCacheStoreVersion bump
// fails here first), creation-order invariance inside one process, a
// re-exec probe proving bit-identical hashes across *processes*, and the
// store envelope tests proving every corrupted or version-skewed store
// degrades to a cold run rather than a wrong verdict.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/cache/persist.h"
#include "src/driver/compiler.h"
#include "src/support/metrics.h"
#include "src/support/serialize.h"
#include "src/symex/expr.h"
#include "src/symex/expr_hash.h"
#include "src/symex/solver.h"
#include "src/testing/diff_harness.h"
#include "src/workloads/workloads.h"

namespace overify {
namespace {

// The probe constraint set: small but exercises every portable-hash
// feature — multiple symbols (the De Bruijn table), a shared subtree (walk
// ordinal back references), widening, arithmetic, and comparisons.
std::vector<const Expr*> BuildProbeSet(ExprContext& ctx) {
  const Expr* x = ctx.Symbol(0);
  const Expr* y = ctx.Symbol(3);  // non-dense index: the table must record it
  const Expr* wx = ctx.ZExt(x, 32);
  const Expr* wy = ctx.ZExt(y, 32);
  const Expr* sum = ctx.Binary(ExprKind::kAdd, wx, wy);
  return {
      ctx.Compare(ICmpPredicate::kULT, sum, ctx.Constant(300, 32)),
      // `sum` again: a shared subtree, hashed by walk ordinal not pointer.
      ctx.Compare(ICmpPredicate::kEq, ctx.Binary(ExprKind::kAnd, sum, ctx.Constant(1, 32)),
                  ctx.Constant(0, 32)),
      ctx.Compare(ICmpPredicate::kULT, ctx.Constant(10, 8), x),
  };
}

uint64_t ProbeFingerprint(ExprContext& ctx) {
  std::vector<const Expr*> set = BuildProbeSet(ctx);
  PortableHashCache cache;
  return PortableSetFingerprint(set, cache);
}

// Re-exec hook: with OVERIFY_HASH_PROBE set, the binary prints the probe
// set's portable hashes at load time and exits before gtest starts. The
// CrossProcess test execs itself through this to prove the hash is
// bit-identical in a fresh process (the property Expr::id() lacked).
struct HashProbeAtLoad {
  HashProbeAtLoad() {
    if (std::getenv("OVERIFY_HASH_PROBE") == nullptr) {
      return;
    }
    ExprContext ctx;
    std::vector<const Expr*> set = BuildProbeSet(ctx);
    std::printf("%016llx %016llx\n",
                static_cast<unsigned long long>(ProbeFingerprint(ctx)),
                static_cast<unsigned long long>(PortableExprHash(set[0])));
    std::fflush(stdout);
    std::_Exit(0);
  }
};
[[maybe_unused]] HashProbeAtLoad probe_at_load;

// ---- Portable content hashing ----

TEST(PortableHash, CreationOrderInvariance) {
  // Context A builds the probe set directly; context B first builds
  // unrelated expressions and the probe's pieces in reverse, so every
  // Expr::id() differs between the two interners. The portable hash must
  // not see the difference — this is the regression test for the
  // fingerprint that folded creation order.
  ExprContext a;
  ExprContext b;
  // Scramble B's creation order (and its dense id space).
  b.Compare(ICmpPredicate::kEq, b.ZExt(b.Symbol(7), 32), b.Constant(300, 32));
  b.Binary(ExprKind::kAdd, b.ZExt(b.Symbol(3), 32), b.ZExt(b.Symbol(0), 32));
  b.Constant(1, 32);

  std::vector<const Expr*> set_a = BuildProbeSet(a);
  std::vector<const Expr*> set_b = BuildProbeSet(b);
  for (size_t i = 0; i < set_a.size(); ++i) {
    EXPECT_NE(set_a[i], set_b[i]) << "distinct interners must not share nodes";
    EXPECT_EQ(PortableExprHash(set_a[i]), PortableExprHash(set_b[i])) << "constraint " << i;
  }
  EXPECT_EQ(ProbeFingerprint(a), ProbeFingerprint(b));
}

// Persisted SAT models are only reusable if CheckSatCanonical's verdict
// and model are a pure function of constraint structure. Context B builds
// unrelated nodes first and then the same two constraints in reverse
// order, so every Expr::id() differs from context A's; the answer must not.
TEST(CrossContext, CanonicalVerdictAndModelIgnoreCreationOrder) {
  ExprContext a;
  const Expr* a1 = a.Compare(ICmpPredicate::kUGT, a.Symbol(0), a.Constant(10, 8));
  const Expr* a2 = a.Compare(
      ICmpPredicate::kEq,
      a.Binary(ExprKind::kAdd, a.ZExt(a.Symbol(0), 32), a.ZExt(a.Symbol(1), 32)),
      a.Constant(300, 32));
  std::vector<uint8_t> model_a;
  SolverChain chain_a(a);
  ASSERT_EQ(chain_a.CheckSatCanonical({a1, a2}, &model_a), SatResult::kSat);

  ExprContext b;
  b.Compare(ICmpPredicate::kEq, b.ZExt(b.Symbol(5), 32), b.Constant(7, 32));
  b.Binary(ExprKind::kMul, b.ZExt(b.Symbol(1), 32), b.Constant(3, 32));
  const Expr* b2 = b.Compare(
      ICmpPredicate::kEq,
      b.Binary(ExprKind::kAdd, b.ZExt(b.Symbol(0), 32), b.ZExt(b.Symbol(1), 32)),
      b.Constant(300, 32));
  const Expr* b1 = b.Compare(ICmpPredicate::kUGT, b.Symbol(0), b.Constant(10, 8));
  EXPECT_NE(a1->id(), b1->id());
  EXPECT_NE(a2->id(), b2->id());
  std::vector<uint8_t> model_b;
  SolverChain chain_b(b);
  ASSERT_EQ(chain_b.CheckSatCanonical({b1, b2}, &model_b), SatResult::kSat);
  EXPECT_EQ(model_a, model_b);
}

TEST(PortableHash, SymbolTableKeepsActualIndices) {
  // x0 < 5 and x1 < 5 are alpha-equivalent (identical walk bodies) but
  // models are specific to byte positions, so the appended symbol table
  // must keep the hashes apart.
  ExprContext ctx;
  const Expr* c0 = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(0), ctx.Constant(5, 8));
  const Expr* c1 = ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(1), ctx.Constant(5, 8));
  EXPECT_NE(PortableExprHash(c0), PortableExprHash(c1));
}

TEST(PortableHash, DistinguishesStructure) {
  ExprContext ctx;
  const Expr* x = ctx.Symbol(0);
  EXPECT_NE(PortableExprHash(ctx.Compare(ICmpPredicate::kULT, x, ctx.Constant(5, 8))),
            PortableExprHash(ctx.Compare(ICmpPredicate::kULT, x, ctx.Constant(6, 8))));
  EXPECT_NE(PortableExprHash(ctx.Compare(ICmpPredicate::kULT, x, ctx.Constant(5, 8))),
            PortableExprHash(ctx.Compare(ICmpPredicate::kULE, x, ctx.Constant(5, 8))));
}

TEST(PortableHash, CacheAgreesWithStandalone) {
  ExprContext ctx;
  std::vector<const Expr*> set = BuildProbeSet(ctx);
  PortableHashCache cache;
  for (const Expr* c : set) {
    const uint64_t first = cache.Hash(c);
    EXPECT_EQ(first, PortableExprHash(c));
    EXPECT_EQ(first, cache.Hash(c)) << "memoized value must be stable";
  }
}

TEST(PortableHash, SetFingerprintIsOrderSensitive) {
  ExprContext ctx;
  std::vector<const Expr*> set = BuildProbeSet(ctx);
  PortableHashCache cache;
  const uint64_t forward = PortableSetFingerprint(set, cache);
  std::vector<const Expr*> reversed(set.rbegin(), set.rend());
  // Callers fingerprint the *canonical* (hash-ordered) set; the fold itself
  // is order-sensitive so a different order is a different identity.
  EXPECT_NE(forward, PortableSetFingerprint(reversed, cache));
  EXPECT_EQ(forward, PortableSetFingerprint(set, cache));
}

// Golden values: the portable hash definition is an on-disk format. If
// this test fails, either restore compatibility or bump kCacheStoreVersion
// (src/cache/persist.h) in the same change — never ship a silent change.
TEST(PortableHash, GoldenValues) {
  ExprContext ctx;
  std::vector<const Expr*> set = BuildProbeSet(ctx);
  EXPECT_EQ(PortableExprHash(set[0]), UINT64_C(0x782957eee6768aef));
  EXPECT_EQ(PortableExprHash(set[2]), UINT64_C(0x968390325149c3a6));
  EXPECT_EQ(ProbeFingerprint(ctx), UINT64_C(0xd17947bd3a244303));
}

TEST(PortableHash, CrossProcessBitIdentical) {
  // Re-exec this binary with OVERIFY_HASH_PROBE=1 (see HashProbeAtLoad) and
  // compare the fresh process's hashes bit-for-bit with ours.
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(n, 0);
  exe[n] = '\0';
  const std::string command = "OVERIFY_HASH_PROBE=1 '" + std::string(exe) + "'";
  std::FILE* child = ::popen(command.c_str(), "r");
  ASSERT_NE(child, nullptr);
  char line[128] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), child), nullptr);
  ASSERT_EQ(::pclose(child), 0);

  unsigned long long child_fingerprint = 0;
  unsigned long long child_hash = 0;
  ASSERT_EQ(std::sscanf(line, "%llx %llx", &child_fingerprint, &child_hash), 2);
  ExprContext ctx;
  std::vector<const Expr*> set = BuildProbeSet(ctx);
  EXPECT_EQ(static_cast<uint64_t>(child_fingerprint), ProbeFingerprint(ctx));
  EXPECT_EQ(static_cast<uint64_t>(child_hash), PortableExprHash(set[0]));
}

// ---- Counterexample-cache collision degradation ----

TEST(PrefixCacheCollision, ForcedSetHashCollisionDegradesToMiss) {
  PrefixCache cache;
  cache.Insert(/*set_hash=*/42, /*fingerprint=*/100, SatResult::kUnsat, {});
  ASSERT_NE(cache.FindExact(42, 100), nullptr);

  // Same 64-bit set_hash, different fingerprint: a (forced) collision.
  // Serving either entry for the other's set would be a wrong verdict, so
  // both must be dropped — the collision degrades to a miss.
  cache.Insert(/*set_hash=*/42, /*fingerprint=*/200, SatResult::kUnsat, {});
  EXPECT_EQ(cache.FindExact(42, 100), nullptr);
  EXPECT_EQ(cache.FindExact(42, 200), nullptr);
  EXPECT_EQ(cache.collisions(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // Persisted entries collide the same way (a store written under a
  // different hash definition version can never reach this — the version
  // gate rejects it wholesale — but two genuinely colliding sets can).
  cache.InsertPersisted(/*set_hash=*/43, /*fingerprint=*/300, SatResult::kUnsat, {});
  ASSERT_NE(cache.FindExact(43, 300), nullptr);
  cache.InsertPersisted(/*set_hash=*/43, /*fingerprint=*/301, SatResult::kUnsat, {});
  EXPECT_EQ(cache.FindExact(43, 300), nullptr);
  EXPECT_EQ(cache.FindExact(43, 301), nullptr);
  EXPECT_EQ(cache.collisions(), 2u);
}

// ---- Seeding, validation, and the trust model ----

class PersistSeedTest : public ::testing::Test {
 protected:
  // Builds the same query in any context (seeded chains live in their own
  // interner, like a fresh process would).
  static std::vector<const Expr*> SatQuery(ExprContext& ctx) {
    return {ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(5, 8)),
            ctx.Compare(ICmpPredicate::kULT, ctx.Symbol(1), ctx.Constant(9, 8))};
  }
  static std::vector<const Expr*> UnsatQuery(ExprContext& ctx) {
    return {ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(5, 8)),
            ctx.Compare(ICmpPredicate::kEq, ctx.Symbol(0), ctx.Constant(6, 8))};
  }

  static bool Satisfies(ExprContext& ctx, const std::vector<const Expr*>& constraints,
                        const std::vector<uint8_t>& model) {
    ctx.NewEvaluation();
    for (const Expr* c : constraints) {
      if (ctx.Evaluate(c, model) == 0) {
        return false;
      }
    }
    return true;
  }

  // Runs both queries on a fresh chain and harvests its cache.
  RunBlob HarvestReferenceRun() {
    ExprContext ctx;
    SolverChain chain(ctx);
    chain.set_preprocessing(false);
    std::vector<uint8_t> model;
    EXPECT_EQ(chain.CheckSat(SatQuery(ctx), &model), SatResult::kSat);
    EXPECT_EQ(chain.CheckSat(UnsatQuery(ctx), &model), SatResult::kUnsat);
    RunBlob blob;
    HarvestChain(chain, blob);
    EXPECT_GE(blob.entries.size(), 2u);
    return blob;
  }
};

TEST_F(PersistSeedTest, SeededChainAnswersFromStore) {
  RunBlob blob = HarvestReferenceRun();

  ExprContext ctx;  // fresh interner: different Expr::id() space
  SolverChain chain(ctx);
  chain.set_preprocessing(false);
  SeedChain(blob, chain);
  EXPECT_EQ(chain.metrics().Get(Counter::kPersistSeeded), blob.entries.size());

  std::vector<uint8_t> model;
  EXPECT_EQ(chain.CheckSat(SatQuery(ctx), &model), SatResult::kSat);
  EXPECT_TRUE(Satisfies(ctx, SatQuery(ctx), model));
  EXPECT_EQ(chain.CheckSat(UnsatQuery(ctx), &model), SatResult::kUnsat);
  EXPECT_GE(chain.metrics().Get(Counter::kPersistHits), 2u)
      << "both verdicts must come from the persisted entries";
  // The SAT model was validated against the live query, not trusted.
  EXPECT_GE(chain.metrics().Get(Counter::kPersistValidations), 1u);
  EXPECT_EQ(chain.metrics().Get(Counter::kPersistRejects), 0u);
}

TEST_F(PersistSeedTest, TamperedModelDegradesToMissNeverWrongAnswer) {
  RunBlob blob = HarvestReferenceRun();
  // Corrupt every persisted SAT model (as a stale or malicious store
  // would). Verdicts must still be correct; the tampered entries must be
  // rejected, not served.
  for (PersistedEntry& entry : blob.entries) {
    if (entry.result == 0 && !entry.model.empty()) {
      for (uint8_t& byte : entry.model) {
        byte ^= 0xFF;
      }
    }
  }

  ExprContext ctx;
  SolverChain chain(ctx);
  chain.set_preprocessing(false);
  SeedChain(blob, chain);

  std::vector<uint8_t> model;
  EXPECT_EQ(chain.CheckSat(SatQuery(ctx), &model), SatResult::kSat);
  EXPECT_TRUE(Satisfies(ctx, SatQuery(ctx), model))
      << "the returned model must be a real one, not the tampered bytes";
  EXPECT_GE(chain.metrics().Get(Counter::kPersistRejects), 1u);
  // UNSAT entries are identity-trusted and unaffected by model bytes.
  EXPECT_EQ(chain.CheckSat(UnsatQuery(ctx), &model), SatResult::kUnsat);
}

TEST_F(PersistSeedTest, HarvestSkipsUnvalidatedEntries) {
  RunBlob blob = HarvestReferenceRun();
  ExprContext ctx;
  SolverChain chain(ctx);
  chain.set_preprocessing(false);
  SeedChain(blob, chain);
  // No queries ran: the SAT models are still unvalidated and must not be
  // re-persisted (a lie would otherwise survive laundering through a warm
  // process). UNSAT entries are trusted and harvest fine.
  RunBlob reharvest;
  HarvestChain(chain, reharvest);
  for (const PersistedEntry& entry : reharvest.entries) {
    EXPECT_EQ(entry.result, 1) << "only trusted (UNSAT) entries may re-harvest unqueried";
  }
}

TEST_F(PersistSeedTest, HarvestAppendsWithoutDuplicates) {
  RunBlob blob = HarvestReferenceRun();
  const size_t first = blob.entries.size();
  ExprContext ctx;
  SolverChain chain(ctx);
  chain.set_preprocessing(false);
  SeedChain(blob, chain);
  std::vector<uint8_t> model;
  EXPECT_EQ(chain.CheckSat(SatQuery(ctx), &model), SatResult::kSat);
  EXPECT_EQ(chain.CheckSat(UnsatQuery(ctx), &model), SatResult::kUnsat);
  // Everything the chain holds is already in the blob: harvesting back must
  // not grow it.
  HarvestChain(chain, blob);
  EXPECT_EQ(blob.entries.size(), first);
}

// ---- The store envelope ----

class CacheStoreTest : public ::testing::Test {
 protected:
  static CacheStore MakeStore() {
    CacheStore store;
    RunBlob& blob = store.PutRun(/*module_hash=*/111, /*options_fp=*/222);
    blob.run_signature = "exhausted paths=7 sig=abc";
    PersistedEntry entry;
    entry.set_hash = 14;
    entry.fingerprint = 77;
    entry.result = 1;
    blob.entries.push_back(entry);
    PersistedEntry sat;
    sat.set_hash = 3;
    sat.fingerprint = 33;
    sat.result = 0;
    sat.model = {5, 0};
    blob.entries.push_back(sat);
    return store;
  }
};

TEST_F(CacheStoreTest, ByteRoundTripIsExact) {
  CacheStore store = MakeStore();
  const std::vector<uint8_t> bytes = store.Serialize();
  CacheStore loaded;
  ASSERT_TRUE(loaded.Deserialize(bytes)) << loaded.load_error();
  EXPECT_EQ(loaded.runs(), 1u);
  EXPECT_EQ(loaded.TotalEntries(), 2u);
  // Serializing the round-tripped store reproduces the bytes exactly.
  // (Checked before FindRun, which bumps the blob's LRU tick.)
  EXPECT_EQ(loaded.Serialize(), bytes);
  RunBlob* blob = loaded.FindRun(111, 222);
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->run_signature, "exhausted paths=7 sig=abc");
  ASSERT_EQ(blob->entries.size(), 2u);
  EXPECT_EQ(blob->entries[0].fingerprint, 77u);
  EXPECT_EQ(blob->entries[1].model, (std::vector<uint8_t>{5, 0}));
}

TEST_F(CacheStoreTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/overify_persist_test.store";
  std::remove(path.c_str());
  CacheStore store = MakeStore();
  ASSERT_TRUE(store.Save(path));
  CacheStore loaded;
  ASSERT_TRUE(loaded.Load(path)) << loaded.load_error();
  EXPECT_EQ(loaded.Serialize(), store.Serialize());
  std::remove(path.c_str());
  CacheStore missing;
  EXPECT_FALSE(missing.Load(path));
  EXPECT_FALSE(missing.load_error().empty());
  EXPECT_EQ(missing.runs(), 0u);
}

TEST_F(CacheStoreTest, CorruptionIsRejectedWholesale) {
  const std::vector<uint8_t> good = MakeStore().Serialize();
  // Flip one byte at every region of the envelope: magic, version,
  // payload, checksum. Every mutation must reject and leave the store
  // empty (cold fallback) — never partially adopt.
  for (size_t pos : {size_t{0}, size_t{9}, good.size() / 2, good.size() - 1}) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0x01;
    CacheStore store;
    EXPECT_FALSE(store.Deserialize(bad)) << "flip at " << pos;
    EXPECT_FALSE(store.load_error().empty());
    EXPECT_EQ(store.runs(), 0u);
  }
  std::vector<uint8_t> truncated = good;
  truncated.resize(truncated.size() / 2);
  CacheStore store;
  EXPECT_FALSE(store.Deserialize(truncated));
  EXPECT_EQ(store.runs(), 0u);
}

TEST_F(CacheStoreTest, VersionBumpIsRejected) {
  std::vector<uint8_t> bytes = MakeStore().Serialize();
  // The version field is the u32 after the u64 magic. A store written by a
  // different format (or hash definition) generation must be refused even
  // though its checksum is internally consistent — so bump the version and
  // leave everything else intact.
  bytes[8] += 1;
  CacheStore store;
  EXPECT_FALSE(store.Deserialize(bytes));
  EXPECT_NE(store.load_error().find("version"), std::string::npos) << store.load_error();
  EXPECT_EQ(store.runs(), 0u);
}

TEST_F(CacheStoreTest, RunBlobLruEviction) {
  CacheStore store(/*max_runs=*/2);
  store.PutRun(1, 0);
  store.PutRun(2, 0);
  ASSERT_NE(store.FindRun(1, 0), nullptr);  // bump 1's tick: 2 is now LRU
  store.PutRun(3, 0);
  EXPECT_EQ(store.runs(), 2u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_NE(store.FindRun(1, 0), nullptr);
  EXPECT_EQ(store.FindRun(2, 0), nullptr);
  EXPECT_NE(store.FindRun(3, 0), nullptr);
}

// ---- Stores written before version 5 ----

// `blob` in the layout of store version `version` (1 to 4). Those versions
// followed each entry's result byte with its sorted per-constraint hash
// keys (a u64 count, then the keys); version 1 also followed every model
// with its learned clauses: a u64 count, then per clause a u64 literal
// count, (u16 symbol, u8 value) per literal and the activity's IEEE-754
// bits. Each entry here carries one key, its set hash, and in version 1
// one two-literal clause. The envelope and its checksum are the ones
// version 5 still uses.
std::vector<uint8_t> SerializeKeyedLayout(const RunBlob& blob, uint32_t version) {
  ByteWriter payload;
  payload.U64(1);
  payload.U64(blob.module_hash);
  payload.U64(blob.options_fp);
  payload.U64(blob.last_used);
  payload.Str(blob.run_signature);
  payload.U64(blob.entries.size());
  for (const PersistedEntry& entry : blob.entries) {
    payload.U64(entry.set_hash);
    payload.U64(entry.fingerprint);
    payload.U8(entry.result);
    payload.U64(1);
    payload.U64(entry.set_hash);
    payload.Blob(entry.model);
    if (version == 1) {
      payload.U64(1);
      payload.U64(2);
      payload.U16(0);
      payload.U8(0);
      payload.U16(1);
      payload.U8(0);
      payload.U64(UINT64_C(0x3ff0000000000000));  // activity 1.0
    }
  }
  const std::vector<uint8_t>& body = payload.bytes();
  PortableHasher checksum;
  size_t i = 0;
  for (; i + 8 <= body.size(); i += 8) {
    uint64_t word = 0;
    for (size_t b = 8; b-- > 0;) {
      word = (word << 8) | body[i + b];
    }
    checksum.Fold(word);
  }
  for (; i < body.size(); ++i) {
    checksum.Fold(body[i]);
  }
  checksum.Fold(static_cast<uint64_t>(body.size()));

  ByteWriter file;
  file.U64(kCacheStoreMagic);
  file.U32(version);
  file.U64(body.size());
  for (uint8_t b : body) {
    file.U8(b);
  }
  file.U64(checksum.hash());
  return file.Take();
}

// A store of an earlier `version`, holding the real harvest of a cold run,
// is refused whole with a "version" diagnostic, and a run handed the
// refused (empty) store is the cold run: it seeds nothing and returns the
// cold run's signature.
void ExpectOldStoreRejectedAndRunStaysCold(uint32_t version) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  Compiler compiler;
  CompileResult compiled = compiler.Compile(wc->source, OptLevel::kOverify, wc->name);
  ASSERT_TRUE(compiled.ok);
  SymexOptions options;
  auto run = [&](CacheStore* store, SymexResult* out) {
    SymexOptions opts = options;
    opts.cache_store = store;
    *out = Analyze(compiled, "umain", wc->default_sym_bytes, SymexLimits{}, opts);
    return difftest::SignatureOf(*out, *compiled.module, "umain", /*confirm_models=*/true);
  };

  // The cold run, harvested into a fresh store: a real blob for this run.
  CacheStore harvest;
  SymexResult cold_result;
  const difftest::RunSignature cold = run(&harvest, &cold_result);
  ASSERT_TRUE(cold.exhausted) << cold.ToString();
  ASSERT_EQ(harvest.runs(), 1u);
  ASSERT_GT(harvest.TotalEntries(), 0u);
  // The run's key, as Analyze forms it: the compile's annotations join the
  // options fingerprint.
  SymexOptions keyed = options;
  if (compiled.annotations != nullptr && compiled.annotations->size() > 0) {
    keyed.annotations = compiled.annotations.get();
  }
  RunBlob* blob = harvest.FindRun(ModuleContentHash(*compiled.module), OptionsFingerprint(keyed));
  ASSERT_NE(blob, nullptr);

  CacheStore old;
  EXPECT_FALSE(old.Deserialize(SerializeKeyedLayout(*blob, version)));
  EXPECT_NE(old.load_error().find("version"), std::string::npos) << old.load_error();
  EXPECT_EQ(old.runs(), 0u);

  SymexResult warm_result;
  const difftest::RunSignature warm = run(&old, &warm_result);
  EXPECT_EQ(warm, cold) << warm.ToString() << "\nvs cold\n" << cold.ToString();
  EXPECT_EQ(warm_result.metrics.Get(Counter::kPersistSeeded), 0u);
  EXPECT_EQ(warm_result.metrics.Get(Counter::kPersistHits), 0u);
}

TEST(StoreVersion, VersionOneStoreIsRejectedAndTheRunStaysCold) {
  ExpectOldStoreRejectedAndRunStaysCold(1);
}

// Version 4 is the last layout with per-entry keys.
TEST(StoreVersion, VersionFourStoreIsRejectedAndTheRunStaysCold) {
  ExpectOldStoreRejectedAndRunStaysCold(4);
}

// ---- Run-level keys ----

TEST(RunKeys, OptionsFingerprintSeparatesBehaviorNotWorkerCount) {
  SymexOptions base;
  const uint64_t fp = OptionsFingerprint(base);
  // Worker count and observability must not partition the cache…
  SymexOptions jobs = base;
  jobs.jobs = 8;
  EXPECT_EQ(OptionsFingerprint(jobs), fp);
  // …but anything changing solver behavior or verdicts must.
  SymexOptions no_learning = base;
  no_learning.solver_learning = false;
  EXPECT_NE(OptionsFingerprint(no_learning), fp);
  SymexOptions sliced = base;
  sliced.slice_checks = true;
  EXPECT_NE(OptionsFingerprint(sliced), fp);
}

// Golden value: the options fingerprint keys every run blob in an existing
// store. If this fails, stores written by earlier builds stop resolving —
// restore the value or bump kCacheStoreVersion in the same change.
TEST(RunKeys, DefaultOptionsFingerprintGolden) {
  EXPECT_EQ(OptionsFingerprint(SymexOptions{}), UINT64_C(0x4333631ac1600ae3));
}

TEST(RunKeys, ModuleContentHashTracksContent) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  Compiler compiler;
  CompileResult a = compiler.Compile(wc->source, OptLevel::kOverify, wc->name);
  CompileResult b = compiler.Compile(wc->source, OptLevel::kOverify, wc->name);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(ModuleContentHash(*a.module), ModuleContentHash(*b.module));
  CompileResult o3 = compiler.Compile(wc->source, OptLevel::kO3, wc->name);
  ASSERT_TRUE(o3.ok);
  EXPECT_NE(ModuleContentHash(*a.module), ModuleContentHash(*o3.module));
}

// Regression: compiling the same source must produce the same IR — and so
// the same run-memo key — regardless of heap state. Loop passes once
// iterated Loop::blocks() in pointer order, so a workload recompiled after
// other compiles had perturbed the allocator could hoist/clone in a
// different order and silently miss the daemon's run cache. tac_lite,
// rev_cmp, and count_mode were the observed flippers; compile the whole
// suite between the two measurements to maximize heap churn.
TEST(RunKeys, ModuleContentHashIsCompileOrderInvariant) {
  const char* flippers[] = {"tac_lite", "rev_cmp", "count_mode"};
  std::map<std::string, uint64_t> first;
  for (const char* name : flippers) {
    const Workload* w = FindWorkload(name);
    ASSERT_NE(w, nullptr) << name;
    Compiler compiler;
    CompileResult c = compiler.Compile(w->source, OptLevel::kOverify, w->name);
    ASSERT_TRUE(c.ok) << name;
    first[name] = ModuleContentHash(*c.module);
  }
  for (const Workload& w : CoreutilsSuite()) {
    Compiler compiler;
    CompileResult c = compiler.Compile(w.source, OptLevel::kOverify, w.name);
    ASSERT_TRUE(c.ok) << w.name;
  }
  for (const char* name : flippers) {
    const Workload* w = FindWorkload(name);
    Compiler compiler;
    CompileResult c = compiler.Compile(w->source, OptLevel::kOverify, w->name);
    ASSERT_TRUE(c.ok) << name;
    EXPECT_EQ(ModuleContentHash(*c.module), first[name])
        << name << " compiled to different IR after unrelated compiles";
  }
}

// ---- The headline property: warm runs are verdict-identical to cold ----

TEST(WarmCold, WarmRunsAreBitIdenticalToCold) {
  const Workload* wc = FindWorkload("wc");
  ASSERT_NE(wc, nullptr);
  difftest::DiffReport report = difftest::RunWarmColdDifferential(*wc);
  EXPECT_TRUE(report.ok) << report.diff;
}

}  // namespace
}  // namespace overify
