#!/usr/bin/env bash
# Runs the engine benchmarks and emits BENCH_symex.json — the perf
# trajectory snapshot tracked across PRs (wall seconds, solver queries,
# core candidates, fast-path counters, thread scaling).
#
# Usage: bench/run_benches.sh [--check] [build_dir] [output_json]
#
# --check: after writing the snapshot, print a per-benchmark diff table
# against the committed BENCH_symex.json and fail (exit 1) on a wall-time
# slowdown beyond BENCH_CHECK_THRESHOLD (default 1.5x), on any change in
# the hardware-independent `paths` / core-search counters (`core_candidates`,
# `core_conflicts`, `core_learned`, `core_learned_hits`, `core_backjumps`) — the
# CI regression gate. The thread_scaling section is gated the same way, but
# only when this host has at least as many cores as the one that produced
# the committed snapshot (fewer cores means the numbers measure overhead,
# not scaling — the gate prints a loud warning and skips instead of
# failing, so the bench gate is not host-dependent). Wall times compare
# across hosts only approximately; if the gate host class differs a lot
# from the one that produced the committed snapshot, widen the threshold
# (env) or regenerate the snapshot on the gate's host class. The counter
# checks are exact everywhere (pure functions of engine behavior, not
# hardware).
set -euo pipefail

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
COMMITTED="$REPO_ROOT/BENCH_symex.json"
if [[ "$CHECK" == "1" ]]; then
  # In check mode the fresh snapshot must not land on the committed
  # baseline: the diff would compare the file to itself (trivially
  # passing) after clobbering it.
  OUT="${2:-$(mktemp --suffix=.json)}"
  if [[ "$(readlink -f "$OUT" 2>/dev/null || echo "$OUT")" == "$COMMITTED" ]]; then
    echo "error: --check output would overwrite the committed baseline $COMMITTED" >&2
    exit 1
  fi
else
  OUT="${2:-BENCH_symex.json}"
fi

if [[ ! -x "$BUILD_DIR/bench_micro" ]]; then
  echo "error: $BUILD_DIR/bench_micro not found; build with:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

MICRO_JSON="$(mktemp)"
trap 'rm -f "$MICRO_JSON"' EXIT

"$BUILD_DIR/bench_micro" \
  --benchmark_filter='BM_ExprInterning|BM_SolverSingleByteQuery|BM_SolverMultiByteRelation|BM_FilterIndependent|BM_ExploreWcAtOverify|BM_ExploreWcAtO3|BM_ExploreCksumWideAtOverify|BM_ExploreSumBlockAtOverify|BM_ExploreCksumWideSliceAtOverify|BM_ExploreSumBlockSliceAtOverify|BM_ExploreWcWarmPersist|BM_ParallelExploreWc' \
  --benchmark_format=json --benchmark_min_time=0.5 >"$MICRO_JSON"

python3 - "$MICRO_JSON" "$OUT" <<'PY'
import json
import os
import re
import sys

micro_path, out_path = sys.argv[1], sys.argv[2]
with open(micro_path) as f:
    micro = json.load(f)

benchmarks = {}
scaling = {}
for b in micro.get("benchmarks", []):
    # google-benchmark reports real_time in the declared time_unit (ns here).
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
    entry = {"wall_seconds_per_iter": b["real_time"] * scale,
             "iterations": b.get("iterations", 0)}
    for key in ("paths", "solver_queries", "core_candidates", "core_conflicts",
                "core_learned", "core_learned_hits", "core_backjumps", "eval_memo_hits",
                "interval_memo_hits", "independence_drops", "cache_hits",
                "reuse_hits", "cex_evictions", "presolve_shortcuts",
                "preprocess_bindings", "preprocess_tautologies",
                "workers", "steals", "steal_batches",
                "slice_checks_found", "slices_built", "slice_fallbacks",
                "slice_cone_pct_max", "persist_seeded", "persist_hits",
                "persist_validations", "persist_rejects", "core_queries"):
        if key in b:
            entry[key] = int(b[key])
    # Latency percentiles and hit rates from the metrics registry
    # (docs/observability.md). Informational: timing-derived, so the
    # --check gate below never diffs them.
    for key in ("solver_p50_ns", "solver_p95_ns", "cache_hit_rate",
                "slice_cone_pct_mean", "persist_rate"):
        if key in b:
            entry[key] = round(float(b[key]), 6)
    m = re.match(r"BM_ParallelExploreWc/(\d+)", b["name"])
    if m:
        scaling[m.group(1)] = entry
    else:
        benchmarks[b["name"]] = entry

thread_scaling = {"workload": "wc @ -O3, 6 symbolic bytes (core-search benchmark)",
                  "host_cores": os.cpu_count(),
                  "workers": scaling}
base = scaling.get("1", {}).get("wall_seconds_per_iter")
if base:
    for workers, entry in scaling.items():
        entry["speedup_vs_1_worker"] = round(base / entry["wall_seconds_per_iter"], 3)

snapshot = {
    "schema": "overify-bench-symex/v2",
    "host_context": micro.get("context", {}).get("host_name", "unknown"),
    "benchmarks": benchmarks,
    "thread_scaling": thread_scaling,
    # Pre-refactor engine (ordered-map interner, std::set support sets,
    # map-based memos/cex cache), measured at PR 1 on the reference box.
    # Kept as the fixed reference point for the >=2x acceptance bar.
    "baseline_pr1": {
        "BM_ExprInterning": {"wall_seconds_per_iter": 100.4e-6},
        "BM_SolverSingleByteQuery": {"wall_seconds_per_iter": 274.7e-9},
        "BM_SolverMultiByteRelation": {"wall_seconds_per_iter": 54.0e-6},
    },
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(benchmarks)} benchmarks, "
      f"{len(scaling)} thread-scaling points)")
PY

if [[ "$CHECK" == "1" ]]; then
  python3 - "$OUT" "$COMMITTED" <<'PY'
import json
import os
import sys

FRESH, COMMITTED = sys.argv[1], sys.argv[2]
THRESHOLD = float(os.environ.get("BENCH_CHECK_THRESHOLD", "1.5"))

with open(FRESH) as f:
    fresh_snapshot = json.load(f)
with open(COMMITTED) as f:
    committed_snapshot = json.load(f)
fresh = fresh_snapshot["benchmarks"]
committed = committed_snapshot["benchmarks"]

failed = []
print(f"{'benchmark':<40} {'committed':>12} {'fresh':>12} {'ratio':>7}")
for name in sorted(committed):
    if name not in fresh:
        print(f"{name:<40} {'(missing from fresh run)':>33}")
        failed.append(name)
        continue
    old = committed[name]["wall_seconds_per_iter"]
    new = fresh[name]["wall_seconds_per_iter"]
    ratio = new / old
    flag = " FAIL" if ratio > THRESHOLD else ""
    # The path count and the learning core's search counters (candidates,
    # conflicts, learned clauses, clause hits, backjumps) are deterministic and
    # hardware-independent on these single-threaded benches: any drift is an
    # engine behavior change, flagged at any magnitude.
    drift = []
    for counter in ("paths", "core_candidates", "core_conflicts",
                    "core_learned", "core_learned_hits", "core_backjumps",
                    "slice_checks_found", "slices_built", "slice_fallbacks",
                    "slice_cone_pct_max"):
        if committed[name].get(counter) != fresh[name].get(counter):
            drift.append(f"{counter} {committed[name].get(counter)} -> "
                         f"{fresh[name].get(counter)}")
    if drift:
        flag = f" FAIL ({'; '.join(drift)})"
    print(f"{name:<40} {old:>12.3e} {new:>12.3e} {ratio:>6.2f}x{flag}")
    if flag:
        failed.append(name)

# Slicing effectiveness invariant (docs/slicing.md): verifying per-check
# slices must never cost more solver queries than the whole program on the
# tracked wide workloads — the win the slicing tentpole exists for.
for whole_name in ("BM_ExploreCksumWideAtOverify", "BM_ExploreSumBlockAtOverify"):
    slice_name = whole_name.replace("AtOverify", "SliceAtOverify")
    whole_entry, slice_entry = fresh.get(whole_name), fresh.get(slice_name)
    if whole_entry is None or slice_entry is None:
        continue
    whole_q, slice_q = whole_entry.get("solver_queries"), slice_entry.get("solver_queries")
    if whole_q is not None and slice_q is not None and slice_q > whole_q:
        print(f"{slice_name}: solver_queries = {slice_q} exceeds whole-program "
              f"{whole_name} = {whole_q}")
        failed.append(slice_name)

# Warm persisted-cache effectiveness (docs/daemon.md): a warm run must
# answer at least BENCH_PERSIST_RATE_MIN of its would-be core searches from
# the persisted store (persist_rate = persist_hits / (persist_hits +
# core_queries)). This is the acceptance bar of the cross-run cache: below
# it, persistence exists but does not pay.
PERSIST_RATE_MIN = float(os.environ.get("BENCH_PERSIST_RATE_MIN", "0.5"))
warm = fresh.get("BM_ExploreWcWarmPersist")
if warm is None:
    print("BM_ExploreWcWarmPersist: missing from fresh run")
    failed.append("BM_ExploreWcWarmPersist")
else:
    rate = warm.get("persist_rate", 0.0)
    print(f"BM_ExploreWcWarmPersist: warm persist_rate = {rate:.3f} "
          f"(persist_hits = {warm.get('persist_hits', 0)}, "
          f"core_queries = {warm.get('core_queries', 0)}; gate >= {PERSIST_RATE_MIN})")
    if rate < PERSIST_RATE_MIN:
        failed.append("BM_ExploreWcWarmPersist")
    if warm.get("persist_rejects", 0) != 0:
        print(f"BM_ExploreWcWarmPersist: persist_rejects = "
              f"{warm['persist_rejects']} (a clean same-binary store must "
              f"validate fully)")
        failed.append("BM_ExploreWcWarmPersist")

# Thread-scaling gate: wall times per worker count. Scaling numbers are
# only comparable when the gate host has at least as many cores as the host
# that produced the committed snapshot (a 1-core container "scales" by pure
# overhead) — skip loudly, don't fail, when it does not.
fresh_ts = fresh_snapshot.get("thread_scaling", {})
committed_ts = committed_snapshot.get("thread_scaling", {})
fresh_cores = fresh_ts.get("host_cores") or 0
committed_cores = committed_ts.get("host_cores") or 0
if committed_cores < 2:
    print(f"\nWARNING: skipping the thread-scaling gate: the committed "
          f"snapshot was measured on {committed_cores} core(s), where "
          f"multi-worker times measure scheduler overhead, not scaling — "
          f"there is no meaningful baseline to gate against. Regenerate the "
          f"snapshot on a multi-core host to arm the gate.")
elif fresh_cores < committed_cores:
    print(f"\nWARNING: skipping the thread-scaling gate: this host has "
          f"{fresh_cores} core(s) but the committed snapshot was measured on "
          f"{committed_cores}; scaling numbers are not comparable. Regenerate "
          f"the snapshot on a host with >= {committed_cores} cores to re-arm "
          f"the gate.")
else:
    for workers in sorted(committed_ts.get("workers", {}), key=int):
        name = f"thread_scaling/{workers}"
        if workers not in fresh_ts.get("workers", {}):
            print(f"{name:<40} {'(missing from fresh run)':>33}")
            failed.append(name)
            continue
        old = committed_ts["workers"][workers]["wall_seconds_per_iter"]
        new = fresh_ts["workers"][workers]["wall_seconds_per_iter"]
        ratio = new / old
        flag = " FAIL" if ratio > THRESHOLD else ""
        print(f"{name:<40} {old:>12.3e} {new:>12.3e} {ratio:>6.2f}x{flag}")
        if flag:
            failed.append(name)

if failed:
    print(f"\nregression gate FAILED (wall > {THRESHOLD}x, paths/core-search "
          f"counters drifted, slice-mode queries exceeded whole-program, "
          f"or warm persist_rate below {PERSIST_RATE_MIN}): "
          f"{', '.join(failed)}")
    sys.exit(1)
print(f"\nregression gate passed (threshold {THRESHOLD}x; paths and "
      f"core-search counters exact; warm persist_rate >= {PERSIST_RATE_MIN})")
PY
fi
