#!/usr/bin/env python3
"""Counter gate for the end-to-end ledger (ci job: release).

Usage: ci/check_e2e_counters.py [--allocator-invariance] [workload ...]

Runs one short traced pass of each workload (default: suite-overify,
suite-o3, explore-o0) through `e2ebench/run.py --seed 1 --seconds 2
--trace 1` and compares every per-layer metric whose BENCHMARK.json unit is
`count` or `bytes` against the `layers` of the committed snapshot,
e2ebench/baseline.json. The daemon's counters depend on request order and
are skipped; a key missing on either side reads as 0. These counters are
deterministic work (instructions, forks, queries, candidates, conflicts,
learned unit nogoods), so any difference means the change altered what the
toolkit does, not just how fast it does it. Exits non-zero on a failed run,
a failed correctness check, or any difference.

--allocator-invariance instead runs each workload twice, once under the
default malloc and once with glibc's per-thread cache off
(GLIBC_TUNABLES=glibc.malloc.tcache_count=0), and requires the same gated
counters to be equal between the two fresh runs. Work that depends on which
addresses malloc hands back (a pass keying anything on a freed object's
address, say) shows up here as a difference, and the baseline is not
involved.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_WORKLOADS = ["suite-overify", "suite-o3", "explore-o0"]


def gated_names(bench):
    return [m["name"] for m in bench["per_layer"]
            if m["unit"] in ("count", "bytes") and not m["name"].startswith("daemon.")]


def traced_layers(workload, env=None):
    """The per-layer metrics of one traced seed-1 run, or None on failure."""
    command = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, env=env)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: run.py exited with %d" % (workload, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("%s: %d check(s) failed" % (workload, result["failed"]))
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(workload, names, got, want, label):
    """Prints the disagreements of `got` with `want`; returns their count."""
    diffs = [n for n in names if got.get(n, 0) != want.get(n, 0)]
    for n in diffs:
        print("%s: %s = %g, %s %g" % (workload, n, got.get(n, 0), label, want.get(n, 0)))
    if not diffs:
        print("%s: all %d counters equal the %s" % (workload, len(names), label))
    return len(diffs)


def main():
    args = sys.argv[1:]
    allocator_invariance = "--allocator-invariance" in args
    workloads = [a for a in args if a != "--allocator-invariance"] or DEFAULT_WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "e2ebench", "baseline.json")) as f:
        baseline = json.load(f)
    names = gated_names(bench)
    no_tcache = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.tcache_count=0")
    problems = 0
    for workload in workloads:
        got = traced_layers(workload)
        if allocator_invariance:
            want = traced_layers(workload, no_tcache)
            label = "run without tcache"
        else:
            want = baseline["workloads"][workload]["layers"]
            label = "baseline"
        if got is None or want is None:
            problems += 1
            continue
        problems += compare(workload, names, got, want, label)
    if problems:
        against = "the run without tcache" if allocator_invariance else "e2ebench/baseline.json"
        sys.exit("%d counter disagreement(s) with %s" % (problems, against))


if __name__ == "__main__":
    main()
