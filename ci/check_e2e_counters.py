#!/usr/bin/env python3
"""Counter gate for the end-to-end ledger (ci job: release).

Usage: ci/check_e2e_counters.py [workload ...]

Runs one short traced pass of each workload (default: suite-overify,
suite-o3, explore-o0) through `e2ebench/run.py --seed 1 --seconds 2
--trace 1` and compares every per-layer metric whose BENCHMARK.json unit is
`count` or `bytes` against the `layers` of the committed snapshot,
e2ebench/baseline.json. The daemon's counters depend on request order and
are skipped; a key missing on either side reads as 0. These counters are
deterministic work (instructions, forks, queries, candidates, conflicts,
learned clauses), so any difference means the change altered what the
toolkit does, not just how fast it does it. Exits non-zero on a failed run,
a failed correctness check, or any difference.
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


def traced_layers(workload):
    """The per-layer metrics of one traced seed-1 run, or None on failure."""
    command = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: run.py exited with %d" % (workload, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("%s: %d check(s) failed" % (workload, result["failed"]))
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "e2ebench", "baseline.json")) as f:
        baseline = json.load(f)
    names = gated_names(bench)
    problems = 0
    for workload in sys.argv[1:] or DEFAULT_WORKLOADS:
        got = traced_layers(workload)
        if got is None:
            problems += 1
            continue
        want = baseline["workloads"][workload]["layers"]
        diffs = [n for n in names if got.get(n, 0) != want.get(n, 0)]
        problems += len(diffs)
        if diffs:
            for n in diffs:
                print("%s: %s = %g, baseline %g" % (workload, n, got.get(n, 0), want.get(n, 0)))
        else:
            print("%s: all %d counters equal the baseline" % (workload, len(names)))
    if problems:
        sys.exit("%d counter disagreement(s) with e2ebench/baseline.json" % problems)


if __name__ == "__main__":
    main()
