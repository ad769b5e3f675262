#!/usr/bin/env python3
"""End-to-end benchmark of the -OVERIFY toolkit: MiniC source to verdict.

Builds e2ebench/e2e_bench (with the library) under .bench_build/, then:

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of workload W. The last line of stdout is
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
  run.py --all [--runs N] [--seconds S] [--out FILE]
      Every workload N times (seeds 1..N) plus one traced run each; prints
      every metric with its unit per workload, the paper's summary numbers,
      writes the snapshot (default .bench_build/e2e/snapshot.json) and fails
      when any run failed a check.
  run.py --compare A.json B.json
      Each end-to-end median of B against A within the bounds of
      BENCHMARK.json, and every deterministic per-layer counter exactly
      equal; fails on any disagreement.
  run.py --regen-expected
      Rewrites e2ebench/expected.tsv, refusing when -O0, -O3, -OVERIFY and
      sliced runs disagree.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
WORK_DIR = os.path.join(".bench_build", "e2e")
EXPECTED = os.path.join("e2ebench", "expected.tsv")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then brings e2e_bench up to date; False on failure."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "e2ebench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", "4"]
    return subprocess.call(command, stdout=sys.stderr, env=env) == 0


def run_bench(args):
    """Runs e2e_bench in its own process group; the parsed last stdout line,
    or None. The whole group is killed on a timeout or an interrupt."""
    binary = os.path.join(BUILD_DIR, "e2e_bench")
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("e2e_bench did not finish")
        return None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("e2e_bench exited with %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def check_trace(path):
    """The trace parses, and every span but the item roots has a parent."""
    try:
        with open(path) as f:
            events = json.load(f)
    except (OSError, ValueError) as e:
        return "trace %s does not parse: %s" % (path, e)
    ids = {e["args"]["id"] for e in events}
    roots = 0
    for e in events:
        parent = e["args"]["parent"]
        if parent == -1:
            roots += 1
        elif parent not in ids:
            return "span %s has no parent" % e["name"]
    return "" if roots > 0 else "trace has no spans"


def one_run(workload, seed, seconds, trace):
    """One run of a workload: the bench's full JSON, with trace checks folded
    into its verdict; None when the bench did not produce a result."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--expected", EXPECTED]
    trace_path = os.path.join(WORK_DIR, "trace-%s-%d.json" % (workload, seed))
    if trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        args += ["--trace-file", trace_path]
    result = run_bench(args)
    if result is not None and trace:
        problem = check_trace(trace_path)
        if problem:
            log("FAILED " + problem)
            result["failed"] += 1
            result["correct"] = False
            result["failures"].append(problem)
    return result


def complete_layers(result, bench):
    """A traced run reports the layers its workload uses; every other
    per-layer metric reads 0. A name BENCHMARK.json does not list is an
    error."""
    names = [m["name"] for m in bench["per_layer"]]
    extra = sorted(set(result["layers"]) - set(names))
    if extra:
        raise SystemExit("per-layer metrics missing from BENCHMARK.json: %s" % extra)
    result["layers"] = {n: result["layers"].get(n, 0) for n in names}


def driver_line(result, metrics, key):
    """The one-line result: every metric of `metrics`, from result[key]."""
    values = result[key]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise SystemExit("metrics missing from the result: %s" % missing)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(bench, runs, seconds, out_path):
    snapshot = {
        "host": {"machine": platform.machine(), "processor": platform.processor(),
                 "cpus": os.cpu_count()},
        "runs": runs, "seconds": seconds, "workloads": {},
    }
    failed = 0
    for w in bench["workloads"]:
        name = w["name"]
        entry = {"runs": [], "failures": []}
        for seed in range(1, runs + 1):
            log("== %s seed %d" % (name, seed))
            result = one_run(name, seed, seconds, False)
            if result is None:
                raise SystemExit("%s seed %d produced no result" % (name, seed))
            failed += result["failed"]
            entry["failures"] += result["failures"]
            entry["runs"].append(dict(result["e2e"], seed=seed, rounds=result["rounds"],
                                      attempted=result["attempted"], failed=result["failed"]))
            if seed == 1:
                entry["items"] = result["items"]
                entry["tail_percentile"] = result["tail_percentile"]
        log("== %s traced" % name)
        traced = one_run(name, 1, seconds, True)
        if traced is None:
            raise SystemExit("%s traced run produced no result" % name)
        complete_layers(traced, bench)
        failed += traced["failed"]
        entry["failures"] += traced["failures"]
        entry["layers"] = traced["layers"]
        entry["stats"] = {}
        for m in bench["end_to_end"]:
            q1, median, q3 = quartiles([r[m["name"]] for r in entry["runs"]])
            entry["stats"][m["name"]] = {"q1": q1, "median": median, "q3": q3,
                                         "spread": (q3 - q1) / median if median else 0}
        snapshot["workloads"][name] = entry
    snapshot["summary"] = paper_summary(snapshot)
    print_snapshot(bench, snapshot)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % out_path)
    if failed:
        raise SystemExit("%d check(s) failed" % failed)


def paper_summary(snapshot):
    """Figure 4's summary numbers from the two suites' fastest repetitions;
    information only, not metrics."""
    w = snapshot["workloads"]
    if "suite-overify" not in w or "suite-o3" not in w:
        return {}
    o3 = {i["item"].rsplit(" ", 1)[0]: i["best_ms"] for i in w["suite-o3"]["items"]}
    ov = {i["item"].rsplit(" ", 1)[0]: i["best_ms"] for i in w["suite-overify"]["items"]}
    total_o3 = w["suite-o3"]["stats"]["total_s"]["median"]
    total_ov = w["suite-overify"]["stats"]["total_s"]["median"]
    wins = {k: o3[k] / ov[k] for k in ov if k in o3 and ov[k] > 0}
    best = max(wins, key=wins.get)
    return {
        "reduction_vs_o3_pct": (1 - total_ov / total_o3) * 100,
        "largest_win": best, "largest_win_factor": wins[best],
        "overify_losses": sorted(k for k in wins if wins[k] < 1),
    }


def print_snapshot(bench, snapshot):
    for name, entry in snapshot["workloads"].items():
        print("== %s (%d runs, %s rounds; tail = p%d)" % (
            name, len(entry["runs"]), "/".join(str(r["rounds"]) for r in entry["runs"]),
            entry["tail_percentile"]))
        for m in bench["end_to_end"]:
            st = entry["stats"][m["name"]]
            print("  %-14s %14.6g %-6s  q1 %.6g  q3 %.6g  spread %.1f%% (bound %.0f%%)" % (
                m["name"], st["median"], m["unit"], st["q1"], st["q3"],
                100 * st["spread"], 100 * m["bound"]))
        for m in bench["per_layer"]:
            print("  %-34s %14.6g %s" % (m["name"], entry["layers"][m["name"]], m["unit"]))
        for failure in entry["failures"]:
            print("  FAILED " + failure)
    s = snapshot["summary"]
    if s:
        print("== paper summary (information, not metrics)")
        print("  -OVERIFY vs -O3 total time: %.1f%% reduction (paper: 58%%)"
              % s["reduction_vs_o3_pct"])
        print("  largest win: %s, %.1fx (paper: 95x)"
              % (s["largest_win"], s["largest_win_factor"]))
        print("  -OVERIFY losses: %d items: %s"
              % (len(s["overify_losses"]), " ".join(s["overify_losses"])))


def gated_counters(bench):
    """Per-layer metrics that must repeat exactly: every count except the
    daemon's, which depend on request order."""
    return [m["name"] for m in bench["per_layer"]
            if m["unit"] == "count" and not m["name"].startswith("daemon.")]


def compare(bench, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    problems = 0
    for w in bench["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            print("%-14s MISSING from one snapshot" % name)
            problems += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        cells = []
        for m in bench["end_to_end"]:
            va, vb = wa["stats"][m["name"]]["median"], wb["stats"][m["name"]]["median"]
            change = (vb - va) / va if va else 0.0
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            problems += worse
            cells.append("%s %+.1f%%%s" % (m["name"], 100 * change, " WORSE" if worse else ""))
        diffs = [c for c in gated_counters(bench) if wa["layers"][c] != wb["layers"][c]]
        problems += len(diffs)
        print("%-14s %s" % (name, "  ".join(cells)))
        print("%-14s counters: %s" % ("", "all %d equal" % len(gated_counters(bench))
                                      if not diffs else "DIFFER: " + ", ".join(
                                          "%s %g vs %g" % (c, wa["layers"][c], wb["layers"][c])
                                          for c in diffs)))
    if problems:
        raise SystemExit("%d disagreement(s)" % problems)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(WORK_DIR, "snapshot.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.compare:
        compare(bench, *args.compare)
        return
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not build():
        raise SystemExit("build failed")
    if args.regen_expected:
        raise SystemExit(subprocess.call([os.path.join(BUILD_DIR, "e2e_bench"),
                                          "--regen-expected", EXPECTED]))
    if args.all:
        run_all(bench, args.runs, seconds, args.out)
        return
    if not args.workload:
        parser.error("--workload, --all, --compare or --regen-expected is required")
    result = one_run(args.workload, args.seed, seconds, args.trace == 1)
    if result is None:
        raise SystemExit(1)
    if args.trace:
        complete_layers(result, bench)
        line = driver_line(result, bench["per_layer"], "layers")
    else:
        line = driver_line(result, bench["end_to_end"], "e2e")
    print(json.dumps(line))


if __name__ == "__main__":
    os.chdir(ROOT)
    main()
