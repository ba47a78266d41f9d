#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                    [--first-seed 1] [--out FILE]

Runs every workload --runs times per set, each run with its own seed, and
reports per set and metric the median, the quartiles (statistics.quantiles
with n=4) and the spread (Q3 - Q1) / median, next to the metric's bound
from BENCHMARK.json.  With two sets it also reports how far the second
median moved from the first, as a share of the first.  Run from the
repository root; prints a markdown report (and writes it to --out).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(lines[-1])["metrics"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    lines = ["| workload | metric | bound | set | median | Q1 | Q3 | spread | drift vs set 1 |",
             "|---|---|---|---|---|---|---|---|---|"]
    ok = True
    for w in workloads:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(one_run(w, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        for name in bounds:
            first = None
            for k, runs in enumerate(sets, 1):
                s = summary([r[name]["value"] for r in runs])
                drift = ""
                if first is None:
                    first = s["median"]
                else:
                    worse = s["median"] - first if better[name] == "lower" else first - s["median"]
                    drift = "%+.3f" % (worse / first)
                    ok = ok and (worse / first) <= bounds[name]
                if name != "setup_s":
                    ok = ok and s["spread"] <= bounds[name]
                lines.append("| %s | %s | %.2f | %d | %.6g | %.6g | %.6g | %.3f | %s |"
                             % (w, name, bounds[name], k, s["median"], s["q1"], s["q3"],
                                s["spread"], drift))
        print("\n".join(lines[-len(bounds) * len(sets):]), flush=True)
    report = "\n".join(lines) + "\n\nall within bounds: %s\n" % ("yes" if ok else "NO")
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)


if __name__ == "__main__":
    main()
