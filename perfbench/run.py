#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   (every workload, one after another)
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds perfbench/ (Release, its own copy of
the library from src/) into $CARGO_TARGET_DIR or .bench_build/, turns the
workload's frozen input templates into seeded inputs, runs the workload in
its own process with OpenMP pinned to one thread, and relays its output.
The last line of standard output is the result JSON.  Exit status is 0
only when every correctness check passed.
"""

import argparse
import copy
import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
INPUTS = os.path.join(BENCH_DIR, "inputs")
WORKLOADS = ("certify", "reproduce", "cells", "service")
RUN_TIMEOUT_S = 170
EXECUTOR_THREADS = 2
SERVICE_WORKERS = 2


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build fnebench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fne.hpp")):
        fail("library sources (src/) not found next to perfbench/; run from the repository root")
    out = os.path.join(build_dir(), "fnebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "fnebench")


def fingerprint(binary_header):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                   capture_output=True, text=True).stdout.strip()
            if dirty:
                commit += "-dirty"
    if commit is None:
        # A checkout without git history: identify the code by its sources.
        h = hashlib.sha256()
        for base in ("src", "perfbench"):
            for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, base))):
                dirnames.sort()
                for name in sorted(files):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
        commit = "src-sha256:" + h.hexdigest()[:16]
    fields = dict(kv.split("=", 1) for kv in shlex.split(binary_header)[1:] if "=" in kv)
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "compiler": fields.get("compiler", "?"),
        "build_type": fields.get("build_type", "?"),
        "commit": commit,
    }


def seeded(scenarios, rng):
    """Shift every scenario seed by a draw from the workload seed, except
    where the template pins it ("fixed_seed")."""
    for s in scenarios:
        shift = rng.randrange(1, 1 << 31)
        if not s.pop("fixed_seed", False):
            s["seed"] = int(s.get("seed", 42)) + shift


def generate(workload, seed, run_dir):
    """Writes the seeded inputs for one run and returns the manifest path."""
    path = os.path.join(INPUTS, workload + ".json")
    if not os.path.isfile(path):
        fail("unknown workload '%s' (known: %s)" % (workload, ", ".join(WORKLOADS)), 2)
    with open(path) as f:
        spec = json.load(f)
    rng = random.Random(seed)
    templates = spec["requests"]
    pool = []
    for k in range(int(spec["pool_size"])):
        req = copy.deepcopy(templates[k % len(templates)])
        req["name"] = "%s-%d" % (req["name"], k)
        seeded(req["scenarios"], rng)
        pool.append(req)
    if spec["campaigns"] == "pool":
        # The batch side of the service workload: the request pool as one
        # campaign.
        merged = {"name": workload + "-pool", "scenarios": []}
        for req in pool:
            for s in req["scenarios"]:
                s = copy.deepcopy(s)
                s["name"] = req["name"] + "/" + s["name"]
                merged["scenarios"].append(s)
        campaigns = [merged]
    else:
        campaigns = copy.deepcopy(spec["campaigns"])
        for c in campaigns:
            seeded(c["scenarios"], rng)

    os.makedirs(run_dir)
    manifest = {
        "workload": workload,
        "seed": seed,
        "threads": EXECUTOR_THREADS,
        "service_workers": SERVICE_WORKERS,
        "rate_rps": spec["rate_rps"],
        "campaigns": [],
        "requests": [],
        "store_dir": os.path.join(run_dir, "store"),
        "trace_out": os.path.join(build_dir(), "traces", "%s-seed%d.jsonl" % (workload, seed)),
    }
    for kind, docs in (("campaigns", campaigns), ("requests", pool)):
        for i, doc in enumerate(docs):
            p = os.path.join(run_dir, "%s-%03d.json" % (kind[:-1], i))
            with open(p, "w") as f:
                json.dump(doc, f, indent=1)
            manifest[kind].append(p)
    os.makedirs(os.path.dirname(manifest["trace_out"]), exist_ok=True)
    mpath = os.path.join(run_dir, "manifest.json")
    with open(mpath, "w") as f:
        json.dump(manifest, f, indent=1)
    return mpath


def run(binary, workload, seed, seconds, trace, corrupt=False):
    """Runs one workload; returns (exit code, stdout lines).  With corrupt,
    one payload is corrupted on purpose and the expected failure report on
    stderr is not relayed."""
    run_dir = os.path.join(build_dir(), "runs", "%s-seed%d-pid%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    manifest = generate(workload, seed, run_dir)
    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_DYNAMIC="false")
    cmd = [binary, "--manifest=" + manifest, "--seconds=%g" % seconds, "--trace=%d" % trace]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload '%s' did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not corrupt:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(binary):
    """Tiny-size checks: every declared metric is emitted with its unit,
    and a corrupted payload is counted as a failure and fails the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run(binary, "tiny", 1, 1, trace)
        res = result_of(lines)
        if code != 0 or res is None or not res.get("correct"):
            problems.append("tiny run (trace %d) failed: exit %d" % (trace, code))
            continue
        got = res["metrics"]
        for m in declared[key]:
            if m["name"] not in got:
                problems.append("trace %d: metric %s missing" % (trace, m["name"]))
            elif got[m["name"]]["unit"] != m["unit"]:
                problems.append("trace %d: metric %s has unit %s, declared %s"
                                % (trace, m["name"], got[m["name"]]["unit"], m["unit"]))
        extra = set(got) - {m["name"] for m in declared[key]}
        if extra:
            problems.append("trace %d: undeclared metrics %s" % (trace, sorted(extra)))
    code, lines = run(binary, "tiny", 1, 1, 0, corrupt=True)
    res = result_of(lines)
    if code == 0 or res is None or res.get("correct") or res.get("failed", 0) < 1:
        problems.append("a corrupted payload was not counted as a failure (exit %d)" % code)
    for p in problems:
        print("self-test: " + p)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def cpu_ticks():
    """(all, stolen) CPU jiffies since boot from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return sum(fields), fields[7]
    except (OSError, ValueError, IndexError):
        return None


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload, relays its output with the fingerprint and the
    host's steal share, records the result; returns the exit code."""
    start = time.time()
    before = cpu_ticks()
    code, lines = run(binary, workload, seed, seconds, trace)
    after = cpu_ticks()
    res = result_of(lines)
    fp = fingerprint(lines[0] if lines else "")
    steal = None
    if before and after and after[0] > before[0]:
        steal = (after[1] - before[1]) / (after[0] - before[0])
    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if steal is not None:
        # Time the hypervisor gave this VM's CPUs to others: the main
        # source of run-to-run noise on a shared host (README.md).
        print("host: %.1f%% of CPU time stolen during the run" % (100 * steal))
    if res is None:
        fail("workload '%s' printed no result (exit %d)" % (workload, code))
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as f:
        f.write(json.dumps({"fingerprint": fp, "workload": workload, "seed": seed,
                            "seconds": seconds, "trace": trace, "steal_frac": steal,
                            "elapsed_s": round(time.time() - start, 3), "result": res}) + "\n")
    print(lines[-1])
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all", "tiny"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required", 2)

    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(measure(binary, w, args.seed, args.seconds, args.trace) for w in workloads))


if __name__ == "__main__":
    main()
