#!/usr/bin/env python3
"""qtgrad benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload refgrid --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``
there, never from an installed copy.  With ``--trace 0`` the result holds
every end-to-end metric listed in BENCHMARK.json, with ``--trace 1``
every per-layer metric.  The line before the result is a JSON "meta"
record: versions, backend, core count, commit, seed, BLAS pinning and,
for the grids, the behaviour fingerprint.

The workload runs in a child process (perfbench/workload.py).  setup_s is
the median wall time of fresh interpreters that import qtgrad and
qtgrad.benchcli and generate the workload's distinct problems once, each
scaled by the speed probe timed just before it (speed.py); half of them
run before the measured run and half after it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = os.path.join(HERE, "workload.py")
WORKLOADS = ("refgrid", "quad_large", "unc_suite")
SETUP_REPEATS = 5      # before the measured run, and again after it
SETUP_PROBE_REPS = 25
# Time allowed beyond --seconds: set-up interpreters, interpreter start,
# the last pass's overrun and the traced run's extra measurements.
MARGIN_S = 120.0


def git_commit(root):
    """Commit id from .git without running git; "unknown" outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def child(argv, env, timeout):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, WORKLOAD, *argv], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {argv[1]} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: workload process failed "
                         f"(exit {proc.returncode})")
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qtgrad", "__init__.py")):
        raise SystemExit(f"perfbench: no qtgrad sources under {ROOT}/src")
    declared = declared_metrics(args.trace)
    deadline = time.perf_counter() + args.seconds + MARGIN_S
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def left():
        return max(deadline - time.perf_counter(), 1.0)

    def time_setups(count):
        """(seconds as measured, probe seconds) of count set-ups."""
        out = []
        for _ in range(count):
            probe = speed.probe_time(speed.probe, SETUP_PROBE_REPS)
            t0 = time.perf_counter()
            child([*common, "--setup-only"], env, left())
            out.append((time.perf_counter() - t0, probe))
        return out

    setup = []
    if not args.trace:
        # the first interpreter also writes the bytecode caches; drop it
        setup = time_setups(SETUP_REPEATS + 1)[1:]
    out = child([*common, "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], env, left())
    if not args.trace:
        setup += time_setups(SETUP_REPEATS)
    res = json.loads(out.strip().splitlines()[-1])
    metrics = res["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(
            t * speed.REF_S / probe for t, probe in setup)
    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    if missing or extra:
        raise SystemExit(f"perfbench: metrics out of step with BENCHMARK.json:"
                         f" missing {sorted(missing)}, extra {sorted(extra)}")
    meta = res["meta"]
    meta["commit"] = git_commit(ROOT)
    if setup:
        meta["setup_s_samples"] = [t for t, _ in setup]
        meta["setup_probe_s"] = [probe for _, probe in setup]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
