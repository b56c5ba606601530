"""Run perfbench briefly on every workload, untraced and traced.

Usage::

    python scripts/perfbench_smoke.py

For each workload and ``--trace`` 0 and 1 the script runs ``python3
perfbench/run.py --workload W --seed 0 --seconds 1 --trace T`` from the
root of this checkout, six runs of about ten seconds each.  It exits 1
when a run exits non-zero, prints ``"correct": false``, lists an
absent tracer hook other than those in ``ALLOWED_ABSENT``, or, traced,
breaks a count identity of its workload:

* refgrid and quad_large: ``kernels.quad_step.calls`` equals the sum of
  the ``quadsolver.branch.*`` counts (one kernel call per iteration), and
  ``stepsizes.sd_stepsize.calls`` equals ``quadsolver.solve.calls`` (one
  steepest-descent step per run);
* unc_suite: ``uncsolver.linesearch.calls`` is above 0.

A hook is absent when the attribute the tracer patches (a solver entry
point, ``uncsolver._search``, ``GradientHistory.set_stepsize`` and so on)
is renamed or deleted; its per-layer metrics then read 0 without an
error.  An identity breaks when a hook sees more or fewer calls than the
solvers make, as a kernel that calls the patched attribute once per
block would.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("refgrid", "quad_large", "unc_suite")
# Kernels deleted from qtgrad that the tracer still probes.
ALLOWED_ABSENT = frozenset({"kernels.quad_gradient", "kernels.quad_value"})


def broken_identities(workload: str, metrics: dict) -> list[str]:
    """The count identities a traced run of workload breaks."""
    found = []
    if workload in ("refgrid", "quad_large"):
        steps = metrics["kernels.quad_step.calls"]
        iters = sum(v for k, v in metrics.items()
                    if k.startswith("quadsolver.branch."))
        if steps != iters:
            found.append(f"kernels.quad_step.calls {steps} != "
                         f"quadsolver.branch.* sum {iters}")
        sd = metrics["stepsizes.sd_stepsize.calls"]
        solves = metrics["quadsolver.solve.calls"]
        if sd != solves:
            found.append(f"stepsizes.sd_stepsize.calls {sd} != "
                         f"quadsolver.solve.calls {solves}")
    elif workload == "unc_suite":
        if not metrics["uncsolver.linesearch.calls"] > 0:
            found.append("uncsolver.linesearch.calls is 0")
    return found


def problems(returncode: int, stdout: str, workload: str) -> list[str]:
    """What is wrong with one run of workload, from its exit code and its
    output."""
    if returncode != 0:
        return [f"exit {returncode}"]
    found = []
    records = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
    results = [r for r in records if "correct" in r]
    if not results:
        found.append("no result line")
    elif not all(r["correct"] for r in results):
        found.append('"correct": false')
    for r in results:
        metrics = {k: v["value"] for k, v in r["metrics"].items()}
        # only a --trace 1 result holds the per-layer counts
        if "kernels.quad_step.calls" in metrics:
            found += broken_identities(workload, metrics)
    for r in records:
        absent = set(r.get("meta", {}).get("absent_hooks", ())) - ALLOWED_ABSENT
        if absent:
            found.append(f"absent hooks {sorted(absent)}")
    return found


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            found = problems(proc.returncode, proc.stdout, workload)
            print(f"{workload} --trace {trace}: "
                  f"{'; '.join(found) if found else 'ok'}")
            if found:
                failed = True
                sys.stderr.write(proc.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
