"""Run perfbench briefly on every workload, untraced and traced.

Usage::

    python scripts/perfbench_smoke.py

For each workload and ``--trace`` 0 and 1 the script runs ``python3
perfbench/run.py --workload W --seed 0 --seconds 1 --trace T`` from the
root of this checkout, six runs of about ten seconds each.  It exits 1
when a run exits non-zero, prints ``"correct": false``, or lists an
absent tracer hook other than those in ``ALLOWED_ABSENT``.  A hook is
absent when the attribute the tracer patches (a solver entry point,
``uncsolver._search``, ``GradientHistory.set_stepsize`` and so on) is
renamed or deleted; its per-layer metrics then read 0 without an error.
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


def problems(returncode: int, stdout: str) -> list[str]:
    """What is wrong with one run, from its exit code and its output."""
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
            found = problems(proc.returncode, proc.stdout)
            print(f"{workload} --trace {trace}: "
                  f"{'; '.join(found) if found else 'ok'}")
            if found:
                failed = True
                sys.stderr.write(proc.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
