"""Print how the globalized solver fares when f or x change units.

Usage::

    python scripts/unc_scaling.py [SRC]

Imports ``qtgrad`` from SRC (default: the ``src`` directory of this
checkout) and runs the 11 builtin functions under both methods, alg1 and
alg1-bbq, 22 runs per row, in six unit systems: values times cf and x
times cx, with the start moved alike and eps_inf = 1e-6 cf / cx, so that
every row solves the same problems.  ``uncsolver.MAX_ITER`` is cut to
20,000 for the table.  Each row prints its total iterations and how many
of its 22 runs end ``ok``.

Then it runs the two far starts the suite does not solve,
``trigonometric`` from 1e15 x0 and ``beale`` from 1e8 x0, under both
methods with the full budgets, and prints each run's status, iterations
and objective values.  A solver whose far starts run to the value budget
takes about 10 s per such run.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

UNITS = ((1e-8, 1.0), (1e8, 1.0), (1.0, 1e-4), (1.0, 1e4), (1e-12, 1e3),
         (1.0, 1.0))
FAR_STARTS = (("trigonometric", 1e15), ("beale", 1e8))
TABLE_MAX_ITER = 20000


def _scaled(unc, f, cf, cx):
    """f in other units: values times cf, x times cx, x0 moved alike."""
    value, gradient = f.value, f.gradient
    return unc.ObjectiveFn(f.name, lambda z: cf * value(z / cx),
                           lambda z: (cf / cx) * gradient(z / cx), cx * f.x0)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?",
                    default=Path(__file__).resolve().parent.parent / "src",
                    help="source tree to run (default: this checkout's src)")
    src = Path(ap.parse_args(argv).src).resolve()
    if not (src / "qtgrad").is_dir():
        ap.error(f"no qtgrad package in {src}")
    sys.path.insert(0, str(src))
    from qtgrad import testfuns
    from qtgrad import uncsolver as unc

    suite = testfuns.builtin_suite()
    full_budget = unc.MAX_ITER
    unc.MAX_ITER = TABLE_MAX_ITER
    print(f"| cf | cx | iterations | ok (of {2 * len(suite)}) |")
    print("|---|---|---|---|")
    for cf, cx in UNITS:
        iters = ok = 0
        for f in suite:
            for use_new in (True, False):
                cfg = unc.UncSolverConfig(eps_inf=1e-6 * cf / cx,
                                          use_new_step=use_new)
                rep = unc.solve(_scaled(unc, f, cf, cx), cfg=cfg)
                iters += rep.iterations
                ok += rep.status == "ok"
        print(f"| {cf:g} | {cx:g} | {iters:,} | {ok} |")
    unc.MAX_ITER = full_budget

    print()
    print("| function | start | method | status | iterations | values |")
    print("|---|---|---|---|---|---|")
    for name, scale in FAR_STARTS:
        f = getattr(testfuns, name)()
        for use_new in (True, False):
            rep = unc.solve(f, scale * np.asarray(f.x0, dtype=float),
                            unc.UncSolverConfig(use_new_step=use_new))
            print(f"| {name} | {scale:g} x0 | {rep.method} | {rep.status} | "
                  f"{rep.iterations:,} | {rep.nfe:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
