"""Print a SHA-256 digest of every file a fixed set of CLI runs writes.

Usage::

    python scripts/behaviour_digest.py [SRC]
    python scripts/behaviour_digest.py [SRC] --against OTHER_SRC
    python scripts/behaviour_digest.py [SRC] --windows OTHER_SRC

Runs ``python -m qtgrad.benchcli`` with ``PYTHONPATH=SRC`` (default: the
``src`` directory of this checkout) and ``--zero-times``, in a temporary
directory:

* the ROADMAP grid, ``quadbench --set 1,4 --n 100,1000 --kappa 1e2,1e4
  --eps 1e-6 --methods bb,new,bbq --seeds 20``;
* a traced grid, ``quadbench --set 1,4 --n 100 --kappa 1e4 --eps 1e-6
  --methods bb,new,bbq --seeds 3 --trace``;
* the solver's blocked path above ``kernels.BLOCK``, ``quadbench --set 1
  --n 100000 --kappa 1e2 --eps 1e-6 --methods bb,new --seeds 2 --trace``,
  whose trace holds every stepsize and objective value of those runs:
  four blocks, the last one partial, so steps in both block orders pass
  through interior blocks;
* ``uncbench --methods alg1,alg1-bbq --eps 1e-6 --trace``;
* ``verify3d --kappa 1.5,2,100,1e4,1e8,1e300 --seeds 10 --trace``: at
  kappa 2 every special-step method degenerates at k = 3 in
  Gram-Schmidt, at 1e8 one seed in ten degenerates at k = 6 in the BBQ
  step, and the kappa 1e300 rows overflow.

Each run's ``--out`` is its prefix, relative to that directory, and the
same argv with ``--print-config`` is saved as ``<prefix>.cfg``, so the
digest also pins the config format that replays a grid.  After them it
runs ``profile grid_runs.csv --metric iter --out profile.csv`` on the
first grid's run table (``profile`` takes no ``--zero-times``, and
iteration counts need none).

It prints one ``sha256  file`` line per file, fifteen CSVs and five
configs, and takes about 6 s on a 2-vCPU host.  Two source trees whose
arithmetic and config format agree print the same lines.

With ``--against OTHER_SRC`` it runs the same set on both trees and
prints one ``OTHER_SHA  SRC_SHA  file`` line for each file whose bytes
differ (or that only one tree wrote), nothing for the rest, and a count
on standard error.  It exits 1 when any file differs and 0 otherwise, so
``--against`` a parent's ``src`` checks that a change left every output
byte for byte as it was.

``--windows OTHER_SRC`` is the gate for a change that moves arithmetic.
BB iterations are chaotic, so it compares ensembles, not bytes.  Each
tree runs in a subprocess of its own, through the library: the ROADMAP
grid above (problem seed 0, bb, new and bbq, eps 1e-6, 20 starts per
cell) and the uncbench suite (alg1 and alg1-bbq, eps 1e-6).  Every run
starts from its generated start and from K = ``REPLICATES`` replicates
of it, in which each component moves one ulp up or down
(``np.nextafter``), with signs drawn from a fixed seed per (replicate,
start); both trees must report the same starts.  Of each (method, set),
the sum of its four cell means is one value per start set, K + 1 in all,
and so is the suite's total iterations per uncbench method.  The change
(SRC) passes when every run is solved on both trees and, for each of
these totals, its median over the K + 1 values lies in OTHER_SRC's
[min, max].  It prints each cell's and each total's min / median / max
for both trees and exits 1 when the rule fails, 0 otherwise.  It takes
about 16 s on a 2-vCPU host.
"""

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNS = (
    ("grid", ["quadbench", "--set", "1,4", "--n", "100,1000", "--kappa",
              "1e2,1e4", "--eps", "1e-6", "--methods", "bb,new,bbq",
              "--seeds", "20"]),
    ("traced", ["quadbench", "--set", "1,4", "--n", "100", "--kappa", "1e4",
                "--eps", "1e-6", "--methods", "bb,new,bbq", "--seeds", "3",
                "--trace"]),
    ("blocked", ["quadbench", "--set", "1", "--n", "100000", "--kappa", "1e2",
                 "--eps", "1e-6", "--methods", "bb,new", "--seeds", "2",
                 "--trace"]),
    ("unc", ["uncbench", "--methods", "alg1,alg1-bbq", "--eps", "1e-6",
             "--trace"]),
    ("v3d", ["verify3d", "--kappa", "1.5,2,100,1e4,1e8,1e300", "--seeds",
             "10", "--trace"]),
)


def digests(src: Path) -> dict[str, str]:
    """SHA-256 of every file the fixed runs write with ``PYTHONPATH=src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "qtgrad.benchcli", *args], cwd=tmp,
                check=True, stdout=subprocess.PIPE, env=env).stdout

        for prefix, args in RUNS:
            # relative, so that every tree prints the same out= line
            argv = [*args, "--zero-times", "--out", prefix]
            cli(*argv)
            Path(tmp, prefix + ".cfg").write_bytes(
                cli(*argv, "--print-config"))
        cli("profile", "grid_runs.csv", "--metric", "iter", "--out",
            "profile.csv")
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp).iterdir())
                if path.suffix in (".csv", ".cfg")}


# The --windows ensemble: the ROADMAP grid and the uncbench suite.
GRID_SETS, GRID_NS, GRID_KAPPAS = (1, 4), (100, 1000), (1e2, 1e4)
GRID_METHODS, GRID_STARTS = ("bb", "new", "bbq"), 20
UNC_METHODS = ("alg1", "alg1-bbq")
EPS = 1e-6
# Seed of the replicate signs; the stream of (replicate, start) is
# default_rng([ULP_SEED, replicate, start]).
ULP_SEED = 2024
# Replicate start sets per start.  For two trees whose totals share one
# distribution, the change's median of K + 1 values leaves the parent's
# [min, max] with odds 2 C(3K/2 + 1, K/2) / C(2K + 2, K + 1): 1.2% per
# total at K = 10 and 0.016% at K = 20, where one of the eight totals
# fails a change that moved nothing with odds 0.13%.
REPLICATES = 20


def _replicate(x0, replicate, start):
    """x0 itself at replicate 0, else each component one ulp up or down."""
    if replicate == 0:
        return x0
    up = np.random.default_rng([ULP_SEED, replicate, start]).integers(
        0, 2, x0.size).astype(bool)
    return np.where(up, np.nextafter(x0, np.inf), np.nextafter(x0, -np.inf))


def ensemble(replicates: int) -> dict:
    """Iterations of every --windows run with the qtgrad on sys.path.

    Returns {"starts": SHA-256 of every start's bytes, "unsolved": runs
    not ``ok``, "runs": {key: iterations per start set}}, keyed
    "method set n kappa start" for the grid and "method function" for
    the suite.
    """
    from qtgrad import quadprob, testfuns
    from qtgrad.quadsolver import QuadSolverConfig, solve_bb, solve_new
    from qtgrad.uncsolver import UncSolverConfig, solve

    digest, runs, unsolved = hashlib.sha256(), {}, []

    def record(key, rep, x0):
        digest.update(x0.tobytes())
        runs.setdefault(key, []).append(rep.iterations)
        if rep.status != "ok":
            unsolved.append(f"{key} replicate {len(runs[key]) - 1}: "
                            f"{rep.status}")

    for method, set_id, n, kappa in itertools.product(
            GRID_METHODS, GRID_SETS, GRID_NS, GRID_KAPPAS):
        cfg = QuadSolverConfig(eps=EPS, use_new_step=method != "bbq")
        run = solve_bb if method == "bb" else solve_new
        p = quadprob.generate(set_id, n, kappa, 0)
        for start in range(GRID_STARTS):
            x0 = quadprob.starting_point(p, start)
            for j in range(replicates + 1):
                xj = _replicate(x0, j, start)
                record(f"{method} {set_id} {n} {kappa:g} {start}",
                       run(p, xj, cfg), xj)
    for method in UNC_METHODS:
        cfg = UncSolverConfig(eps_inf=EPS, use_new_step=method == "alg1")
        for start, f in enumerate(testfuns.builtin_suite()):
            x0 = np.asarray(f.x0, dtype=float)
            for j in range(replicates + 1):
                xj = _replicate(x0, j, start)
                record(f"{method} {f.name}", solve(f, xj, cfg), xj)
    return {"starts": digest.hexdigest(), "unsolved": unsolved,
            "runs": runs}


def _totals(runs: dict) -> dict:
    """{row: values per start set}: each grid cell's mean ("... mean"),
    each (method, set)'s sum of its four cell means and each uncbench
    method's suite total; only the last two kinds are gated."""
    rows = {}
    for key, iters in runs.items():
        method, *rest = key.split()
        if len(rest) == 1:   # uncbench: "method function"
            names, values = [f"{method} suite total"], iters
        else:
            set_id, n, kappa, _ = rest
            names = [f"{method} {set_id} {n} {kappa} mean",
                     f"{method} set {set_id} sum of cell means"]
            values = [it / GRID_STARTS for it in iters]
        for name in names:
            acc = rows.setdefault(name, [0] * len(iters))
            for j, value in enumerate(values):
                acc[j] += value
    return rows


def _spread(values) -> str:
    return (f"{min(values):9.2f} {statistics.median(values):9.2f} "
            f"{max(values):9.2f}")


def out_of_window(parent: dict, change: dict) -> list[str]:
    """The gated rows of :func:`_totals` whose median in ``change`` lies
    outside their [min, max] in ``parent``."""
    return [name for name, values in parent.items()
            if not name.endswith(" mean")
            and not (min(values) <= statistics.median(change[name])
                     <= max(values))]


def windows(src: Path, other: Path) -> int:
    """Run the --windows ensemble on both trees, print it, apply the rule."""
    procs = [subprocess.Popen(
        [sys.executable, __file__, "--ensemble"],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(tree)))
        for tree in (other, src)]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("behaviour_digest: an ensemble run failed", file=sys.stderr)
        return 1
    theirs, mine = (json.loads(out) for out in outs)
    if theirs["starts"] != mine["starts"]:
        print("behaviour_digest: the trees ran different starts",
              file=sys.stderr)
        return 1
    parent, change = _totals(theirs["runs"]), _totals(mine["runs"])
    print(f"{'':40} {'parent min / median / max':>29}   "
          f"{'change min / median / max':>29}")
    failed = out_of_window(parent, change)
    for name in sorted(parent, key=lambda name: not name.endswith(" mean")):
        verdict = ("" if name.endswith(" mean") else
                   "  OUT" if name in failed else "  ok")
        print(f"{name:40} {_spread(parent[name])}   "
              f"{_spread(change[name])}{verdict}")
    for tree, out in (("parent", theirs), ("change", mine)):
        for run in out["unsolved"]:
            failed.append(f"{tree} {run}")
    for line in failed:
        print(f"behaviour_digest: failed: {line}", file=sys.stderr)
    print(f"behaviour_digest: {REPLICATES} replicates, "
          f"{'windows fail' if failed else 'windows pass'}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?",
                    default=Path(__file__).resolve().parent.parent / "src",
                    help="source tree to run (default: this checkout's src)")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="also run OTHER_SRC and print only the files that "
                         "differ")
    ap.add_argument("--windows", metavar="OTHER_SRC",
                    help="run the ulp ensembles of SRC and OTHER_SRC and "
                         "check SRC's medians against OTHER_SRC's windows")
    ap.add_argument("--ensemble", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ensemble:
        json.dump(ensemble(REPLICATES), sys.stdout)
        return 0
    if args.against is not None and args.windows is not None:
        ap.error("--against and --windows exclude each other")
    src = Path(args.src).resolve()
    other = args.windows if args.against is None else args.against
    other = None if other is None else Path(other).resolve()
    for tree in (src, other):
        if tree is not None and not (tree / "qtgrad").is_dir():
            ap.error(f"no qtgrad package in {tree}")
    if args.windows is not None:
        return windows(src, other)
    if other is None:
        for name, digest in digests(src).items():
            print(f"{digest}  {name}")
        return 0
    theirs, mine = digests(other), digests(src)
    names = sorted(theirs.keys() | mine.keys())
    differ = [n for n in names if theirs.get(n) != mine.get(n)]
    for name in differ:
        print(f"{theirs.get(name, '-')}  {mine.get(name, '-')}  {name}")
    print(f"behaviour_digest: {len(names) - len(differ)}/{len(names)} files "
          f"identical", file=sys.stderr)
    return 1 if differ else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
