"""Print a SHA-256 digest of every CSV a fixed set of CLI runs writes.

Usage::

    python scripts/behaviour_digest.py [SRC]
    python scripts/behaviour_digest.py [SRC] --against OTHER_SRC

Runs ``python -m qtgrad.benchcli`` with ``PYTHONPATH=SRC`` (default: the
``src`` directory of this checkout) and ``--zero-times``, in a temporary
directory:

* the ROADMAP grid, ``quadbench --set 1,4 --n 100,1000 --kappa 1e2,1e4
  --eps 1e-6 --methods bb,new,bbq --seeds 20``;
* a traced grid, ``quadbench --set 1,4 --n 100 --kappa 1e4 --eps 1e-6
  --methods bb,new,bbq --seeds 3 --trace``;
* the solver's blocked path above ``kernels.BLOCK``, ``quadbench --set 1
  --n 40000 --kappa 1e2 --eps 1e-6 --methods bb,new --seeds 2 --trace``,
  whose trace holds every stepsize and objective value of those runs;
* ``uncbench --methods alg1,alg1-bbq --eps 1e-6 --trace``;
* ``verify3d --kappa 1.5,2,100,1e4,1e8,1e300 --seeds 10 --trace``: at
  kappa 2 every special-step method degenerates at k = 3 in
  Gram-Schmidt, at 1e8 one seed in ten degenerates at k = 6 in the BBQ
  step, and the kappa 1e300 rows overflow.

After them it runs ``profile grid_runs.csv --metric iter --out
profile.csv`` on the first grid's run table (``profile`` takes no
``--zero-times``, and iteration counts need none).

It prints one ``sha256  file`` line per CSV, fifteen in all, and takes
about 3.5 s on a 2-vCPU host.  Two source trees whose arithmetic agrees
print the same lines.

With ``--against OTHER_SRC`` it runs the same set on both trees and
prints one ``OTHER_SHA  SRC_SHA  file`` line for each CSV whose bytes
differ (or that only one tree wrote), nothing for the rest, and a count
on standard error.  It exits 1 when any CSV differs and 0 otherwise, so
``--against`` a parent's ``src`` checks that a change left every output
byte for byte as it was.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = (
    ("grid", ["quadbench", "--set", "1,4", "--n", "100,1000", "--kappa",
              "1e2,1e4", "--eps", "1e-6", "--methods", "bb,new,bbq",
              "--seeds", "20"]),
    ("traced", ["quadbench", "--set", "1,4", "--n", "100", "--kappa", "1e4",
                "--eps", "1e-6", "--methods", "bb,new,bbq", "--seeds", "3",
                "--trace"]),
    ("blocked", ["quadbench", "--set", "1", "--n", "40000", "--kappa", "1e2",
                 "--eps", "1e-6", "--methods", "bb,new", "--seeds", "2",
                 "--trace"]),
    ("unc", ["uncbench", "--methods", "alg1,alg1-bbq", "--eps", "1e-6",
             "--trace"]),
    ("v3d", ["verify3d", "--kappa", "1.5,2,100,1e4,1e8,1e300", "--seeds",
             "10", "--trace"]),
)


def digests(src: Path) -> dict[str, str]:
    """SHA-256 of every CSV the fixed runs write with ``PYTHONPATH=src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        def cli(*args):
            subprocess.run([sys.executable, "-m", "qtgrad.benchcli", *args],
                           cwd=tmp, check=True, stdout=subprocess.DEVNULL,
                           env=env)

        for prefix, args in RUNS:
            cli(*args, "--zero-times", "--out", os.path.join(tmp, prefix))
        cli("profile", os.path.join(tmp, "grid_runs.csv"), "--metric",
            "iter", "--out", os.path.join(tmp, "profile.csv"))
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp).glob("*.csv"))}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?",
                    default=Path(__file__).resolve().parent.parent / "src",
                    help="source tree to run (default: this checkout's src)")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="also run OTHER_SRC and print only the CSVs that "
                         "differ")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    other = None if args.against is None else Path(args.against).resolve()
    for tree in (src, other):
        if tree is not None and not (tree / "qtgrad").is_dir():
            ap.error(f"no qtgrad package in {tree}")
    if other is None:
        for name, digest in digests(src).items():
            print(f"{digest}  {name}")
        return 0
    theirs, mine = digests(other), digests(src)
    names = sorted(theirs.keys() | mine.keys())
    differ = [n for n in names if theirs.get(n) != mine.get(n)]
    for name in differ:
        print(f"{theirs.get(name, '-')}  {mine.get(name, '-')}  {name}")
    print(f"behaviour_digest: {len(names) - len(differ)}/{len(names)} CSVs "
          f"identical", file=sys.stderr)
    return 1 if differ else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
