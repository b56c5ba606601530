"""Print a SHA-256 digest of every CSV a fixed set of CLI runs writes.

Usage::

    python scripts/behaviour_digest.py [SRC]

Runs ``python -m qtgrad.benchcli`` with ``PYTHONPATH=SRC`` (default: the
``src`` directory of this checkout), serially (``QTGRAD_WORKERS=1``) and
with ``--zero-times``, in a temporary directory:

* the ROADMAP grid, ``quadbench --set 1,4 --n 100,1000 --kappa 1e2,1e4
  --eps 1e-6 --methods bb,new,bbq --seeds 20``;
* a traced grid, ``quadbench --set 1,4 --n 100 --kappa 1e4 --eps 1e-6
  --methods bb,new,bbq --seeds 3 --trace``;
* the solver's blocked path above ``kernels.BLOCK``, ``quadbench --set 1
  --n 40000 --kappa 1e2 --eps 1e-6 --methods bb,new --seeds 2``;
* ``uncbench --methods alg1,alg1-bbq --eps 1e-6 --trace``;
* ``verify3d --kappa 1.5,100,1e4,1e300 --seeds 10``, whose kappa 1e300
  rows overflow.

It prints one ``sha256  file`` line per CSV, twelve in all, and takes
about 4 s.  Two source trees whose arithmetic agrees print the same
lines, so running it on the parent's ``src`` and on a change's ``src``
and comparing the output checks that the change left every output byte
for byte as it was.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = (
    ("grid", ["quadbench", "--set", "1,4", "--n", "100,1000",
              "--kappa", "1e2,1e4", "--eps", "1e-6",
              "--methods", "bb,new,bbq", "--seeds", "20"]),
    ("traced", ["quadbench", "--set", "1,4", "--n", "100", "--kappa", "1e4",
                "--eps", "1e-6", "--methods", "bb,new,bbq", "--seeds", "3",
                "--trace"]),
    ("blocked", ["quadbench", "--set", "1", "--n", "40000", "--kappa", "1e2",
                 "--eps", "1e-6", "--methods", "bb,new", "--seeds", "2"]),
    ("unc", ["uncbench", "--methods", "alg1,alg1-bbq", "--eps", "1e-6",
             "--trace"]),
    ("v3d", ["verify3d", "--kappa", "1.5,100,1e4,1e300", "--seeds", "10"]),
)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python scripts/behaviour_digest.py [SRC]",
              file=sys.stderr)
        return 2
    default = Path(__file__).resolve().parent.parent / "src"
    src = Path(argv[0] if argv else default).resolve()
    if not (src / "qtgrad").is_dir():
        print(f"behaviour_digest: no qtgrad package in {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), QTGRAD_WORKERS="1")
    with tempfile.TemporaryDirectory() as tmp:
        for prefix, args in RUNS:
            subprocess.run(
                [sys.executable, "-m", "qtgrad.benchcli", *args,
                 "--zero-times", "--out", os.path.join(tmp, prefix)],
                cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL)
        for path in sorted(Path(tmp).glob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
