#!/usr/bin/env python3
"""Record the reference grid's behaviour fingerprint for a range of seeds.

    PYTHONPATH=src python3 perfbench/record_fingerprints.py --seeds 32

For each seed the grid runs through the ``qtgrad quadbench`` command
itself (benchcli.main, serial, BLAS pinned to one thread) with the seed
as the problem seed, and iters_mean and solved of each of the 24 cells
of ``<out>_agg.csv`` are stored in perfbench/refgrid_fingerprints.json
together with the backend and commit that produced them.  The refgrid
workloads report how many cells differ from this record.  Seed 0 is the
grid the ROADMAP specifies.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import workload  # pins BLAS threads before numpy loads
from run import git_commit

from qtgrad import backend_name, benchcli

GRID_ARGV = ["quadbench", "--set", "1,4", "--n", "100,1000",
             "--kappa", "1e2,1e4", "--eps", "1e-6",
             "--methods", "bb,new,bbq", "--seeds", "20", "--zero-times"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=32,
                    help="record seeds 0 .. SEEDS-1")
    args = ap.parse_args(argv)
    os.environ["QTGRAD_WORKERS"] = "1"
    seeds = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "grid")
        for seed in range(args.seeds):
            benchcli.PROBLEM_SEED = seed
            with contextlib.redirect_stdout(io.StringIO()):
                if benchcli.main([*GRID_ARGV, "--out", out]) != 0:
                    sys.exit(f"grid failed at seed {seed}")
            seeds[str(seed)] = workload.fingerprint(
                workload.read_csv(out + "_agg.csv"))
            print(f"seed {seed}: solved "
                  f"{sum(int(s) for s, _ in seeds[str(seed)].values())}",
                  file=sys.stderr)
    record = {"command": "qtgrad " + " ".join(GRID_ARGV),
              "backend": backend_name(), "commit": git_commit(workload.ROOT),
              "seeds": seeds}
    with open(workload.FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
