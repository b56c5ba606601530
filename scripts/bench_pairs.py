"""Run perfbench on a parent tree and on this checkout in alternating pairs.

Usage::

    python scripts/bench_pairs.py PARENT_TREE --workload W --seeds A-B --tag TAG [--traced]

PARENT_TREE is a checkout of the commit to compare against (made with
``git archive`` or a second clone).  For each seed from A to B the script
runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in PARENT_TREE and once in this checkout, each tree with
its own unchanged ``perfbench/``; N is ``run_seconds`` from
``BENCHMARK.json``.  Which tree runs first alternates from pair to pair,
starting with the parent, so a slow spell of the host does not fall on
one side only.

For every end-to-end metric in ``BENCHMARK.json`` the result records
each run's value and, per side, the median and the quartiles (inclusive
method).  It counts the pairs the change wins, ties counting for
neither side, and gives a verdict against the metric's bound:

* ``fail``: the change's median is worse than the parent's by more than
  the bound, relative to the parent's median;
* ``unresolved``: not a fail, but either side's interquartile range
  exceeds the bound relative to its median, and not every run of the
  change reads better than every run of the parent;
* ``pass``: otherwise.

``gain`` is true when the change wins at least nine tenths of the pairs
and the medians differ, in the change's favour, by more than the
parent's interquartile range.

Each run's entry also keeps perfbench's ``meta["unscaled"]`` (the
timing metrics as measured, before the speed probe scales them) and
``meta["probe_s_median"]``, and the script prints each side's median
unscaled ``us_per_iter``, so a gain can be checked without the probe.

With ``--traced``, one ``--trace 1`` run per side follows the pairs, at
seed A, parent first; the entry's ``traced`` key holds each side's
per-layer metrics and the hooks its tracer found absent.

The workload's entry is merged into ``BENCH_<TAG>.json`` at the root of
this checkout; entries of other workloads already in the file are kept.
Each run keeps the commit perfbench reports: the HEAD commit of the
tree's ``.git``, which for a tree with uncommitted changes is the commit
they sit on, and "unknown" for a tree without ``.git``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def parse_seeds(text):
    lo, sep, hi = text.partition("-")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}")
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def run_once(tree, workload, seed, seconds, trace=0):
    """(meta, result) of one perfbench run in tree."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: perfbench failed in {tree} "
                         f"(exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def side_summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def worse_by(parent, change, better):
    """How much worse the change is, relative to the parent (<= 0: not worse)."""
    diff = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if diff <= 0 else float("inf")
    return diff / abs(parent)


def rel_spread(side):
    if side["median"] == 0:
        return 0.0 if side["q3"] == side["q1"] else float("inf")
    return (side["q3"] - side["q1"]) / abs(side["median"])


def compare(metric, parent_vals, change_vals):
    better = metric["better"]
    bound = metric["bound"]
    par = side_summary(parent_vals)
    chg = side_summary(change_vals)

    def beats(a, b):
        return a < b if better == "lower" else a > b

    wins = sum(beats(c, p) for p, c in zip(parent_vals, change_vals))
    losses = sum(beats(p, c) for p, c in zip(parent_vals, change_vals))
    worse = worse_by(par["median"], chg["median"], better)
    separated = all(beats(c, p) for c in change_vals for p in parent_vals)
    if worse > bound:
        verdict = "fail"
    elif max(rel_spread(par), rel_spread(chg)) > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "pass"
    gap = par["median"] - chg["median"]
    if better != "lower":
        gap = -gap
    return {
        "unit": metric["unit"], "better": better, "bound": bound,
        "parent": par, "change": chg,
        "change_minus_parent_rel": (
            (chg["median"] - par["median"]) / abs(par["median"])
            if par["median"] else None),
        "wins": wins, "losses": losses, "pairs": len(parent_vals),
        "verdict": verdict,
        "gain": (wins >= WIN_SHARE * len(parent_vals)
                 and gap > par["q3"] - par["q1"]),
    }


def run_entry(meta, res):
    """What a pair keeps of one untraced run: its metrics, and its timings
    as measured with the probe time that scaled them."""
    return {
        "commit": meta.get("commit"), "correct": res["correct"],
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
        "unscaled": meta["unscaled"],
        "probe_s_median": meta["probe_s_median"],
    }


def unscaled_median(runs, side, name):
    """Median over the pairs of one side's metric as measured, before the
    speed probe scales it."""
    return statistics.median(r[side]["unscaled"][name] for r in runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_tree", help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="inclusive seed range A-B, one pair per seed")
    ap.add_argument("--tag", required=True,
                    help="results go to BENCH_<tag>.json in the repo root")
    ap.add_argument("--traced", action="store_true",
                    help="add one --trace 1 run per side at the first seed")
    args = ap.parse_args(argv)
    parent = os.path.abspath(args.parent_tree)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        ap.error(f"no perfbench/run.py under {parent}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"BENCHMARK.json declares no workload {args.workload!r}")
    seconds = bench["run_seconds"]
    trees = {"parent": parent, "change": ROOT}
    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            t0 = time.perf_counter()
            meta, res = run_once(trees[side], args.workload, seed, seconds)
            pair[side] = run_entry(meta, res)
            print(f"seed {seed} {side}: wall_s "
                  f"{res['metrics']['wall_s']['value']:.3f} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
        runs.append(pair)
    metrics = {m["name"]: compare(m, [r["parent"]["metrics"][m["name"]]
                                      for r in runs],
                                  [r["change"]["metrics"][m["name"]]
                                   for r in runs])
               for m in bench["end_to_end"]}
    entry = {
        "seeds": args.seeds, "run_seconds": seconds,
        "host": {"nproc": os.cpu_count(), "backend": meta.get("backend"),
                 "python": meta.get("python"), "numpy": meta.get("numpy")},
        "failed_share": {
            side: sum(r[side]["failed"] for r in runs)
            / max(1, sum(r[side]["attempted"] for r in runs))
            for side in trees},
        "metrics": metrics, "runs": runs,
    }
    if args.traced:
        entry["traced"] = {"seed": args.seeds[0]}
        for side in trees:
            meta, res = run_once(trees[side], args.workload, args.seeds[0],
                                 seconds, trace=1)
            entry["traced"][side] = {
                "absent_hooks": meta.get("absent_hooks"),
                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["workloads"][args.workload] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]  "
              f"change {m['change']['median']:.6g} "
              f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  "
              f"wins {m['wins']}/{m['pairs']}  {m['verdict']}"
              + ("  GAIN" if m["gain"] else ""))
    for side in trees:
        print(f"{side}: unscaled us_per_iter median "
              f"{unscaled_median(runs, side, 'us_per_iter'):.6g}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
