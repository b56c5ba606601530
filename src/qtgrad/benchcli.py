"""Benchmark harness and command-line entry point.

Four verbs:

* ``verify3d``: the fixed 8-step schedule on the 3-d problem, per method
  and seed, reporting the gradient norm and objective at the ninth
  iterate.
* ``quadbench``: the quadratic solvers over a (set, n, kappa, eps) grid,
  one run per starting-point seed.
* ``uncbench``: the globalized method over the built-in general test
  functions.
* ``profile``: Dolan-More performance-profile curves from a previously
  written run table.

``verify3d`` and ``uncbench`` reject values they would not use (set, n,
eps, tau1 and gamma for the first; set, n, kappa and more than one seed
for the second, whose test functions each have one fixed start).  A
grid is checked whole before its first cell runs, and no list in it may
hold a value twice.  A cell is one (method, problem) with all its eps
values and seeds: (method, set, n, kappa) for ``quadbench``, (method,
function) for ``uncbench`` and (method, kappa) for ``verify3d``.

The run verbs write ``<out>_runs.csv`` (one row per run) and
``<out>_agg.csv`` (per-cell means over solved runs); ``--trace`` adds
``<out>_trace.csv`` with one row per iteration, intended for small
grids.  Columns are documented next to RAW_COLUMNS / AGG_COLUMNS below.
All CSVs are UTF-8 with a header row; floats are written in scientific
notation with nine significant digits, so equal runs produce equal files
byte for byte (pass ``--zero-times`` to blank the one hardware-dependent
column).  Rows are sorted by (method, set, n, kappa, eps, seed)
regardless of worker scheduling; set QTGRAD_WORKERS to parallelize over
cells.

Configuration is plain ``key=value`` lines, where a ``#`` at the start
of a line or after whitespace begins a comment, with precedence
defaults < preset < file < flags.  Named presets bundle the per-set
(tau1, gamma) pairs used in the source tables; with no preset and no
flags the solvers run on their own defaults.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import quadprob, testfuns
from .errors import InvalidInput, InvalidSpec, QtgradError
from .quadsolver import (VERIFY_METHODS, QuadSolverConfig, solve_bb, solve_new,
                         verify_3d_termination)
from .report import STATUS_OK, RunReport
from .uncsolver import UncSolverConfig, solve

EXPERIMENTS = ("verify3d", "quadbench", "uncbench")
QUAD_METHODS = ("bb", "new", "bbq")
UNC_METHODS = ("alg1", "alg1-bbq")

# (tau1, gamma) presets, one per quadratic problem set, for the adaptive
# method; named after the parameter table they reproduce.
PRESETS = {
    "table3-set1-new": (0.9, 1.0),
    "table3-set2-new": (0.9, 1.0),
    "table3-set3-new": (0.5, 1.0),
    "table3-set4-new": (0.5, 1.0),
    "table3-set5-new": (0.6, 1.3),
}

RAW_COLUMNS = ("method", "set", "n", "kappa", "eps", "seed", "iters",
               "nfe", "ngrad", "final_gnorm", "status", "time_ms",
               "final_f")
AGG_COLUMNS = ("method", "set", "n", "kappa", "eps", "runs", "solved",
               "iters_mean", "nfe_mean", "ngrad_mean",
               "final_gnorm_mean", "final_f_mean", "time_ms_mean")
TRACE_COLUMNS = ("method", "set", "n", "kappa", "eps", "seed", "k",
                 "branch", "stepsize", "gnorm", "fval", "bb1", "bb2",
                 "tau")

# A '#' that begins a config line or follows whitespace starts a comment.
_COMMENT = re.compile(r"(?:^|\s)#")

# Values a verb does not use, as (key, spec field, the one value
# allowed): verify3d runs one 3-d problem on a fixed schedule with no
# switching threshold, and each uncbench test function has its own
# dimension and no kappa.
_UNUSED = {
    "verify3d": (("set", "sets", (0,)), ("n", "ns", (3,)),
                 ("eps", "epss", (0.0,)), ("tau1", "tau1", None),
                 ("gamma", "gamma", None)),
    "uncbench": (("set", "sets", (0,)), ("n", "ns", (0,)),
                 ("kappa", "kappas", (0.0,))),
}

# quadbench fixes the problem instance and varies the starting point, so
# the seed column is the replicate index of the start.  _cells reads it
# into every cell, so pool workers never read their own copy.
PROBLEM_SEED = 0


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved description of one run-verb invocation."""

    experiment: str
    methods: tuple
    sets: tuple
    ns: tuple
    kappas: tuple
    epss: tuple
    seeds: int
    tau1: float | None
    gamma: float | None
    out: str
    trace: bool = False
    zero_times: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidSpec(f"unknown experiment {self.experiment!r}")
        if not self.methods:
            raise InvalidSpec("method list must be non-empty")
        allowed = {"verify3d": VERIFY_METHODS, "quadbench": QUAD_METHODS,
                   "uncbench": UNC_METHODS}[self.experiment]
        for m in self.methods:
            if m not in allowed:
                raise InvalidSpec(
                    f"method {m!r} not valid for {self.experiment} "
                    f"(choose from {', '.join(allowed)})")
        if self.seeds < 1:
            raise InvalidSpec("seeds must be at least 1")
        if not (self.sets and self.ns and self.kappas and self.epss):
            raise InvalidSpec("grids must be non-empty")
        # a repeated value would run its cells twice under one row key
        for name in ("methods", "sets", "ns", "kappas", "epss"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise InvalidSpec(f"{name} holds a value twice: {values}")
        if self.experiment == "quadbench":
            # every problem of the grid, before its first cell runs
            for s in self.sets:
                for n in self.ns:
                    for kappa in self.kappas:
                        quadprob.check_spec(s, n, kappa)
        elif self.experiment == "verify3d":
            for kappa in self.kappas:
                quadprob.check_kappa(kappa)
        for key, field, allowed in _UNUSED.get(self.experiment, ()):
            if getattr(self, field) != allowed:
                raise InvalidSpec(f"{self.experiment} does not use {key}")
        if self.experiment == "uncbench" and self.seeds > 1:
            raise InvalidSpec("uncbench runs one seed: each test function "
                              "has one fixed start")
        if self.experiment != "verify3d":
            # the solver config owns the eps, tau1 and gamma ranges; its
            # message names uncbench's eps by the config field it sets
            for eps in self.epss:
                try:
                    _solver_config(self.experiment, self.methods[0], eps,
                                   self.tau1, self.gamma)
                except ValueError as exc:
                    raise InvalidSpec(
                        str(exc).replace("eps_inf", "eps")) from None


@dataclass(frozen=True)
class ProfileCurve:
    """One method's performance-profile step function.

    ``fractions[i]`` is the share of all problems this method solved
    within ``rhos[i]`` times the per-problem best; at the largest
    breakpoint it equals the method's overall solved share.
    """

    method: str
    rhos: tuple
    fractions: tuple
    solved: int
    total: int

    def __post_init__(self):
        if len(self.rhos) != len(self.fractions):
            raise InvalidInput("rhos and fractions must align")
        if list(self.rhos) != sorted(set(self.rhos)):
            raise InvalidInput("rhos must be strictly increasing")
        prev = 0.0
        for f in self.fractions:
            if not 0.0 <= f <= 1.0 or f < prev:
                raise InvalidInput("fractions must be non-decreasing in [0, 1]")
            prev = f
        if self.rhos and self.total:
            if abs(self.fractions[-1] - self.solved / self.total) > 1e-12:
                raise InvalidInput("final fraction must equal solved share")


def _report_row(rep: RunReport, set_key, n, kappa, eps, seed):
    return {
        "method": rep.method, "set": str(set_key), "n": n,
        "kappa": float(kappa), "eps": float(eps), "seed": seed,
        "iters": rep.iterations, "nfe": rep.nfe, "ngrad": rep.ngrad,
        "final_gnorm": rep.final_gnorm, "status": rep.status,
        "time_ms": rep.wall_time * 1e3, "final_f": rep.final_f,
    }


def _trace_rows(rep: RunReport, row):
    out = []
    for t in rep.trace:
        out.append({
            "method": row["method"], "set": row["set"], "n": row["n"],
            "kappa": row["kappa"], "eps": row["eps"], "seed": row["seed"],
            "k": t.k, "branch": t.branch, "stepsize": t.stepsize,
            "gnorm": t.gnorm, "fval": t.fval, "bb1": t.bb1, "bb2": t.bb2,
            "tau": t.tau,
        })
    return out


def _unc_fn(name: str):
    for f in testfuns.builtin_suite():
        if f.name == name:
            return f
    raise InvalidSpec(f"unknown test function {name!r}")


def _solver_config(exp, method, eps, tau1, gamma, trace=False):
    """One eps's quadbench or uncbench config; None keeps a default."""
    kw = {k: v for k, v in (("tau1", tau1), ("gamma", gamma)) if v is not None}
    if exp == "quadbench":
        return QuadSolverConfig(eps=eps, use_new_step=method != "bbq",
                                keep_trace=trace, **kw)
    return UncSolverConfig(eps_inf=eps, use_new_step=method == "alg1",
                           keep_trace=trace, **kw)


def _run_cell(cell):
    """Run one (method, problem) cell over its eps values and seeds.

    Returns the run rows and trace rows.  Cells must stay picklable.
    """
    exp, method, set_key, n, kappa, epss, seeds, pseed, tau1, gamma, trace = cell
    if exp == "quadbench":
        p = quadprob.generate(set_key, n, kappa, pseed)
    elif exp == "uncbench":
        f = _unc_fn(set_key)
    rows, traces = [], []
    for eps in epss:
        if exp != "verify3d":
            cfg = _solver_config(exp, method, eps, tau1, gamma, trace)
        for seed in range(seeds):
            if exp == "verify3d":
                rep = verify_3d_termination(kappa, method, seed,
                                            keep_trace=trace)
            elif exp == "uncbench":
                rep = solve(f, cfg=cfg)
            elif method == "bb":
                rep = solve_bb(p, quadprob.starting_point(p, seed), cfg)
            else:
                rep = solve_new(p, quadprob.starting_point(p, seed), cfg)
            row = _report_row(rep, set_key, n, kappa, eps, seed)
            rows.append(row)
            traces += _trace_rows(rep, row)
    return rows, traces


def _cells(spec: ExperimentSpec):
    if spec.experiment == "verify3d":
        problems = [(0, 3, kappa) for kappa in spec.kappas]
    elif spec.experiment == "quadbench":
        problems = [(s, n, kappa) for s in spec.sets for n in spec.ns
                    for kappa in spec.kappas]
    else:
        problems = [(f.name, f.dimension, 0.0)
                    for f in testfuns.builtin_suite()]
    pseed = PROBLEM_SEED
    return [(spec.experiment, method, *problem, spec.epss, spec.seeds, pseed,
             spec.tau1, spec.gamma, spec.trace)
            for method in spec.methods for problem in problems]


def _worker_count() -> int:
    raw = os.environ.get("QTGRAD_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidSpec(f"QTGRAD_WORKERS must be an integer, got {raw!r}")
    if n < 1:
        raise InvalidSpec("QTGRAD_WORKERS must be at least 1")
    return n


ROW_KEY = ("method", "set", "n", "kappa", "eps", "seed")


def _sort_key(row):
    return tuple(row[c] for c in ROW_KEY)


def _mean(rows, col):
    vals = [r[col] for r in rows]
    return sum(vals) / len(vals) if vals else math.nan


def aggregate_rows(rows):
    """Per-cell means over solved runs; every cell keeps runs/solved counts."""
    cells = {}
    for r in rows:
        cells.setdefault(_sort_key(r)[:5], []).append(r)
    out = []
    for key in sorted(cells):
        group = cells[key]
        ok = [r for r in group if r["status"] == STATUS_OK]
        agg = dict(zip(("method", "set", "n", "kappa", "eps"), key))
        agg["runs"] = len(group)
        agg["solved"] = len(ok)
        for col in ("iters", "nfe", "ngrad", "final_gnorm", "final_f",
                    "time_ms"):
            agg[col + "_mean"] = _mean(ok, col)
        out.append(agg)
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9e}"
    return str(v)


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in columns])


def run_experiment(spec: ExperimentSpec):
    """Run every cell of the grid and write the run and aggregate CSVs.

    Returns the two paths.  Each cell runs one problem's eps values and
    seeds and is a pure function of its parameters, PROBLEM_SEED among
    them; the cells' rows are flattened and sorted before writing, so
    execution order never affects the output.
    """
    out_dir = os.path.dirname(spec.out) or "."
    if not os.path.isdir(out_dir):
        raise InvalidSpec(f"output directory {out_dir!r} does not exist")
    cells = _cells(spec)
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_cell, cells))
    else:
        results = [_run_cell(c) for c in cells]
    rows = [r for rs, _ in results for r in rs]
    traces = [t for _, ts in results for t in ts]
    if spec.zero_times:
        for r in rows:
            r["time_ms"] = 0.0
    rows.sort(key=_sort_key)
    runs_path = spec.out + "_runs.csv"
    agg_path = spec.out + "_agg.csv"
    _write_csv(runs_path, RAW_COLUMNS, rows)
    _write_csv(agg_path, AGG_COLUMNS, aggregate_rows(rows))
    if spec.trace:
        traces.sort(key=lambda t: (_sort_key(t), t["k"]))
        _write_csv(spec.out + "_trace.csv", TRACE_COLUMNS, traces)
    return runs_path, agg_path


def build_profile(rows, metric: str):
    """Dolan-More curves from raw run rows.

    ``metric`` is "iter" or "time".  For each problem the ratio is the
    method's cost over the best cost among methods that solved it;
    unsolved runs get an infinite ratio and never enter any count, but
    the problem stays in the denominator, so curves top out at each
    method's solved share.  Every method must cover exactly the same
    problems.
    """
    if metric not in ("iter", "time"):
        raise InvalidInput(f"metric must be 'iter' or 'time', got {metric!r}")
    col = "iters" if metric == "iter" else "time_ms"
    methods = sorted({r["method"] for r in rows})
    if not methods:
        raise InvalidInput("no rows to profile")
    probs = {}
    for r in rows:
        key = _sort_key(r)[1:]
        per = probs.setdefault(key, {})
        if r["method"] in per:
            raise InvalidInput(f"duplicate rows for problem {key}")
        per[r["method"]] = r
    ratios = {m: [] for m in methods}
    for key in sorted(probs):
        per = probs[key]
        if sorted(per) != methods:
            raise InvalidInput(f"problem {key} missing some methods")
        best = min((per[m][col] for m in methods
                    if per[m]["status"] == STATUS_OK), default=math.inf)
        for m in methods:
            r = per[m]
            if r["status"] != STATUS_OK:
                ratios[m].append(math.inf)
            elif r[col] == best:
                ratios[m].append(1.0)
            elif best == 0.0 or not math.isfinite(best):
                ratios[m].append(math.inf)
            else:
                ratios[m].append(r[col] / best)
    total = len(probs)
    points = sorted({x for rs in ratios.values() for x in rs
                     if math.isfinite(x)} | {1.0})
    curves = []
    for m in methods:
        rs = sorted(ratios[m])
        fracs = [bisect.bisect_right(rs, rho) / total for rho in points]
        curves.append(ProfileCurve(m, tuple(points), tuple(fracs),
                                   solved=sum(1 for x in rs
                                              if math.isfinite(x)),
                                   total=total))
    return curves


def _read_runs(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(RAW_COLUMNS[:-1]) - set(reader.fieldnames or ())
        if missing:
            raise InvalidInput(f"{path}: missing columns {sorted(missing)}")
        rows = []
        for raw in reader:
            row = dict(raw)
            # a truncated row holds None, which float() rejects by TypeError
            try:
                for c in ("n", "seed", "iters", "nfe", "ngrad"):
                    row[c] = int(float(row[c]))
                    if row[c] < 0:
                        raise ValueError
                for c in ("kappa", "eps", "final_gnorm", "time_ms"):
                    row[c] = float(row[c])
                if not 0.0 <= row[c] < math.inf:   # c is time_ms
                    raise ValueError
                c = "final_f"
                val = row.get(c)
                row[c] = float(val) if val not in (None, "") else math.nan
            except (TypeError, ValueError, OverflowError):
                raise InvalidInput(f"{path}:{reader.line_num}: column {c}"
                                   f" holds {raw.get(c)!r}") from None
            rows.append(row)
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    return rows


def performance_profile(run_csv, metric: str, out_path=None):
    """Curves from a runs CSV; optionally written as (method, rho, fraction)."""
    curves = build_profile(_read_runs(run_csv), metric)
    if out_path is not None:
        flat = [{"method": c.method, "rho": rho, "fraction": frac}
                for c in curves for rho, frac in zip(c.rhos, c.fractions)]
        _write_csv(out_path, ("method", "rho", "fraction"), flat)
    return curves


def parse_config(path):
    """Read key=value lines; blanks are skipped, and a '#' that begins the
    line or follows whitespace starts a comment (``out=run#1`` is a value)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = _COMMENT.split(line, maxsplit=1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise InvalidSpec(f"{path}:{lineno}: expected key=value")
            key, val = body.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_DEFAULTS = {
    "verify3d": {"methods": VERIFY_METHODS, "set": (0,), "n": (3,),
                 "kappa": (100.0,), "eps": (0.0,), "seeds": 10},
    "quadbench": {"methods": ("bb", "new"), "set": (4,), "n": (100,),
                  "kappa": (1e4,), "eps": (1e-9,), "seeds": 10},
    "uncbench": {"methods": UNC_METHODS, "set": (0,), "n": (0,),
                 "kappa": (0.0,), "eps": (1e-6,), "seeds": 1},
}


def _parse_list(val, conv):
    if isinstance(val, (tuple, list)):
        return tuple(conv(v) for v in val)
    try:
        return tuple(conv(v) for v in str(val).split(","))
    except ValueError:
        raise InvalidSpec(f"cannot parse list value {val!r}")


def _parse_scalar(key, val, conv):
    if val is None:
        return None
    try:
        return conv(val)
    except ValueError:
        raise InvalidSpec(f"cannot parse {key} value {val!r}")


def _parse_bool(val):
    if isinstance(val, bool):
        return val
    low = str(val).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InvalidSpec(f"cannot parse boolean value {val!r}")


def resolve_spec(verb: str, args) -> ExperimentSpec:
    """Combine defaults, preset, config file and flags into a spec."""
    merged = dict(_DEFAULTS[verb])
    merged.update({"tau1": None, "gamma": None, "out": "results",
                   "trace": False, "zero_times": False})
    fromfile = parse_config(args.config) if args.config else {}
    preset = fromfile.get("preset")
    if args.preset is not None:
        preset = args.preset
    if preset is not None:
        if preset not in PRESETS:
            raise InvalidSpec(f"unknown preset {preset!r} "
                              f"(choose from {', '.join(sorted(PRESETS))})")
        merged["tau1"], merged["gamma"] = PRESETS[preset]
    for key, val in fromfile.items():
        if key == "preset":
            continue
        if key == "experiment":
            # print-config output names the verb; accept it when it agrees
            if val != verb:
                raise InvalidSpec(
                    f"config file is for {val!r}, not {verb!r}")
            continue
        if key not in merged:
            raise InvalidSpec(f"unknown config key {key!r}")
        merged[key] = val
    for key in ("methods", "set", "n", "kappa", "eps", "seeds", "tau1",
                "gamma", "out", "trace", "zero_times"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return ExperimentSpec(
        experiment=verb,
        methods=_parse_list(merged["methods"], str),
        sets=_parse_list(merged["set"], int),
        ns=_parse_list(merged["n"], int),
        kappas=_parse_list(merged["kappa"], float),
        epss=_parse_list(merged["eps"], float),
        seeds=_parse_scalar("seeds", merged["seeds"], int),
        tau1=_parse_scalar("tau1", merged["tau1"], float),
        gamma=_parse_scalar("gamma", merged["gamma"], float),
        out=str(merged["out"]),
        trace=_parse_bool(merged["trace"]),
        zero_times=_parse_bool(merged["zero_times"]),
    )


def print_config(spec: ExperimentSpec) -> None:
    """Emit the resolved spec as config-file syntax, one key per line."""
    line = f"out={spec.out}"
    # parse_config would cut a comment, break the line or strip the ends
    if (_COMMENT.search(line) or "\n" in line or "\r" in line
            or spec.out != spec.out.strip()):
        raise InvalidSpec(f"--print-config cannot write out {spec.out!r}: "
                          "a config file would not read it back")
    print(f"experiment={spec.experiment}")
    print(f"methods={','.join(spec.methods)}")
    print(f"set={','.join(str(s) for s in spec.sets)}")
    print(f"n={','.join(str(n) for n in spec.ns)}")
    print(f"kappa={','.join(repr(k) for k in spec.kappas)}")
    print(f"eps={','.join(repr(e) for e in spec.epss)}")
    print(f"seeds={spec.seeds}")
    if spec.tau1 is not None:
        print(f"tau1={spec.tau1!r}")
    if spec.gamma is not None:
        print(f"gamma={spec.gamma!r}")
    print(line)
    print(f"trace={int(spec.trace)}")
    print(f"zero_times={int(spec.zero_times)}")


def _run_verb(verb, args) -> int:
    spec = resolve_spec(verb, args)
    if args.print_config:
        print_config(spec)
        return 0
    runs_path, agg_path = run_experiment(spec)
    print(f"wrote {runs_path} and {agg_path}")
    return 0


def _profile_verb(args) -> int:
    curves = performance_profile(args.runs_csv, args.metric, args.out)
    for c in curves:
        print(f"{c.method}: solved {c.solved}/{c.total}")
    print(f"wrote {args.out}")
    return 0


def _add_common(sub, grids=True):
    sub.add_argument("--methods", help="comma-separated method names")
    if grids:
        sub.add_argument("--set", help="comma-separated problem sets (1-5)")
        sub.add_argument("--n", help="comma-separated dimensions")
    sub.add_argument("--kappa", help="comma-separated condition numbers")
    sub.add_argument("--eps", help="comma-separated tolerances")
    sub.add_argument("--seeds", type=int, help="number of seeds (0..seeds-1)")
    sub.add_argument("--tau1", type=float, help="initial switching threshold")
    sub.add_argument("--gamma", type=float, help="threshold growth factor")
    sub.add_argument("--preset", help="named (tau1, gamma) preset")
    sub.add_argument("--out", help="output path prefix (default: results)")
    sub.add_argument("--trace", action="store_true", default=None,
                     help="also write per-iteration trace rows")
    sub.add_argument("--zero-times", dest="zero_times", action="store_true",
                     default=None,
                     help="write time_ms as 0 for reproducible files")
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--print-config", action="store_true",
                     help="print the resolved configuration and exit")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtgrad",
        description="Gradient-method benchmarks with quadratic-termination stepsizes.")
    subs = ap.add_subparsers(dest="verb", required=True)

    sv = subs.add_parser("verify3d",
                         help="8-step termination check on the 3-d problem")
    _add_common(sv, grids=False)
    sv.set_defaults(func=lambda a: _run_verb("verify3d", a))

    sq = subs.add_parser("quadbench", help="quadratic benchmark grid")
    _add_common(sq)
    sq.set_defaults(func=lambda a: _run_verb("quadbench", a))

    su = subs.add_parser("uncbench",
                         help="general test functions benchmark")
    _add_common(su, grids=False)
    su.set_defaults(func=lambda a: _run_verb("uncbench", a))

    sp = subs.add_parser("profile",
                         help="performance-profile curves from a runs CSV")
    sp.add_argument("runs_csv", help="runs CSV written by a bench verb")
    sp.add_argument("--metric", choices=("iter", "time"), default="iter")
    sp.add_argument("--out", default="profile.csv")
    sp.set_defaults(func=_profile_verb)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpec, InvalidInput) as exc:
        print(f"qtgrad: error: {exc}", file=sys.stderr)
        return 2
    except (QtgradError, OSError) as exc:
        print(f"qtgrad: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
