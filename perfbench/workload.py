#!/usr/bin/env python3
"""One benchmark workload, run in a process of its own by run.py.

    python3 perfbench/workload.py --workload refgrid --seed 0 --seconds 25 --trace 0
    python3 perfbench/workload.py --workload refgrid --seed 0 --setup-only

``src`` must be on PYTHONPATH.  The run repeats whole passes over the
workload's inputs until ``--seconds`` have elapsed, checks every solve of
every pass against an oracle that does not rest on the solver's own
status, and prints one JSON object: correct/attempted/failed, the metrics of the
mode (end-to-end with --trace 0, per-layer with --trace 1) and a "meta"
record with the versions, the backend and the grid fingerprint.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: dot-product reduction order
# is then fixed, so iteration counts repeat exactly, and each workload
# keeps a single busy thread.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import qtgrad  # noqa: E402
from qtgrad import (benchcli, quadprob, quadsolver, testfuns,  # noqa: E402
                    uncsolver)

import speed  # noqa: E402
import tracer as tr  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "refgrid_fingerprints.json")

# Slack for values that went through the CSV's nine significant digits.
CSV_RTOL = 1e-8
# f and ||g|| are both exact functions of the final x; allow roundoff only.
F_RTOL = 1e-6

SOLVER_SITES = (("qtgrad.quadsolver", "solve_bb"),
                ("qtgrad.quadsolver", "solve_new"),
                ("qtgrad.benchcli", "solve_bb"),
                ("qtgrad.benchcli", "solve_new"))


@dataclasses.dataclass
class Pass:
    """What one pass over a workload's inputs produced."""

    wall: float          # pass time less the probes' time
    iters: list          # per solve, in a fixed order
    evals: list          # nfe + ngrad per solve, same order
    seconds: list        # per-solve wall time, benchmark-measured
    probes: list         # probe time just before each solve (speed.py)
    failed: int          # solves that failed the oracle
    fingerprint: dict | None = None
    busy: float = 0.0    # grid only: the runs' own time_ms, summed


def quad_oracle(p, x0, eps, status, gnorm, fval):
    """True when a quadratic run reports ok and really converged.

    ||g0|| is recomputed from x0, and f must agree with ||g|| through
    f = vs * sum(g_i^2 / (gs^2 v_i)), which lies between
    vs ||g||^2 / (gs^2 max v) and vs ||g||^2 / (gs^2 min v).
    """
    if status != "ok" or not (math.isfinite(gnorm) and math.isfinite(fval)):
        return False
    g0 = float(np.linalg.norm(quadprob.gradient(p, x0)))
    if gnorm > eps * g0 * (1.0 + CSV_RTOL):
        return False
    v = p.spectrum
    base = p.value_scale * gnorm * gnorm / (p.grad_scale ** 2)
    lo = base / float(v.max()) * (1.0 - F_RTOL)
    hi = base / float(v.min()) * (1.0 + F_RTOL)
    return lo <= fval <= hi


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Refgrid:
    """The ROADMAP reference grid through benchcli.run_experiment.

    quadbench --set 1,4 --n 100,1000 --kappa 1e2,1e4 --eps 1e-6
    --methods bb,new,bbq --seeds 20, run once per problem seed: a pass
    runs the grid at problem seeds GRIDS * seed ... GRIDS * seed + GRIDS - 1,
    so seed 0 starts with the grid the ROADMAP specifies.  Which problems
    a seed draws moves the grid's iteration counts and its median solve
    time; over 10 seeds with one grid a pass, solve_ms_p50 spread 0.16
    between quartiles, close to its bound.  Four grids a pass average
    that out.
    """

    SETS = (1, 4)
    NS = (100, 1000)
    KAPPAS = (1e2, 1e4)
    EPS = 1e-6
    METHODS = ("bb", "new", "bbq")
    STARTS = 20
    GRIDS = 4
    PROBE_REF_S = speed.REF_S

    def __init__(self, seed, workdir, problem_seeds=None):
        if problem_seeds is None:
            problem_seeds = range(self.GRIDS * seed,
                                  self.GRIDS * (seed + 1))
        self.problem_seeds = tuple(problem_seeds)
        os.environ["QTGRAD_WORKERS"] = "1"
        self.specs = {ps: benchcli.ExperimentSpec(
            experiment="quadbench", methods=self.METHODS, sets=self.SETS,
            ns=self.NS, kappas=self.KAPPAS, epss=(self.EPS,),
            seeds=self.STARTS, tau1=None, gamma=None,
            out=os.path.join(workdir, f"grid{ps}"))
            for ps in self.problem_seeds}

    def setup(self):
        self.problems = {(ps, s, n, k): quadprob.generate(s, n, k, ps)
                         for ps in self.problem_seeds for s in self.SETS
                         for n in self.NS for k in self.KAPPAS}

    def prepare(self):
        self.probe = speed.probe
        self.starts = {(key, r): quadprob.starting_point(p, r)
                       for key, p in self.problems.items()
                       for r in range(self.STARTS)}
        self.verdicts = {}

    def row_ok(self, ps, row):
        key = (ps, int(row["set"]), int(row["n"]), float(row["kappa"]))
        rkey = (key, int(row["seed"]), row["status"], row["final_gnorm"],
                row["final_f"])
        if rkey not in self.verdicts:
            self.verdicts[rkey] = quad_oracle(
                self.problems[key], self.starts[(key, int(row["seed"]))],
                float(row["eps"]), row["status"], float(row["final_gnorm"]),
                float(row["final_f"]))
        return self.verdicts[rkey]

    def run_pass(self, traced):
        # traced passes feed only per-layer metrics: no extra wrapper there
        timer = tr.SolveTimer(SOLVER_SITES if traced is None else (),
                              self.probe)
        wall = 0.0
        rows = []
        aggs = []
        with timer:
            for ps in self.problem_seeds:
                benchcli.PROBLEM_SEED = ps
                t0 = time.perf_counter()
                runs_path, agg_path = benchcli.run_experiment(self.specs[ps])
                wall += time.perf_counter() - t0
                rows += [(ps, r) for r in read_csv(runs_path)]
                aggs.append(read_csv(agg_path))
        if traced is None and len(timer.seconds) != len(rows):
            raise RuntimeError(f"timed {len(timer.seconds)} of {len(rows)} "
                               f"grid solves: a solver entry point moved")
        return Pass(
            wall=wall - sum(timer.probes),
            iters=[int(r["iters"]) for _, r in rows],
            evals=[int(r["nfe"]) + int(r["ngrad"]) for _, r in rows],
            seconds=timer.seconds,
            probes=timer.probes,
            failed=sum(not self.row_ok(ps, r) for ps, r in rows),
            fingerprint=fingerprint(aggs[0]),
            busy=sum(float(r["time_ms"]) * 1e-3 for _, r in rows))


class QuadLarge:
    """One n = 1e6 quadratic solved by solve_bb and solve_new.

    quadprob.generate(1, 1e6, 1e4, seed) from starting-point replicates
    0-4 at eps 1e-6: ten solves of 200-390 iterations, about 1.5 s each,
    per pass, nearly all of it in the vector kernel over a working set of
    about 40 MB.  BB's iteration count is erratic from start to start;
    five starts per method keep the seed-to-seed spread of the slowest
    solves, which set solve_ms_p95, near 0.13 between quartiles (0.16
    with two starts; iteration counts over 30 seeds at n = 1e5).
    """

    N = 1_000_000
    KAPPA = 1e4
    EPS = 1e-6
    SOLVERS = ("solve_bb", "solve_new")
    STARTS = 5
    PROBE_REF_S = speed.STREAM_REF_S
    PROBE_REPS = 5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cfg = quadsolver.QuadSolverConfig(eps=self.EPS)

    def setup(self):
        self.problem = quadprob.generate(1, self.N, self.KAPPA, self.seed)

    def prepare(self):
        self.probe = speed.StreamProbe()
        self.starts = [quadprob.starting_point(self.problem, r)
                       for r in range(self.STARTS)]

    def run_pass(self, traced):
        res = Pass(wall=0.0, iters=[], evals=[], seconds=[], probes=[],
                   failed=0)
        probing = 0.0
        t_pass = time.perf_counter()
        for x0 in self.starts:
            for name in self.SOLVERS:
                # looked up at call time, so the tracer's hooks see the call
                solve = getattr(quadsolver, name)
                p0 = time.perf_counter()
                res.probes.append(speed.probe_time(self.probe,
                                                   self.PROBE_REPS))
                t0 = time.perf_counter()
                probing += t0 - p0
                rep = solve(self.problem, x0, self.cfg)
                res.seconds.append(time.perf_counter() - t0)
                res.iters.append(rep.iterations)
                res.evals.append(rep.nfe + rep.ngrad)
                res.failed += not quad_oracle(self.problem, x0, self.EPS,
                                              rep.status, rep.final_gnorm,
                                              rep.final_f)
        res.wall = time.perf_counter() - t_pass - probing
        return res


class LastPoint:
    """Gradient callable that remembers where it was last evaluated.

    The solver's final iterate is the last point its gradient was taken
    at, so the oracle can recompute the gradient there itself.
    """

    def __init__(self, fn):
        self.fn = fn
        self.x = None

    def __call__(self, x):
        self.x = x
        return self.fn(x)


class UncSuite:
    """uncsolver.solve, alpha_new on and off, over builtin_suite().

    Each function runs from its standard start and from three starts
    perturbed from it by up to 10% (at least 0.1 per coordinate), drawn
    from the seed: 11 x 4 x 2 = 88 solves per pass.
    """

    EPS_INF = 1e-6
    PERTURBED = 3
    PROBE_REF_S = speed.REF_S

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cfgs = [uncsolver.UncSolverConfig(eps_inf=self.EPS_INF,
                                               use_new_step=flag)
                     for flag in (True, False)]

    def setup(self):
        self.funcs = testfuns.builtin_suite()

    def prepare(self):
        self.probe = speed.probe
        self.cases = []
        for i, f in enumerate(self.funcs):
            rng = np.random.default_rng([self.seed, i])
            x0 = np.asarray(f.x0, dtype=float)
            starts = [x0] + [
                x0 + 0.1 * np.maximum(1.0, np.abs(x0))
                * rng.uniform(-1.0, 1.0, x0.size)
                for _ in range(self.PERTURBED)]
            last = LastPoint(f.gradient)
            plain = dataclasses.replace(f, gradient=last)
            self.cases.append((f, last, plain, starts))

    def run_pass(self, traced):
        res = Pass(wall=0.0, iters=[], evals=[], seconds=[], probes=[],
                   failed=0)
        runs = []
        probe = self.probe
        t_pass = time.perf_counter()
        for f, last, plain, starts in self.cases:
            obj = plain
            if traced is not None:
                obj = traced.objective(plain)
            for x0 in starts:
                for cfg in self.cfgs:
                    p0 = time.perf_counter()
                    probe()
                    t0 = time.perf_counter()
                    rep = uncsolver.solve(obj, x0, cfg)
                    t1 = time.perf_counter()
                    res.probes.append(t0 - p0)
                    res.seconds.append(t1 - t0)
                    runs.append((f, last.x, rep))
        res.wall = time.perf_counter() - t_pass - sum(res.probes)
        for f, x, rep in runs:
            res.iters.append(rep.iterations)
            res.evals.append(rep.nfe + rep.ngrad)
            res.failed += not self.converged(f, x, rep)
        return res

    def converged(self, f, x, rep):
        if rep.status != "ok" or x is None:
            return False
        g = np.asarray(f.gradient(x), dtype=float)
        ginf = float(np.max(np.abs(g))) if g.size else 0.0
        return math.isfinite(ginf) and ginf <= self.EPS_INF


WORKLOADS = {"refgrid": Refgrid, "quad_large": QuadLarge,
             "unc_suite": UncSuite}
# The seed whose grid fingerprint every traced run checks; seed 0 is the
# grid the ROADMAP specifies.
FINGERPRINT_SEED = 0


def fingerprint(agg_rows):
    """iters_mean and solved per agg cell, exactly as the CSV writes them."""
    return {"|".join(r[c] for c in ("method", "set", "n", "kappa", "eps")):
            [r["solved"], r["iters_mean"]] for r in agg_rows}


def recorded_fingerprint(seed):
    """The fingerprint recorded for this seed and backend, or None."""
    try:
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            rec = json.load(fh)
    except FileNotFoundError:
        return None
    if rec.get("backend") != qtgrad.backend_name():
        return None
    return rec["seeds"].get(str(seed))


def fingerprint_check(workdir):
    """Cells of the grid at FINGERPRINT_SEED that differ from the record.

    One untraced grid pass.  With no record for the active backend no
    cell is confirmed, so every cell counts as differing.
    """
    grid = Refgrid(FINGERPRINT_SEED, workdir, (FINGERPRINT_SEED,))
    grid.setup()
    grid.prepare()
    fp = grid.run_pass(None).fingerprint
    ref = recorded_fingerprint(FINGERPRINT_SEED)
    if ref is None:
        return len(fp)
    return sum(fp.get(k) != v for k, v in ref.items()) + len(set(fp) - set(ref))


# Kernel calls as the solvers make them; sizes for the L0 schema.
KERNEL_SIZES = (("n1e2", 100), ("n1e3", 1000), ("n1e4", 10_000),
                ("n1e5", 100_000))


def kernel_sizes():
    """Median ns per call of each kernel at each size; None if absent."""
    try:
        kernels = importlib.import_module("qtgrad.kernels")
    except ImportError:
        kernels = None
    out = {}
    for label, n in KERNEL_SIZES:
        rng = np.random.default_rng(n)
        v = rng.uniform(1.0, 1e4, n)
        xstar = rng.standard_normal(n)
        x = xstar + rng.standard_normal(n)
        g_old = 2.0 * v * (x - xstar)
        g_new = np.zeros(n)
        calls = {
            # a tiny alpha keeps the iterate from drifting
            "quad_step": lambda: kernels.quad_step(v, xstar, x, g_old,
                                                   g_new, 1e-30, 2.0),
            "quad_gradient": lambda: kernels.quad_gradient(v, xstar, x, 2.0,
                                                           g_old),
            "quad_value": lambda: kernels.quad_value(v, xstar, x, 1.0),
        }
        for name, call in calls.items():
            try:
                out[(name, label)] = ns_per_call(call)
            except (AttributeError, TypeError):
                out[(name, label)] = None
    return out


def ns_per_call(call, batch_s=0.01, repeats=5):
    call()
    number = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(number):
            call()
        dt = time.perf_counter_ns() - t0
        if dt >= batch_s * 1e9:
            break
        number *= 2
    samples = [dt / number]
    for _ in range(repeats - 1):
        t0 = time.perf_counter_ns()
        for _ in range(number):
            call()
        samples.append((time.perf_counter_ns() - t0) / number)
    return statistics.median(samples)


def quantile(values, q):
    """Inclusive-method quantile q in (0, 1) of at least one value."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, kids_kb) / 1024.0


def solve_times(passes, ref_s):
    """Each distinct solve's median time over passes, and the median rest.

    The rest of a pass is its time outside the solver calls (grid
    plumbing, CSV writing).  With ref_s every time is first scaled by the
    probe timed just before it (speed.py; the rest by its pass's median
    probe); with ref_s None the times are taken as measured.
    """
    def scaled(p):
        if ref_s is None:
            return p.seconds, p.wall - sum(p.seconds)
        solves = [t * ref_s / pr for t, pr in zip(p.seconds, p.probes)]
        rest = (p.wall - sum(p.seconds)) * ref_s / statistics.median(p.probes)
        return solves, rest
    per_pass = [scaled(p) for p in passes]
    solves = [statistics.median(ts) for ts in zip(*(s for s, _ in per_pass))]
    return solves, statistics.median(r for _, r in per_pass)


def timings(solves, rest, iters):
    wall = sum(solves) + rest
    return {
        "wall_s": wall,
        "runs_per_s": len(solves) / wall,
        "solve_ms_p50": statistics.median(solves) * 1e3,
        "solve_ms_p95": quantile(solves, 0.95) * 1e3,
        "us_per_iter": sum(solves) / iters * 1e6,
    }


def end_to_end(passes, attempted, failed, ref_s):
    iters = sum(passes[0].iters)
    return {
        **timings(*solve_times(passes, ref_s), iters),
        "iters_total": iters,
        "evals_total": sum(passes[0].evals),
        "solved_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def _per_pass(value, passes):
    out = value / passes
    return int(out) if float(out).is_integer() else out


def per_layer(t, traced, untraced, kernels_by_size, cells_differ):
    """Per-layer metrics from the traced passes, averaged per pass."""
    n = len(traced)
    st = t.stats
    m = {}

    def calls_self(name):
        m[f"{name}.calls"] = _per_pass(st[name].calls, n)
        m[f"{name}.self_s"] = st[name].self_ns / n * 1e-9

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("quad_step", "quad_gradient", "quad_value"):
        calls_self(f"kernels.{name}")
    qs = st["kernels.quad_step"]
    m["kernels.quad_step.ns_per_call"] = ratio(qs.self_ns, qs.calls)
    m["kernels.quad_step.bytes_computed_per_call"] = ratio(
        8 * tr.KERNEL_VECTORS["quad_step"] * qs.elems, qs.calls)
    for (name, label), ns in kernels_by_size.items():
        size = dict(KERNEL_SIZES)[label]
        m[f"kernels.{name}.ns_{label}"] = 0.0 if ns is None else ns
        m[f"kernels.{name}.bytes_computed_{label}"] = (
            8 * tr.KERNEL_VECTORS[name] * size)

    for name in ("termination3d.alpha_new_bb", "stepsizes.bbq_stepsize",
                 "stepsizes.sd_stepsize"):
        calls_self(name)
        m[f"{name}.degenerate"] = _per_pass(st[name].errors, n)
        m[f"{name}.accept_ratio"] = ratio(st[name].accepted, st[name].calls)
    an = st["termination3d.alpha_new_bb"]
    m["termination3d.alpha_new_bb.us_per_call"] = ratio(an.self_ns,
                                                        an.calls) * 1e-3

    qsolve = st["quadsolver.solve"]
    calls_self("quadsolver.solve")
    m["quadsolver.solve.self_us_per_iter"] = ratio(qsolve.self_ns,
                                                   qsolve.iters) * 1e-3
    usolve = st["uncsolver.solve"]
    calls_self("uncsolver.solve")
    calls_self("uncsolver.linesearch")
    m["uncsolver.linesearch.backtracks"] = _per_pass(
        st["uncsolver.linesearch"].backtracks, n)
    for prefix, stat, labels in (("quadsolver", qsolve, tr.QUAD_BRANCHES),
                                 ("uncsolver", usolve, tr.UNC_BRANCHES)):
        for label in labels:
            m[f"{prefix}.branch.{label}"] = _per_pass(
                stat.branches.get(label, 0), n)
        m[f"{prefix}.branch.other"] = _per_pass(
            sum(c for lb, c in stat.branches.items() if lb not in labels), n)

    calls_self("testfuns.value")
    calls_self("testfuns.gradient")
    calls_self("quadprob.generate")
    calls_self("quadprob.starting_point")
    m["quadprob.generate.distinct"] = len(st["quadprob.generate"].keys)

    bench = st["benchcli.run_experiment"]
    m["benchcli.run_experiment.self_s"] = bench.self_ns / n * 1e-9
    m["benchcli.cells"] = len(traced[0].iters) if bench.calls else 0
    wall_all = sum(p.wall for p in traced)
    # the grid runs serially (QTGRAD_WORKERS=1), so one worker
    m["benchcli.pool.efficiency"] = (
        ratio(sum(p.busy for p in traced), wall_all) if bench.calls else 0.0)

    m["trace_overhead_frac"] = (min(p.wall for p in traced)
                                / min(p.wall for p in untraced) - 1.0)
    m["trace.wall_s"] = wall_all / n
    m["trace.unaccounted_frac"] = 1.0 - t.total_self_ns() * 1e-9 / wall_all
    m["fingerprint.cells_differ"] = cells_differ
    return m


def metadata(seed):
    return {
        "seed": seed,
        "backend": qtgrad.backend_name(),
        "qtgrad": getattr(qtgrad, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


def run(args):
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(ROOT, ".bench_build"))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        if args.setup_only:
            return None
        return measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, workdir):
    wl.prepare()
    kernels_by_size = kernel_sizes() if args.trace else {}
    t = tr.Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        # with tracing on, traced and untraced passes alternate so the
        # overhead estimate sees the same machine conditions
        use_trace = bool(args.trace) and len(traced) < len(untraced)
        if use_trace:
            with t:
                traced.append(wl.run_pass(t))
        else:
            untraced.append(wl.run_pass(None))
        done = time.perf_counter() - t_start >= args.seconds
        if done and (not args.trace or traced):
            break
    passes = untraced + traced
    attempted = sum(len(p.iters) for p in passes)
    # every pass runs the same inputs, so its iteration counts must repeat
    failed = sum(max(p.failed, sum(a != b for a, b in
                                   zip(p.iters, passes[0].iters)))
                 for p in passes)
    if args.trace:
        metrics = per_layer(t, traced, untraced, kernels_by_size,
                            fingerprint_check(workdir))
    else:
        metrics = end_to_end(untraced, attempted, failed, wl.PROBE_REF_S)
    meta = metadata(args.seed)
    if not args.trace:
        meta["unscaled"] = timings(*solve_times(untraced, None),
                                   sum(passes[0].iters))
        meta["probe_s_median"] = statistics.median(
            pr for p in untraced for pr in p.probes)
        meta["probe_ref_s"] = wl.PROBE_REF_S
    meta["pass_wall_s"] = {"untraced": [p.wall for p in untraced],
                           "traced": [p.wall for p in traced]}
    meta["absent_hooks"] = sorted(t.absent)
    if passes[0].fingerprint is not None:
        meta["fingerprint"] = passes[0].fingerprint
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "meta": meta}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.abspath(qtgrad.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"qtgrad imported from {qtgrad.__file__}, not this checkout")
    out = run(args)
    if out is not None:
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
