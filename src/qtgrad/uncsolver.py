"""Globalized gradient method for general unconstrained minimization.

The solver takes plain negative-gradient steps whose lengths come from
the same adaptive long/short stepsize rule as the quadratic method
(:func:`qtgrad.termination3d.next_stepsize`), globalized by the
Dai-Fletcher nonmonotone line search with the reference-value
bookkeeping of :func:`update_reference`.  No Hessian
access anywhere: the short steps reuse the recurrence route through
recent stepsizes and gradient norms, which is exact on quadratics and a
serviceable model elsewhere.  The line-search and reference constants
are module-level; :class:`UncSolverConfig` holds what callers set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInput, LineSearchFailure, NonDescentDirection
from .report import (
    STATUS_FEVAL_BUDGET,
    STATUS_LINESEARCH,
    STATUS_MAXITER,
    STATUS_NONFINITE,
    STATUS_OK,
    RunReport,
    TraceRecord,
)
from .termination3d import GradientHistory, next_stepsize

# Line search: Armijo fraction, backtracking factor, backtrack budget.
DELTA = 1e-4
ETA = 0.5
MAX_BACKTRACKS = 60
# Iterations without a new best value before the reference value resets.
REF_CAP = 3
# Every trial stepsize is clamped into [ALPHA_MIN, ALPHA_MAX].
ALPHA_MIN = 1e-10
ALPHA_MAX = 1e6
# Budgets: iterations and objective values of one run.
MAX_ITER = 200000
MAX_FEVALS = 1000000


@dataclass(frozen=True)
class ObjectiveFn:
    """A smooth objective: value and gradient callables plus metadata.

    ``value`` and ``gradient`` must be consistent, deterministic and free
    of side effects; the benchmark runner may evaluate different
    objectives concurrently.  ``x0`` is the standard starting point.
    """

    name: str
    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray


@dataclass(frozen=True)
class ReferenceState:
    """Dai-Fletcher reference value bookkeeping.

    ``f_r`` is the value the line search compares against; ``f_min`` the
    best value seen; ``f_c`` the largest value since ``f_min`` last
    improved; ``t`` counts iterations since that improvement, reset when
    it reaches ``cap``.
    """

    f_r: float
    f_min: float
    f_c: float
    t: int
    cap: int


def init_reference(f1: float, cap: int) -> ReferenceState:
    return ReferenceState(f_r=f1, f_min=f1, f_c=f1, t=0, cap=cap)


def update_reference(state: ReferenceState, f_k: float) -> ReferenceState:
    """Advance the reference state with the newest function value."""
    if f_k < state.f_min:
        return replace(state, f_min=f_k, f_c=f_k, t=0)
    f_c = max(state.f_c, f_k)
    t = state.t + 1
    if t == state.cap:
        return replace(state, f_r=f_c, f_c=f_k, t=0)
    return replace(state, f_c=f_c, t=t)


def _search(value_fn, x, g, d, alpha0, f_r, delta, eta, max_backtracks):
    """Backtracking loop; also returns the accepted point and value.

    A NaN trial value ends the loop as if accepted, for the caller to report.
    """
    gd = float(g @ d)
    if gd >= 0.0:
        raise NonDescentDirection(f"g'd = {gd}")
    lam = float(alpha0)
    nfe = 0
    for _ in range(max_backtracks + 1):
        trial = x + lam * d
        f_trial = float(value_fn(trial))
        nfe += 1
        if f_trial <= f_r + delta * lam * gd or math.isnan(f_trial):
            return lam, nfe, trial, f_trial
        lam *= eta
    raise LineSearchFailure(
        f"no acceptable step within {nfe} evaluations from alpha0={alpha0}")


def dai_fletcher_search(f, x, g, d, alpha0, f_r, delta=DELTA, eta=ETA,
                        max_backtracks=MAX_BACKTRACKS):
    """Dai-Fletcher nonmonotone backtracking.

    Finds lambda = alpha0 * eta^j for the smallest j >= 0 with
    f(x + lambda d) <= f_r + delta * lambda * g'd and returns
    (lambda, nfe) with nfe = j + 1.  ``f`` is the value callable.
    """
    lam, nfe, _, _ = _search(f, x, g, d, alpha0, f_r, delta, eta,
                             max_backtracks)
    return lam, nfe


@dataclass(frozen=True)
class UncSolverConfig:
    """Knobs for the globalized solver.

    ``tau1`` and ``gamma`` start and scale the adaptive threshold.  The
    run stops at ||g||_inf <= ``eps_inf``, or after ``MAX_ITER``
    iterations or ``MAX_FEVALS`` values.  ``use_new_step`` picks alg1 over
    alg1-bbq; ``keep_trace`` records every iteration.  Constants: this
    module's ``ALPHA_MIN``, ``ALPHA_MAX``, ``MAX_ITER``, ``MAX_FEVALS``,
    ``DELTA``, ``ETA``, ``MAX_BACKTRACKS`` and ``REF_CAP``,
    ``stepsizes.TOL_DEN`` and ``termination3d.TOL_DEP``.
    """

    tau1: float = 0.65
    gamma: float = 1.4
    eps_inf: float = 1e-6
    use_new_step: bool = True
    keep_trace: bool = False

    def __post_init__(self):
        if self.gamma < 1.0:
            raise ValueError("gamma must be at least 1")
        if not 0.0 < self.eps_inf < math.inf:
            raise ValueError("eps_inf must lie in (0, inf)")


def _norm_inf(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def solve(f: ObjectiveFn, x0=None, cfg: UncSolverConfig | None = None) -> RunReport:
    """Run the adaptive gradient method on a general objective.

    Per iteration: search along -g from the trial stepsize, move, then
    pick the next trial by the rule the quadratic method uses
    (:func:`qtgrad.termination3d.next_stepsize`): ratio test against tau,
    short steps from the three-point recurrence when the last three pairs
    all have positive curvature, the BBQ step when only two do, bare BB2
    otherwise, with tau shrunk or grown by gamma.  When the newest pair
    has s'y <= 0 the trial resets to min(1, ||x||_inf) / ||g||_inf.  Every
    trial is clamped into [ALPHA_MIN, ALPHA_MAX].  Stops at
    ||g||_inf <= eps_inf or on budget exhaustion; a failed line search
    aborts with its diagnostic.  A starting point that is not finite, or
    whose shape is not (f.dimension,), raises InvalidInput.  A value or
    gradient that is not finite, at the start, at a NaN trial of the line
    search or at an accepted point, ends the run at once with status
    "nonfinite"; an infinite trial value is only a rejected trial.
    """
    cfg = cfg or UncSolverConfig()
    method = "alg1" if cfg.use_new_step else "alg1-bbq"
    rep = RunReport(method=method)
    t0 = time.perf_counter()
    x = np.array(f.x0 if x0 is None else x0, dtype=float)
    if x.shape != (f.dimension,):
        raise InvalidInput("x0 has the wrong dimension")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("x0 has entries that are not finite")
    g = np.asarray(f.gradient(x), dtype=float)
    fval = float(f.value(x))
    rep.ngrad = 1
    rep.nfe = 1
    ref = init_reference(fval, REF_CAP)
    hist = GradientHistory()
    gg = float(g @ g)
    if gg > 0.0:
        hist.push(gg)
    ginf = _norm_inf(g)

    def finish(status: str, message: str = "") -> RunReport:
        rep.status = status
        rep.message = message
        rep.final_gnorm = ginf
        rep.final_f = fval
        rep.wall_time = time.perf_counter() - t0
        return rep

    if not (math.isfinite(fval) and math.isfinite(gg)):
        return finish(STATUS_NONFINITE, "starting value or gradient is not finite")
    if ginf <= cfg.eps_inf:
        return finish(STATUS_OK)
    xinf = _norm_inf(x)
    alpha = (xinf / ginf) if xinf > 0.0 else (1.0 / ginf)
    alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
    branch = "init"
    tau = cfg.tau1

    while True:
        d = -g
        try:
            lam, used, x_new, f_new = _search(
                f.value, x, g, d, alpha, ref.f_r, DELTA, ETA, MAX_BACKTRACKS)
        except LineSearchFailure as exc:
            rep.nfe += MAX_BACKTRACKS + 1
            return finish(STATUS_LINESEARCH, str(exc))
        rep.nfe += used
        it = rep.iterations + 1
        if not math.isfinite(f_new):
            return finish(STATUS_NONFINITE, f"value not finite at iteration {it}")
        hist.set_stepsize(lam)
        g_new = np.asarray(f.gradient(x_new), dtype=float)
        rep.ngrad += 1
        gg_new = float(g_new @ g_new)
        if not math.isfinite(gg_new):
            return finish(STATUS_NONFINITE, f"gradient not finite at iteration {it}")
        rep.iterations += 1
        rep.count(branch)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        new_bb1 = math.nan
        new_bb2 = math.nan
        if sy > 0.0:
            new_bb1 = float(s @ s) / sy
            yy = float(y @ y)
            if yy > 0.0:
                new_bb2 = sy / yy
        x, g, gg, fval = x_new, g_new, gg_new, f_new
        ginf = _norm_inf(g)
        if gg > 0.0:
            hist.push(gg, new_bb1, new_bb2)
        ref = update_reference(ref, fval)
        if cfg.keep_trace:
            rep.trace.append(TraceRecord(
                k=rep.iterations, stepsize=lam, branch=branch,
                gnorm=ginf, fval=fval, bb1=new_bb1, bb2=new_bb2, tau=tau))

        if ginf <= cfg.eps_inf:
            return finish(STATUS_OK)
        if rep.iterations >= MAX_ITER:
            return finish(STATUS_MAXITER, "iteration budget exhausted")
        if rep.nfe >= MAX_FEVALS:
            return finish(STATUS_FEVAL_BUDGET, "function evaluation budget exhausted")

        alpha, branch, tau = next_stepsize(
            hist, rep.iterations + 1, tau, cfg.gamma, cfg.use_new_step)
        if alpha is None:
            alpha = min(1.0 / ginf, _norm_inf(x) / ginf)
        alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
