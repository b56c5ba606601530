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

The direction is always -g, and the solver never forms it: ``_search``
takes ``d=None`` for -g, using g'd = -g'g and the trial x - lam g.  Both
are bitwise what the explicit -g gives, because IEEE rounding is
symmetric in sign: every product g_i (-g_i) is -(g_i g_i), so the dot is
the negated g'g, and x + lam (-g) is x - lam g element by element.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
# Budgets: iterations and objective values of one run.
MAX_ITER = 200000
MAX_FEVALS = 1000000


@dataclass(frozen=True)
class ObjectiveFn:
    """A smooth objective: value and gradient callables plus metadata.

    ``value`` and ``gradient`` must be consistent, deterministic and free
    of side effects.  ``x0`` is the standard starting point, and its size
    is the function's dimension.
    """

    name: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray


class ReferenceState(NamedTuple):
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
    return ReferenceState(f1, f1, f1, 0, cap)


def update_reference(state: ReferenceState, f_k: float) -> ReferenceState:
    """Advance the reference state with the newest function value."""
    f_r, f_min, f_c, t, cap = state
    if f_k < f_min:
        return ReferenceState(f_r, f_k, f_k, 0, cap)
    f_c = max(f_c, f_k)
    t += 1
    if t == cap:
        return ReferenceState(f_c, f_min, f_k, 0, cap)
    return ReferenceState(f_r, f_min, f_c, t, cap)


def _search(value_fn, x, g, d, alpha0, f_r, delta, eta, max_backtracks, *,
            gg=None):
    """Backtracking loop; also returns the accepted point and value.

    ``d=None`` searches along -g without forming it: g'd is -g'g and the
    trial is x - lam g, bitwise what d = -g gives (IEEE rounding is
    symmetric in sign).  ``gg``, when given with ``d=None``, is g'g as
    the caller already holds it.  A NaN trial value ends the loop as if
    accepted, for the caller to report.
    """
    if d is not None:
        gd = float(g @ d)
    else:
        gd = -(float(g.dot(g)) if gg is None else gg)
    if gd >= 0.0:
        raise NonDescentDirection(f"g'd = {gd}")
    lam = float(alpha0)
    nfe = 0
    for _ in range(max_backtracks + 1):
        trial = x - lam * g if d is None else x + lam * d
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
    module's ``MAX_ITER``, ``MAX_FEVALS``, ``DELTA``, ``ETA``,
    ``MAX_BACKTRACKS`` and ``REF_CAP``, ``stepsizes.TOL_DEN`` and
    ``termination3d.TOL_DEP``.
    """

    tau1: float = 0.65
    gamma: float = 1.4
    eps_inf: float = 1e-6
    use_new_step: bool = True
    keep_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau1 <= 1.0:
            raise ValueError("tau1 must lie in (0, 1]")
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError("gamma must lie in [1, inf)")
        if not 0.0 < self.eps_inf < math.inf:
            raise ValueError("eps_inf must lie in (0, inf)")


def _norm_inf(a: np.ndarray) -> float:
    # the method, not np.max: same value, half the call overhead
    return float(np.abs(a).max()) if a.size else 0.0


# An objective or the solver's dots may overflow to inf or nan, which the
# run reports as "nonfinite"; entered once per solve, not per iteration.
@np.errstate(over="ignore", invalid="ignore")
def solve(f: ObjectiveFn, x0=None, cfg: UncSolverConfig | None = None) -> RunReport:
    """Run the adaptive gradient method on a general objective.

    Per iteration: search along -g from the trial stepsize, move, then
    pick the next trial by the rule the quadratic method uses
    (:func:`qtgrad.termination3d.next_stepsize`): ratio test against tau,
    short steps from the three-point recurrence when the last three pairs
    all have positive curvature, the BBQ step when only two do, bare BB2
    otherwise, with tau shrunk or grown by gamma.  The first trial is
    ||x||_inf / ||g||_inf; when the newest pair has s'y <= 0 the trial
    resets to min(1, ||x||_inf) / ||g||_inf.  Both are 1 / ||g||_inf at
    x = 0.  No trial is clamped, so f times c gives every trial divided
    by c.  Stops at
    ||g||_inf <= eps_inf or on budget exhaustion; a failed line search
    aborts with its diagnostic, and so does a g'g that underflows to 0
    while ||g||_inf > eps_inf, which leaves -g no descent to search.  A
    starting point that is not finite, or whose shape is not that of
    f.x0, raises InvalidInput, and so does a starting gradient of
    another shape than x.  A value or
    gradient that is not finite, at the start, at a NaN trial of the line
    search or at an accepted point, ends the run at once with status
    "nonfinite"; an infinite trial value is only a rejected trial.
    """
    cfg = cfg or UncSolverConfig()
    method = "alg1" if cfg.use_new_step else "alg1-bbq"
    rep = RunReport(method=method)
    t0 = time.perf_counter()
    x = np.array(f.x0 if x0 is None else x0, dtype=float)
    if x.shape != np.shape(f.x0):
        raise InvalidInput("x0 has the wrong dimension")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("x0 has entries that are not finite")
    value, gradient = f.value, f.gradient
    g = np.asarray(gradient(x), dtype=float)
    if g.shape != x.shape:
        raise InvalidInput("gradient has the wrong dimension")
    fval = float(value(x))
    it = 0
    nfe = ngrad = 1
    ref = init_reference(fval, REF_CAP)
    hist = GradientHistory()
    # ndarray.dot, not @, for every dot here: the same BLAS ddot, bit for
    # bit, with 0.7 us less dispatch per call
    gg = float(g.dot(g))
    if gg > 0.0:
        hist.push(gg)
    ginf = _norm_inf(g)

    def finish(status: str, message: str = "") -> RunReport:
        rep.iterations = it
        rep.nfe = nfe
        rep.ngrad = ngrad
        rep.status = status
        rep.message = message
        rep.final_gnorm = ginf
        rep.final_f = fval
        rep.wall_time = time.perf_counter() - t0
        return rep

    if not (math.isfinite(fval) and math.isfinite(gg)):
        return finish(STATUS_NONFINITE, "starting value or gradient is not finite")
    eps_inf = cfg.eps_inf
    if ginf <= eps_inf:
        return finish(STATUS_OK)
    xinf = _norm_inf(x)
    alpha = (xinf / ginf) if xinf > 0.0 else (1.0 / ginf)
    branch = "init"
    tau, gamma, use_new_step = cfg.tau1, cfg.gamma, cfg.use_new_step
    trace = rep.trace if cfg.keep_trace else None

    while True:
        try:
            lam, used, x_new, f_new = _search(
                value, x, g, None, alpha, ref.f_r, DELTA, ETA, MAX_BACKTRACKS,
                gg=gg)
        except LineSearchFailure as exc:
            nfe += MAX_BACKTRACKS + 1
            return finish(STATUS_LINESEARCH, str(exc))
        except NonDescentDirection:
            return finish(STATUS_LINESEARCH,
                          f"g'g underflows to 0 at ||g||_inf = {ginf} "
                          f"after iteration {it}")
        nfe += used
        if not math.isfinite(f_new):
            return finish(STATUS_NONFINITE,
                          f"value not finite at iteration {it + 1}")
        hist.set_stepsize(lam)
        g_new = np.asarray(gradient(x_new), dtype=float)
        ngrad += 1
        gg_new = float(g_new.dot(g_new))
        if not math.isfinite(gg_new):
            return finish(STATUS_NONFINITE,
                          f"gradient not finite at iteration {it + 1}")
        it += 1
        rep.count(branch)
        s = x_new - x
        y = g_new - g
        sy = float(s.dot(y))
        new_bb1 = new_bb2 = math.nan
        if sy > 0.0:
            new_bb1 = float(s.dot(s)) / sy
            yy = float(y.dot(y))
            if yy > 0.0:
                new_bb2 = sy / yy
        x, g, gg, fval = x_new, g_new, gg_new, f_new
        ginf = _norm_inf(g)
        if gg > 0.0:
            hist.push(gg, new_bb1, new_bb2)
        ref = update_reference(ref, fval)
        if trace is not None:
            trace.append(TraceRecord(
                k=it, stepsize=lam, branch=branch,
                gnorm=ginf, fval=fval, bb1=new_bb1, bb2=new_bb2, tau=tau))

        if ginf <= eps_inf:
            return finish(STATUS_OK)
        if it >= MAX_ITER:
            return finish(STATUS_MAXITER, "iteration budget exhausted")
        if nfe >= MAX_FEVALS:
            return finish(STATUS_FEVAL_BUDGET, "function evaluation budget exhausted")

        alpha, branch, tau = next_stepsize(hist, it + 1, tau, gamma,
                                           use_new_step)
        if alpha is None:
            xinf = _norm_inf(x)
            alpha = min(1.0, xinf) / ginf if xinf > 0.0 else 1.0 / ginf
