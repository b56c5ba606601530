"""Gradient solvers for diagonal quadratics.

Three entry points:

* :func:`solve_new`: the adaptive method mixing long BB1 steps with short
  steps built from the three-dimensional quadratic-termination stepsize
  (or the two-dimensional BBQ stepsize when ``use_new_step`` is off).
* :func:`solve_bb`: the same loop with tau held at 0, so steepest descent
  once, then plain BB1.
* :func:`verify_3d_termination`: the fixed 8-step schedule on the 3-d
  verification problem that demonstrates finite termination numerically.

The per-iteration vector work is one :func:`qtgrad.kernels.quad_step`
call, which moves x, refreshes the gradient and returns the three inner
products the stepsize rule needs; everything else in the loop is scalar
arithmetic on earlier stepsizes and gradient norms.  A run holds x,
one buffer of n + min(n, ``kernels.BLOCK``) elements whose two windows
(``kernels.gradient_windows``) are g and the spare the kernel writes the
new gradient into, and the kernel's scratch y of min(n,
``kernels.BLOCK``) elements; each step returns the pair swapped, so the
old g becomes the next spare.  The SD step's H g is put in x until the
start is copied back, and the final value 1/2 (x - x*)'g is taken in
x's own storage.  Every vector comes from ``kernels.aligned_empty`` so
that the kernel's stores start on cache lines: a misaligned store costs
about twice an aligned one, and where plain ``np.empty`` puts a vector
depends on heap history.  The problem's spectrum and x* are only read
and stay where they are, since misaligning them measured no difference.
A 0-d array a0 carries each stepsize into the kernel at less dispatch
cost than a Python float.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels, quadprob
from .errors import Degenerate, InvalidInput, NumericalFailure
from .report import (
    STATUS_DEGENERATE,
    STATUS_MAXITER,
    STATUS_NONFINITE,
    STATUS_OK,
    RunReport,
    TraceRecord,
)
from .stepsizes import bbq_stepsize, sd_stepsize
from .termination3d import GradientHistory, alpha_new_direct, gram_schmidt3, next_stepsize

# Iteration budget of one run.
MAX_ITER = 50000


@dataclass(frozen=True)
class QuadSolverConfig:
    """Knobs for the quadratic solvers.

    ``tau1`` is the starting threshold of the adaptive rule and ``gamma``
    its growth and shrink factor.  ``eps`` is the relative gradient-norm
    reduction target, the run stops at ||g_k|| <= eps ||g_1||, or after
    ``MAX_ITER`` iterations.  ``use_new_step`` switches the short branch
    of solve_new between the three-dimensional stepsize (True) and the
    BBQ stepsize alone (False), which gives the BBQ comparison method.
    ``keep_trace`` records every iteration.  The stepsize tolerances are
    the constants ``stepsizes.TOL_DEN`` and ``termination3d.TOL_DEP``.
    """

    tau1: float = 0.5
    gamma: float = 1.0
    eps: float = 1e-9
    use_new_step: bool = True
    keep_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau1 <= 1.0:
            raise ValueError("tau1 must lie in (0, 1]")
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError("gamma must lie in [1, inf)")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must lie in (0, inf)")


@np.errstate(over="ignore")
def _solve(p: quadprob.QuadraticProblem, x0, cfg: QuadSolverConfig,
           method: str, tau: float) -> RunReport:
    """One exact SD step, then the adaptive rule from threshold tau.

    A starting g'g that is not finite, or a g'Ag of the SD step that
    overflows or underflows to 0, ends the run at iteration 0 with status
    "nonfinite"; a g'g that overflows later ends it where the rule finds
    no curvature, which its first non-finite g'g always brings about (its
    BB1 is 0 or nan); a g'g that underflows to 0 while g is not, which
    would pass the convergence test unmeasured, ends it there.  Statuses
    report every overflow, so numpy's warning is off for the run.

    Wrappers patched onto ``kernels.quad_step``, ``alpha_new_bb``,
    ``bbq_stepsize`` and ``sd_stepsize`` see every call, because the run
    looks each up where it calls it.  The history's ``set_stepsize`` and
    ``advance`` are bound once per run, after the history is made, so a
    wrapper patched onto either before the run sees every call, and one
    patched during it sees none; ``advance`` calls ``push``, so a wrapper
    patched onto ``GradientHistory.push`` sees every push.
    """
    t0 = time.perf_counter()
    h, xs = p.spectrum, p.x_star
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != h.shape:
        raise InvalidInput("x0 has the wrong dimension")
    if not np.all(np.isfinite(x0)):
        raise InvalidInput("x0 has entries that are not finite")
    n = x0.shape[0]
    x = kernels.aligned_empty(n)
    x[:] = x0
    g, spare = kernels.gradient_windows(n)
    y = kernels.aligned_empty(min(n, kernels.BLOCK))
    gg = float(quadprob.gradient(p, x, g).dot(g))
    a0 = np.empty(())   # the stepsize as the kernel takes it
    hist = GradientHistory()
    if gg > 0.0:
        hist.push(gg)
    rep = RunReport(method=method)
    it = 0

    def finish(status: str, message: str = "") -> RunReport:
        if status == STATUS_OK and gg == 0.0 and g.any():
            status = STATUS_NONFINITE
            message = f"g'g underflows to 0 at iteration {it}"
        rep.iterations = it
        rep.ngrad = it + 1
        rep.status = status
        rep.message = message
        rep.final_gnorm = math.sqrt(gg)
        np.subtract(x, xs, x)   # x is not read again
        rep.final_f = p.value_scale * float(x.dot(g))
        rep.wall_time = time.perf_counter() - t0
        return rep

    if not math.isfinite(gg):
        return finish(STATUS_NONFINITE, "starting gradient is not finite")
    gtol = cfg.eps * math.sqrt(gg)
    if math.sqrt(gg) <= gtol:
        return finish(STATUS_OK)
    try:
        # H g is held in x until the start is copied back
        alpha, branch = sd_stepsize(g, np.multiply(h, g, x)), "sd"
    except NumericalFailure as exc:
        x[:] = x0
        return finish(STATUS_NONFINITE, f"steepest-descent step: {exc}")
    x[:] = x0
    # bound once per run; the kernel and the stepsizes are looked up at
    # each call
    keep_trace, gamma, use_new = cfg.keep_trace, cfg.gamma, cfg.use_new_step
    sqrt = math.sqrt
    advance, set_stepsize = hist.advance, hist.set_stepsize
    counts = rep.branch_counts
    while True:
        gg_old = gg
        set_stepsize(alpha)
        a0[()] = alpha
        gy, yy, gg, g, spare = kernels.quad_step(h, xs, x, g, spare, a0, y)
        it += 1
        counts[branch] = counts.get(branch, 0) + 1
        new_bb1, new_bb2 = advance(gg, alpha * alpha * gg_old, -alpha * gy,
                                   yy)
        if keep_trace:
            rep.trace.append(TraceRecord(
                k=it, stepsize=alpha, branch=branch, gnorm=sqrt(gg),
                fval=p.value_scale * float((x - xs).dot(g)),
                bb1=new_bb1, bb2=new_bb2, tau=tau))
        if sqrt(gg) <= gtol:
            return finish(STATUS_OK)
        if it >= MAX_ITER:
            return finish(STATUS_MAXITER, "iteration budget exhausted")
        nxt, branch, tau = next_stepsize(hist, it + 1, tau, gamma, use_new)
        if nxt is None:
            if not math.isfinite(gg):
                return finish(STATUS_NONFINITE,
                              f"gradient not finite at iteration {it}")
            branch = "fallback"
        else:
            alpha = nxt


def solve_bb(p: quadprob.QuadraticProblem, x0,
             cfg: QuadSolverConfig | None = None) -> RunReport:
    """Plain BB method: one exact SD step, then BB1 throughout.

    The adaptive loop with tau fixed at 0, so the short branch never runs.
    """
    return _solve(p, x0, cfg or QuadSolverConfig(), "bb", 0.0)


def solve_new(p: quadprob.QuadraticProblem, x0,
              cfg: QuadSolverConfig | None = None) -> RunReport:
    """Adaptive method: long BB1 steps, short quadratic-termination steps.

    One exact SD step, then the rule of
    :func:`qtgrad.termination3d.next_stepsize`: three BB1 warm-up steps;
    from the fifth iterate on, whenever bb2/bb1 falls under the adaptive
    threshold tau, the min of the last two BB2 values and the
    three-dimensional stepsize (BBQ with ``use_new_step`` off), or the
    BB2 min alone when that step degenerates.  tau shrinks by gamma after
    every short branch and grows by gamma after every long one.  Without
    curvature the last stepsize is repeated ("fallback").
    """
    cfg = cfg or QuadSolverConfig()
    return _solve(p, x0, cfg, "new" if cfg.use_new_step else "bbq", cfg.tau1)


# The baseline stepsizes verify_3d_termination runs.
VERIFY_METHODS = ("day3d", "bb13d", "bb23d", "bb1")


@np.errstate(over="ignore")
def verify_3d_termination(kappa: float, method: str, seed: int,
                          keep_trace: bool = False) -> RunReport:
    """Fixed 8-step schedule on the 3-d verification problem.

    ``method`` picks the baseline stepsize used away from the special
    iterations: "day3d", "bb13d" or "bb23d" run that stepsize with the
    direct three-dimensional step at k=3 and the BBQ step at k=6;
    "bb1" runs unmodified BB1 with no special steps, the control column.
    Reports ||g|| and f at the ninth iterate.

    After each step the run forms s's, s'y and y'y of s = -alpha g and
    y = g_new - g, DAY = sqrt(s's/y'y) (nan unless y'y != 0) and, in a
    ``GradientHistory`` whose last two pairs the BBQ step reads, that
    pair's BB1 and BB2 (:meth:`GradientHistory.advance`).
    A base step whose value is undefined, or a Degenerate special step,
    ends the run with status "degenerate" rather than substituting
    another stepsize; a gradient that is not finite at any iterate, or an
    overflowing or underflowing g'Ag in the first step, ends it with
    status "nonfinite", so numpy's overflow warning is off for the run.
    """
    if method not in VERIFY_METHODS:
        raise ValueError(f"method must be one of {VERIFY_METHODS}")
    p = quadprob.verification_problem(kappa)
    x = quadprob.starting_point(p, seed)
    rep = RunReport(method=method)
    t0 = time.perf_counter()
    g = quadprob.gradient(p, x)
    gg = float(g @ g)
    rep.ngrad = 1
    early_grads: list[np.ndarray] = [g.copy()]
    # the BB values of the pairs so far, and DAY of the last one
    hist = GradientHistory()
    day = math.nan
    special = method != "bb1"

    def finish(status: str, message: str = "") -> RunReport:
        rep.status = status
        rep.message = message
        rep.final_gnorm = float(np.linalg.norm(g))
        rep.final_f = quadprob.value(p, x)
        rep.wall_time = time.perf_counter() - t0
        return rep

    for k in range(1, 10):
        if not math.isfinite(gg):
            return finish(STATUS_NONFINITE, f"gradient not finite at k={k}")
        if k == 9 or gg == 0.0:
            # eight steps taken, or early at the minimizer
            return finish(STATUS_OK)
        try:
            if k == 1:
                alpha = sd_stepsize(g, quadprob.hess_vec(p, g))
                branch = "sd"
            elif special and k == 3:
                u, v, r = gram_schmidt3(*early_grads)
                alpha = alpha_new_direct(u, v, r, lambda d: quadprob.hess_vec(p, d))
                branch = "new3d"
            elif special and k == 6:
                alpha = bbq_stepsize(hist.bb1[-2], hist.bb1[-1],
                                     hist.bb2[-2], hist.bb2[-1])
                branch = "bbq"
            else:
                alpha = (day if method == "day3d" else
                         hist.bb2[-1] if method == "bb23d" else hist.bb1[-1])
                if math.isnan(alpha):
                    raise Degenerate(f"{method} base stepsize is undefined")
                branch = "base"
        except Degenerate as exc:
            return finish(STATUS_DEGENERATE, f"at k={k}: {exc}")
        except NumericalFailure as exc:
            return finish(STATUS_NONFINITE, f"at k={k}: {exc}")
        x = x - alpha * g
        g_new = quadprob.gradient(p, x)
        rep.ngrad += 1
        rep.iterations = k
        rep.count(branch)
        s = -alpha * g
        y = g_new - g
        ss, yy = float(s @ s), float(y @ y)
        g = g_new
        gg = float(g @ g)
        hist.advance(gg, ss, float(s @ y), yy)
        day = math.sqrt(ss / yy) if yy != 0.0 else math.nan
        if len(early_grads) < 3:
            early_grads.append(g.copy())
        if keep_trace:
            rep.trace.append(TraceRecord(
                k=k, stepsize=alpha, branch=branch,
                gnorm=float(np.linalg.norm(g)), fval=quadprob.value(p, x)))
