"""Re-derivation of the adaptive branch rule, for trace replay tests.

Rebuilds a solver's decision sequence from a finished trace: every
record is pushed into a fresh GradientHistory, the ratio test and the
candidate choice are re-run, and the result says which branch and
stepsize each iteration should have chosen and where tau should sit.
The stepsize kernels themselves (alpha_new_bb, bbq_stepsize) are reused
here because they have their own tests against independent oracles; what
replay pins down is the wiring around them.

One rule serves both solvers: warm-up below k=5; a short step when
bb2/bb1 < tau, taking min(BB2_k, BB2_{k-1}) together with the
three-point step when the last three pairs are fresh and the new step is
on, or with the BBQ step otherwise; the BB2 min alone when that
candidate degenerates; the bare BB2 when the previous pair is not fresh.
``rule`` only names the restart after a pair without curvature
("fallback" for "quad", "nocurv" for "unc"); both solvers take the
rule's stepsize as it is.  The exact squared 2-norms g'g
at every traced iterate are supplied via ``gnorm_sq``: uncsolver traces
store the infinity norm, and squaring a traced 2-norm back is one ulp
off, which near-degenerate histories turn into a different Degenerate
decision.  Replaying the trajectory from the traced stepsizes through the
solver's own arithmetic reproduces them bitwise (for uncsolver, when
every line search accepted its first trial).
"""

import math

from qtgrad.errors import Degenerate
from qtgrad.stepsizes import bbq_stepsize
from qtgrad.termination3d import GradientHistory, alpha_new_bb

SHORT_BRANCHES = ("short_new", "short_bbq", "short_bb2", "short_bb2only")


def replay_branches(rows, g1_sq, tau1, gamma, use_new_step=True,
                    rule="quad", *, gnorm_sq):
    """Expected (branch, stepsize, tau) triples, one per trace row.

    ``rows`` are TraceRecord-likes carrying k, stepsize, branch, bb1, bb2
    and tau; ``g1_sq`` is the squared gradient norm at the starting
    point, which the trace does not contain, and ``gnorm_sq[i]`` the one
    at the iterate row i reaches.  The first row is the warm start and
    is echoed as given.  Rows with k < 5 belong to the BB1 warm-up.  A
    None stepsize in the result means the branch does not determine it
    from history alone.  The returned tau is the value in force after the
    decision, matching the trace convention.
    """
    hist = GradientHistory()
    hist.push(g1_sq)
    tau = tau1
    out = []
    for i, row in enumerate(rows):
        if i == 0:
            out.append((row.branch, row.stepsize, tau))
        else:
            cur_bb1, cur_bb2 = hist.bb1[-1], hist.bb2[-1]
            if not (math.isfinite(cur_bb1) and cur_bb1 > 0.0):
                label = "fallback" if rule == "quad" else "nocurv"
                out.append((label, None, tau))
            elif row.k < 5:
                out.append(("bb1", cur_bb1, tau))
            elif math.isfinite(cur_bb2) and cur_bb2 / cur_bb1 < tau:
                branch, alpha = _short_step(hist, use_new_step)
                tau /= gamma
                out.append((branch, alpha, tau))
            else:
                tau *= gamma
                out.append(("bb1", cur_bb1, tau))
        hist.set_stepsize(row.stepsize)
        hist.push(gnorm_sq[i], row.bb1, row.bb2)
    return out


def _short_step(hist, use_new_step):
    if not math.isfinite(hist.bb1[-2]):
        return "short_bb2only", hist.bb2[-1]
    cands = [hist.bb2[-2], hist.bb2[-1]]
    try:
        if use_new_step and math.isfinite(hist.bb1[-3]):
            cands.append(alpha_new_bb(hist))
            branch = "short_new"
        else:
            cands.append(bbq_stepsize(hist.bb1[-2], hist.bb1[-1],
                                      hist.bb2[-2], hist.bb2[-1]))
            branch = "short_bbq"
    except Degenerate:
        branch = "short_bb2"
    return branch, min(cands)
