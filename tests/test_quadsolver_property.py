"""Property: on any diagonal quadratic and any finite start, the quadratic
solvers end with a status of report.py, raise nothing but InvalidInput,
warn nothing, and report ok only when the gradient has converged."""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qtgrad import kernels, quadsolver, report
from qtgrad.errors import InvalidInput
from qtgrad.quadprob import QuadraticProblem, generate, starting_point
from qtgrad.quadsolver import QuadSolverConfig, solve_bb, solve_new

STATUSES = {v for k, v in vars(report).items() if k.startswith("STATUS_")}
EPS = 1e-6
_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _norm(v):
    """||v||, scaled by max |v_i| so that it cannot underflow."""
    m = float(np.max(np.abs(v)))
    if m == 0.0 or m == math.inf:
        return m
    return m * math.sqrt(float(np.sum((v / m) ** 2)))


@st.composite
def _case(draw):
    """(spectrum, x*, x0): entries of h from 1e-300 to 1e300, x* of scale
    0 or 1e-300 to 1e300, and x0 of scale 1e-300 to 1e300."""
    n = draw(st.integers(1, 12))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    spectrum = np.array(draw(st.lists(_SCALE, min_size=n, max_size=n)))
    xs = np.array(draw(unit)) * draw(st.one_of(st.just(0.0), _SCALE))
    x0 = np.array(draw(unit)) * draw(_SCALE)
    return spectrum, xs, x0


def _repro(set_id, n, kappa, h_scale, xs_scale, x0_scale):
    p = generate(set_id, n, kappa, seed=0)
    return (p.spectrum * h_scale, p.x_star * xs_scale,
            starting_point(p, 0) * x0_scale)


# tr^3 overflows in the 3-d step; g'g underflows at the start; g'g
# overflows mid-run; g'g underflows mid-run while ||g|| is still above
# eps ||g_0||; the largest spectrum quadbench accepts
@hypothesis.example(case=_repro(4, 20, 1e4, 1e100, 1e-100, 1e-100),
                    method="new")
@hypothesis.example(case=_repro(4, 20, 1e4, 1e-200, 1.0, 1.0), method="bb")
@hypothesis.example(case=_repro(1, 40, 1e6, 1e-160, 1e80, 1e80),
                    method="new")
@hypothesis.example(case=_repro(1, 10, 1e2, 1.0, 0.0, 1e-160), method="bb")
@hypothesis.example(case=_repro(4, 10, 8e307, 1.0, 1.0, 1.0), method="new")
@hypothesis.settings(derandomize=True, database=None, max_examples=300,
                     deadline=None)
@hypothesis.given(case=_case(), method=st.sampled_from(["bb", "new", "bbq"]))
def test_runs_end_in_a_status_and_ok_only_when_converged(case, method):
    spectrum, xs, x0 = case
    with np.errstate(over="ignore"):
        g0 = spectrum * (x0 - xs)
    last = []   # the gradient the kernel returned last
    step = kernels.quad_step

    def spy(*args):
        out = step(*args)
        last[:] = [out[3]]
        return out

    solver = solve_bb if method == "bb" else solve_new
    cfg = QuadSolverConfig(eps=EPS, use_new_step=method != "bbq")
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(quadsolver, "MAX_ITER", 2000)
        mp.setattr(kernels, "quad_step", spy)
        try:
            rep = solver(QuadraticProblem(spectrum, xs), x0, cfg)
        except InvalidInput:
            return
    assert rep.status in STATUSES
    if rep.status == report.STATUS_OK:
        target = EPS * _norm(g0)
        assert rep.final_gnorm <= target * (1.0 + 1e-12)
        assert _norm(last[0] if last else g0) <= target * (1.0 + 1e-12)
