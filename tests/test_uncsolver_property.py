"""Properties of the globalized solver: on any builtin function, in any
units, it ends with a status of report.py, raises nothing but
InvalidInput and warns nothing; and it skips ||g||_inf only where the
stop test cannot pass."""

import math
import sys
import warnings

import numpy as np

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import qtgrad.uncsolver as unc
from qtgrad import report, testfuns
from qtgrad.errors import InvalidInput
from qtgrad.uncsolver import UncSolverConfig, solve

from test_uncsolver import _scaled

STATUSES = {v for k, v in vars(report).items() if k.startswith("STATUS_")}
SUITE = testfuns.builtin_suite()
_EXP = st.floats(-300.0, 300.0)


@hypothesis.settings(derandomize=True, database=None, max_examples=120,
                     deadline=None)
@hypothesis.given(index=st.integers(0, len(SUITE) - 1), f_exp=_EXP,
                  x_exp=_EXP, use_new=st.booleans())
def test_scaled_builtin_runs_end_in_a_status(index, f_exp, x_exp, use_new):
    # f times 10^f_exp in x times 10^x_exp: the same problem in other units
    f = _scaled(SUITE[index], 10.0 ** f_exp, 10.0 ** x_exp)
    cfg = UncSolverConfig(use_new_step=use_new)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(unc, "MAX_ITER", 2000)
        mp.setattr(unc, "MAX_FEVALS", 20000)
        try:
            rep = solve(f, cfg=cfg)
        except InvalidInput:
            return
    assert rep.status in STATUSES


def _near_eps(eps, n, kind, k, signs):
    """A gradient of size n whose entries sit at or near eps in magnitude."""
    if kind == "ulps":
        g = np.full(n, eps * (1.0 + k * 2.0 ** -52))
    elif kind == "nextafter":
        g = np.full(n, np.nextafter(eps, math.inf if k > 0 else -math.inf))
    elif kind == "spike":
        g = np.zeros(n)
        g[k % n] = eps
    else:
        # normals below 2^-511, whose squares underflow
        scale = min(eps, 2.0 ** -511)
        g = scale * np.linspace(0.5, 1.0, n) ** (1 + abs(k))
    return np.where(signs, -g, g)


@hypothesis.settings(derandomize=True, database=None, max_examples=400,
                     deadline=None)
@hypothesis.given(
    n=st.integers(1, 4096),
    log2_eps=st.floats(-1074.0, math.log2(1e300)),
    kind=st.sampled_from(["ulps", "nextafter", "spike", "underflow"]),
    k=st.integers(-8, 8), sign_seed=st.integers(0, 2 ** 32 - 1))
def test_stop_test_is_skipped_only_where_it_cannot_pass(n, log2_eps, kind, k,
                                                        sign_seed):
    # the solver skips ||g||_inf where g'g > _no_stop_above(n, eps_inf);
    # that must never happen to a g with max |g_i| <= eps_inf
    eps = 2.0 ** log2_eps
    signs = np.random.default_rng(sign_seed).random(n) < 0.5
    g = _near_eps(eps, n, kind, k, signs)
    with np.errstate(over="ignore"):
        skipped = float(g.dot(g)) > unc._no_stop_above(n, eps)
    assert not skipped or unc._norm_inf(g) > eps


def test_stop_bound_is_off_below_the_normal_range():
    tiny = math.sqrt(sys.float_info.min)
    assert unc._no_stop_above(10, tiny) < math.inf
    assert unc._no_stop_above(10, np.nextafter(tiny, 0.0)) == math.inf
    assert unc._no_stop_above(10, 1e300) == math.inf
