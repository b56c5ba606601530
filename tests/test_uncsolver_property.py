"""Property: the globalized solver on any builtin function, in any units,
ends with a status of report.py, raises nothing but InvalidInput and
warns nothing."""

import warnings

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
