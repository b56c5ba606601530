"""Property: the adaptive rule returns None or a finite positive stepsize
for every history a solver can write."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qtgrad.termination3d import GradientHistory, next_stepsize

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_POSITIVE_OR_NAN = st.one_of(st.just(math.nan), _POSITIVE)


@st.composite
def _slot(draw):
    """(g'g, stepsize, BB1, BB2) of one iterate; BB2 needs a BB1."""
    bb1 = draw(_POSITIVE_OR_NAN)
    bb2 = math.nan if math.isnan(bb1) else draw(_POSITIVE_OR_NAN)
    return draw(_POSITIVE), draw(_POSITIVE_OR_NAN), bb1, bb2


@st.composite
def _history(draw):
    """Four slots, the oldest ``4 - filled`` of them not yet written."""
    hist = GradientHistory()
    for _ in range(draw(st.integers(1, 4))):
        gg, step, bb1, bb2 = draw(_slot())
        hist.push(gg, bb1, bb2)
        hist.stepsize[-1] = step
    return hist


@hypothesis.settings(derandomize=True, database=None, max_examples=500,
                     deadline=None)
@hypothesis.given(hist=_history(), k=st.integers(1, 60),
                  tau=st.one_of(st.just(0.0), _POSITIVE),
                  gamma=st.floats(min_value=1.0, max_value=1e3),
                  use_new=st.booleans())
def test_rule_returns_none_or_a_finite_positive_stepsize(hist, k, tau, gamma,
                                                         use_new):
    alpha, _, _ = next_stepsize(hist, k, tau, gamma, use_new)
    assert alpha is None or 0.0 < alpha < math.inf
