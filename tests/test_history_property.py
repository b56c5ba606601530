"""Property: ``GradientHistory.advance`` forms the BB pair of a step by one
rule, pushes only an iterate with g'g > 0, and gives bit for bit the pair
that each loop formed inline before the rule moved into the history."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qtgrad.termination3d import GradientHistory

nan = math.nan
_ANY = st.floats()
# s's, y'y and g'g are sums of squares: nonnegative, inf or nan
_SQUARES = st.one_of(st.just(nan), st.just(0.0), st.floats(min_value=0.0))


@st.composite
def _history(draw):
    """A history with 0 to 4 iterates pushed, each with a stepsize."""
    hist = GradientHistory()
    for _ in range(draw(st.integers(0, 4))):
        hist.push(draw(_SQUARES), draw(_ANY), draw(_ANY))
        hist.set_stepsize(draw(_ANY))
    return hist


def _slots(hist):
    return [[v.hex() for v in slot] for slot in
            (hist.gnorm_sq, hist.stepsize, hist.bb1, hist.bb2)]


def _bits(pair):
    # float.hex tells -0.0 from 0.0 and prints every nan as "nan"
    return tuple(v.hex() for v in pair)


@hypothesis.settings(derandomize=True, database=None, max_examples=500,
                     deadline=None)
@hypothesis.given(hist=_history(), gg=_SQUARES, ss=_SQUARES,
                  sy=st.one_of(st.just(nan), st.just(0.0), _ANY),
                  yy=_SQUARES)
@hypothesis.example(hist=GradientHistory(), gg=0.0, ss=1.0, sy=1.0, yy=0.0)
@hypothesis.example(hist=GradientHistory(), gg=nan, ss=1.0, sy=-0.0, yy=1.0)
def test_advance_forms_the_pair_and_pushes_only_positive_gnorm(hist, gg, ss,
                                                               sy, yy):
    before = _slots(hist)
    bb1, bb2 = hist.advance(gg, ss, sy, yy)
    if sy > 0.0:
        assert bb1.hex() == (ss / sy).hex()
        assert bb2.hex() == ((sy / yy).hex() if yy > 0.0 else "nan")
    else:
        assert (bb1.hex(), bb2.hex()) == ("nan", "nan")
    if gg > 0.0:
        assert _slots(hist) == [before[0][1:] + [gg.hex()],
                                before[1][1:] + ["nan"],
                                before[2][1:] + [bb1.hex()],
                                before[3][1:] + [bb2.hex()]]
    else:
        assert _slots(hist) == before


@hypothesis.settings(derandomize=True, database=None, max_examples=500,
                     deadline=None)
@hypothesis.given(alpha=st.floats(min_value=0.0, exclude_min=True),
                  gg_old=_SQUARES, gy=_ANY, ss=_SQUARES, sy=_ANY,
                  yy=_SQUARES)
def test_advance_matches_the_loops_former_inline_pairs(alpha, gg_old, gy, ss,
                                                       sy, yy):
    # quadsolver._solve: s's and s'y from the stepsize, g'g and g'y
    qsy = -alpha * gy
    bb1 = bb2 = nan
    if qsy > 0.0:
        bb1 = alpha * alpha * gg_old / qsy
        if yy > 0.0:
            bb2 = qsy / yy
    assert _bits(GradientHistory().advance(
        1.0, alpha * alpha * gg_old, -alpha * gy, yy)) == _bits((bb1, bb2))
    # uncsolver.solve: the three dots of s and y
    bb1 = bb2 = nan
    if sy > 0.0:
        bb1 = ss / sy
        if yy > 0.0:
            bb2 = sy / yy
    pair = _bits(GradientHistory().advance(1.0, ss, sy, yy))
    assert pair == _bits((bb1, bb2))
    # verify_3d_termination: the same dots, BB2 tested by y'y != 0
    bb1 = ss / sy if sy > 0.0 else nan
    bb2 = sy / yy if sy > 0.0 and yy != 0.0 else nan
    assert pair == _bits((bb1, bb2))
