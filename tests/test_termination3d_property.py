"""Property: the recurrence route's largest root agrees with eigvalsh on
any symmetric tridiagonal at any scale from 2^-500 to 2^500."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qtgrad.errors import Degenerate
from qtgrad.termination3d import _largest_root

# eigvalsh's own error on such matrices reaches about 7 eps max|entry|
_TOL = 8.0 * np.finfo(float).eps


@st.composite
def _entries(draw):
    """(h11, h12, h22, h23, h33) in [-1, 1] times 2^k, k in [-500, 500];
    off-diagonals may be 0 and diagonal entries may repeat."""
    unit = st.floats(-1.0, 1.0)
    h11 = draw(unit)
    h22 = draw(st.one_of(st.just(h11), unit))
    h33 = draw(st.one_of(st.just(h11), st.just(h22), unit))
    h12 = draw(st.one_of(st.just(0.0), unit))
    h23 = draw(st.one_of(st.just(0.0), unit))
    k = draw(st.integers(-500, 500))
    return tuple(math.ldexp(h, k) for h in (h11, h12, h22, h23, h33))


@hypothesis.settings(derandomize=True, database=None, max_examples=500,
                     deadline=None)
@hypothesis.example((2.0, 0.0, 2.0, 0.0, 2.0))     # slope 0 at the start
@hypothesis.example((-1.0, 0.0, -1.0, 0.0, -1.0))  # -I: no positive root
@hypothesis.given(_entries())
def test_largest_root_matches_eigvalsh(entries):
    # Degenerate where eigvalsh finds no eigenvalue above its own
    # roundoff, else the root within it; unscaled, det(zI - T) overflows
    # at 2^500 and underflows at 2^-500
    h11, h12, h22, h23, h33 = entries
    a = np.array([[h11, h12, 0.0], [h12, h22, h23], [0.0, h23, h33]])
    top = float(np.linalg.eigvalsh(a)[-1])
    tol = _TOL * float(np.abs(a).max())
    try:
        root = _largest_root(*entries)
    except Degenerate:
        assert top <= tol
    else:
        assert abs(root - top) <= tol
