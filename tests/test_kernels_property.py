"""Property: at n near a multiple of BLOCK, two steps through one
``gradient_windows`` buffer are bitwise the per-block reference; above
BLOCK the first runs its blocks backward and the second forward."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qtgrad import kernels
from test_kernels import _per_block_step


@hypothesis.settings(derandomize=True, database=None, max_examples=60,
                     deadline=None)
@hypothesis.given(k=st.integers(1, 3), d=st.integers(-9, 9),
                  seed=st.integers(0, 2**32 - 1),
                  alpha=st.floats(min_value=1e-4, max_value=1e-1))
def test_two_steps_match_the_per_block_reference(k, d, seed, alpha):
    n = k * kernels.BLOCK + d
    rng = np.random.default_rng(seed)
    v = rng.uniform(1.0, 200.0, size=n)
    xs = rng.uniform(-10.0, 10.0, size=n)
    x = rng.uniform(-10.0, 10.0, size=n)
    g_w, spare = kernels.gradient_windows(n)
    np.multiply(x - xs, v, g_w)
    y = kernels.aligned_empty(min(n, kernels.BLOCK))
    x_ref, g_ref = x.copy(), g_w.copy()
    for step in (alpha, 2.0 * alpha):
        x_ref, g_ref, dots_ref = _per_block_step(v, xs, x_ref, g_ref, step)
        *dots, g_w, spare = kernels.quad_step(v, xs, x, g_w, spare,
                                              np.array(step), y)
        assert dots == dots_ref
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(g_w, g_ref)
