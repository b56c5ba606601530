import numpy as np
import pytest

from qtgrad import kernels


def _random_case(seed, gscale, n=64):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.5, 100.0, size=n)
    xs = rng.uniform(-10.0, 10.0, size=n)
    x = rng.uniform(-10.0, 10.0, size=n)
    g = gscale * v * (x - xs)
    return v, xs, x, g


# gscale 2.0 is the problems' gradient scale; 1.0 is how the solver calls
# the kernel on a pre-scaled spectrum, which skips the scaling multiply.
@pytest.mark.parametrize("gscale", [1.0, 2.0])
def test_kernel_matches_dense_formulas(gscale):
    v, xs, x, g = _random_case(0, gscale)
    alpha = 0.01
    x1 = x.copy()
    g_new = np.empty_like(g)
    gy, yy, gg = kernels.quad_step(v, xs, x1, g, g_new, alpha, gscale)
    x_ref = x - alpha * g
    g_ref = gscale * v * (x_ref - xs)
    y_ref = g_ref - g
    np.testing.assert_allclose(x1, x_ref, rtol=1e-15)
    np.testing.assert_allclose(g_new, g_ref, rtol=1e-13)
    assert gy == pytest.approx(float(g @ y_ref), rel=1e-12)
    assert yy == pytest.approx(float(y_ref @ y_ref), rel=1e-12)
    assert gg == pytest.approx(float(g_ref @ g_ref), rel=1e-12)


@pytest.mark.parametrize("gscale", [1.0, 2.0])
def test_kernel_value_and_gradient(gscale):
    v, xs, x, _ = _random_case(1, gscale)
    out = np.empty_like(x)
    gg = kernels.quad_gradient(v, xs, x, gscale, out)
    np.testing.assert_allclose(out, gscale * v * (x - xs), rtol=1e-14)
    assert gg == pytest.approx(float(out @ out), rel=1e-12)
    vscale = 1.0 if gscale == 2.0 else 0.5
    value = kernels.quad_value(v, xs, x, vscale)
    assert value == pytest.approx(
        vscale * float((x - xs) @ (v * (x - xs))), rel=1e-13)
    # with a buffer for x - xs the value is bitwise the same
    d = np.empty_like(x)
    assert kernels.quad_value(v, xs, x, vscale, d) == value
    np.testing.assert_array_equal(d, x - xs)


def test_backend_name_reports_known_value():
    assert kernels.backend_name() == "numpy"


def _whole_array_step(v, xs, x, g, alpha, gscale):
    """quad_step's arithmetic on the whole arrays, with fresh temporaries."""
    x_ref = x - alpha * g
    g_ref = (x_ref - xs) * v
    if gscale != 1.0:
        g_ref = g_ref * gscale
    y_ref = g_ref - g
    return (x_ref, g_ref,
            (float(g @ y_ref), float(y_ref @ y_ref), float(g_ref @ g_ref)))


BLOCK_SIZES = [kernels.BLOCK, kernels.BLOCK + 1, 2 * kernels.BLOCK + 7]


@pytest.mark.parametrize("gscale", [1.0, 2.0])
@pytest.mark.parametrize("n", [64] + BLOCK_SIZES)
def test_blocked_step_matches_whole_array_formula(n, gscale):
    v, xs, x, g = _random_case(n, gscale, n=n)
    alpha = 0.01
    x_ref, g_ref, dots_ref = _whole_array_step(v, xs, x, g, alpha, gscale)
    # the solver's call: pre-scaled spectrum, scale 1.0 and the stepsize
    # as a 0-d array, bitwise the same as the unscaled call at every n
    x_pre, g_pre = x.copy(), np.empty_like(g)
    dots_pre = kernels.quad_step(gscale * v, xs, x_pre, g, g_pre,
                                 np.array(alpha), 1.0,
                                 np.empty(min(n, kernels.BLOCK)))
    g_new = np.empty_like(g)
    dots = kernels.quad_step(v, xs, x, g, g_new, alpha, gscale)
    np.testing.assert_array_equal(x_pre, x)
    np.testing.assert_array_equal(g_pre, g_new)
    assert dots_pre == dots
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(g_new, g_ref)
    assert dots == pytest.approx(dots_ref, rel=1e-12)
    if n <= kernels.BLOCK:
        assert dots == dots_ref


@pytest.mark.parametrize("gscale", [1.0, 2.0])
@pytest.mark.parametrize("n", [64] + BLOCK_SIZES)
def test_step_with_scratch_matches_step_without(n, gscale):
    v, xs, x, g = _random_case(n, gscale, n=n)
    x_own, g_own = x.copy(), np.empty_like(g)
    dots_own = kernels.quad_step(v, xs, x_own, g, g_own, 0.01, gscale)
    y = np.empty(min(n, kernels.BLOCK))
    g_new = np.empty_like(g)
    dots = kernels.quad_step(v, xs, x, g, g_new, 0.01, gscale, y)
    assert dots == dots_own
    np.testing.assert_array_equal(x, x_own)
    np.testing.assert_array_equal(g_new, g_own)


@pytest.mark.parametrize("n", [1, 7, 8, 100, kernels.BLOCK,
                               kernels.BLOCK + 1])
def test_aligned_empty_starts_on_a_cache_line(n):
    # small allocations before each call move where the heap places it
    held = []
    for pad in range(8):
        held.append(np.empty(pad + 1))
        a = kernels.aligned_empty(n)
        assert a.dtype == np.float64
        assert a.shape == (n,)
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % kernels.ALIGN == 0


def _at_offset(a, offset):
    """Copy of a whose data starts offset bytes past a cache line."""
    lo = offset // 8
    buf = kernels.aligned_empty(a.shape[0] + lo)
    buf[lo:] = a
    return buf[lo:]


@pytest.mark.parametrize("n", [64, kernels.BLOCK + 1, 2 * kernels.BLOCK + 7])
def test_step_is_bitwise_the_same_at_every_offset(n):
    # the vectors the step writes (x, g_new, y) at offset w and those it
    # only reads (v, xstar, g_old) at offset r, for every 8-byte w and r
    v, xs, x, g = _random_case(n, 2.0, n=n)
    alpha = np.array(0.01)
    m = min(n, kernels.BLOCK)

    def step_at(w, r):
        x_w, g_w = _at_offset(x, w), _at_offset(np.empty(n), w)
        dots = kernels.quad_step(
            _at_offset(v, r), _at_offset(xs, r), x_w, _at_offset(g, r), g_w,
            alpha, 2.0, _at_offset(np.empty(m), w))
        return dots, x_w, g_w

    dots_ref, x_ref, g_ref = step_at(0, 0)
    for w in range(0, kernels.ALIGN, 8):
        for r in range(0, kernels.ALIGN, 8):
            dots, x_w, g_w = step_at(w, r)
            assert dots == dots_ref, (w, r)
            np.testing.assert_array_equal(x_w, x_ref)
            np.testing.assert_array_equal(g_w, g_ref)
