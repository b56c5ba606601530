import numpy as np
import pytest

from qtgrad import kernels, quadprob


def _random_case(seed, scale, n=64):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.5, 100.0, size=n)
    xs = rng.uniform(-10.0, 10.0, size=n)
    x = rng.uniform(-10.0, 10.0, size=n)
    g = scale * v * (x - xs)
    return v, xs, x, g


# the kernel's gradient is (x - xstar) * h for the Hessian diagonal h;
# scale 2.0 passes h = 2.0 * v for a v that is half the Hessian, and
# the product by 2 is exact, so the references scale (x - xstar) * v.
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_kernel_matches_dense_formulas(scale):
    v, xs, x, g = _random_case(0, scale)
    alpha = 0.01
    x1 = x.copy()
    spare = np.empty_like(g)
    gy, yy, gg, g_new, _ = kernels.quad_step(scale * v, xs, x1, g.copy(),
                                             spare, alpha, np.empty_like(g))
    assert g_new is spare
    x_ref = x - alpha * g
    g_ref = scale * v * (x_ref - xs)
    y_ref = g_ref - g
    np.testing.assert_allclose(x1, x_ref, rtol=1e-15)
    np.testing.assert_allclose(g_new, g_ref, rtol=1e-13)
    assert gy == pytest.approx(float(g @ y_ref), rel=1e-12)
    assert yy == pytest.approx(float(y_ref @ y_ref), rel=1e-12)
    assert gg == pytest.approx(float(g_ref @ g_ref), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_kernel_value_and_gradient(scale):
    # the solver takes its starting gradient from quadprob.gradient and
    # every later one from the kernel: both must be the same bits
    v, xs, x0, g0 = _random_case(1, scale)
    p = quadprob.QuadraticProblem(spectrum=scale * v, x_star=xs)
    x = x0.copy()
    _, _, gg, g_step, _ = kernels.quad_step(p.spectrum, xs, x, g0,
                                            np.empty_like(x), 0.01,
                                            np.empty_like(x))
    out = np.empty_like(x)
    assert quadprob.gradient(p, x, out) is out
    np.testing.assert_array_equal(out, g_step)
    np.testing.assert_allclose(out, scale * v * (x - xs), rtol=1e-14)
    assert gg == float(out @ out)
    # the solver's value (x - xs)'g / 2 is bitwise d'(v d) scale / 2
    # with d = x - xs: each product is the same, and scale 2.0 is exact
    d = x - xs
    value = 0.5 * float(d.dot(out))
    assert value == 0.5 * scale * float(d @ (v * d))


def test_backend_name_reports_known_value():
    assert kernels.backend_name() == "numpy"


def _whole_array_step(v, xs, x, g, alpha):
    """quad_step's arithmetic on the whole arrays, with fresh temporaries;
    the dots come as a list, like those unpacked from a step."""
    x_ref = x - alpha * g
    g_ref = (x_ref - xs) * v
    y_ref = g_ref - g
    return (x_ref, g_ref,
            [float(g @ y_ref), float(y_ref @ y_ref), float(g_ref @ g_ref)])


BLOCK_SIZES = [kernels.BLOCK, kernels.BLOCK + 1, 2 * kernels.BLOCK + 7]


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("n", [64] + BLOCK_SIZES)
def test_blocked_step_matches_whole_array_formula(n, scale):
    v, xs, x, g = _random_case(n, scale, n=n)
    v = scale * v
    alpha = 0.01
    x_ref, g_ref, dots_ref = _whole_array_step(v, xs, x, g, alpha)
    # the solver's call: the stepsize as a 0-d array and a spare and y
    # of min(n, BLOCK) elements, bitwise the same as a float stepsize
    # with a spare and y of n elements at every n
    m = min(n, kernels.BLOCK)
    x_pre, g_in, spare = x.copy(), g.copy(), np.empty(m)
    *dots_pre, g_pre, spare_pre = kernels.quad_step(
        v, xs, x_pre, g_in, spare, np.array(alpha), np.empty(m))
    # above BLOCK g is refreshed in place; up to it the new gradient
    # goes into the spare and g becomes the spare
    if n > kernels.BLOCK:
        assert g_pre is g_in and spare_pre is spare
    else:
        assert g_pre is spare and spare_pre is g_in
    *dots, g_new, _ = kernels.quad_step(v, xs, x, g.copy(), np.empty_like(g),
                                        alpha, np.empty_like(g))
    np.testing.assert_array_equal(x_pre, x)
    np.testing.assert_array_equal(g_pre, g_new)
    assert dots_pre == dots
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(g_new, g_ref)
    assert dots == pytest.approx(dots_ref, rel=1e-12)
    if n <= kernels.BLOCK:
        assert dots == dots_ref


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("n", [64] + BLOCK_SIZES)
def test_step_with_scratch_matches_step_without(n, scale):
    # a y of min(n, BLOCK) elements against one of the whole n, which the
    # blocked path slices: the same step either way
    v, xs, x, g = _random_case(n, scale, n=n)
    v = scale * v
    m = min(n, kernels.BLOCK)
    x_own = x.copy()
    *dots_own, g_own, _ = kernels.quad_step(v, xs, x_own, g.copy(),
                                            np.empty(m), 0.01, np.empty(n))
    y = np.empty(m)
    g_in, spare = g.copy(), np.empty(m)
    *dots, g_new, spare_new = kernels.quad_step(v, xs, x, g_in, spare, 0.01,
                                                y)
    if n > kernels.BLOCK:
        assert g_new is g_in and spare_new is spare
    else:
        assert g_new is spare and spare_new is g_in
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
    # x, the spare and y at offset w and v, xstar and g at offset r, for
    # every 8-byte w and r; g is only read up to BLOCK
    v, xs, x, g = _random_case(n, 2.0, n=n)
    alpha = np.array(0.01)
    m = min(n, kernels.BLOCK)

    def step_at(w, r):
        x_w = _at_offset(x, w)
        *dots, g_w, _ = kernels.quad_step(
            _at_offset(2.0 * v, r), _at_offset(xs, r), x_w, _at_offset(g, r),
            _at_offset(np.empty(m), w), alpha, _at_offset(np.empty(m), w))
        return dots, x_w, g_w

    dots_ref, x_ref, g_ref = step_at(0, 0)
    for w in range(0, kernels.ALIGN, 8):
        for r in range(0, kernels.ALIGN, 8):
            dots, x_w, g_w = step_at(w, r)
            assert dots == dots_ref, (w, r)
            np.testing.assert_array_equal(x_w, x_ref)
            np.testing.assert_array_equal(g_w, g_ref)
