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


def _windows_with(g):
    """The solver's (g, spare): windows of one buffer, g filled in."""
    g_w, spare = kernels.gradient_windows(g.shape[0])
    g_w[:] = g
    return g_w, spare


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("n", [64] + BLOCK_SIZES)
def test_blocked_step_matches_whole_array_formula(n, scale):
    v, xs, x, g = _random_case(n, scale, n=n)
    v = scale * v
    alpha = 0.01
    x_ref, g_ref, dots_ref = _whole_array_step(v, xs, x, g, alpha)
    # the solver's call: the stepsize as a 0-d array, g and the spare as
    # windows of one buffer and a y of min(n, BLOCK) elements, bitwise
    # the same as a float stepsize with a spare and y of their own of n
    # elements at every n
    x_pre = x.copy()
    g_in, spare = _windows_with(g)
    *dots_pre, g_pre, spare_pre = kernels.quad_step(
        v, xs, x_pre, g_in, spare, np.array(alpha),
        np.empty(min(n, kernels.BLOCK)))
    # the new gradient goes into the spare and g becomes the spare
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
    x_own = x.copy()
    *dots_own, g_own, _ = kernels.quad_step(v, xs, x_own, g.copy(),
                                            np.empty(n), 0.01, np.empty(n))
    y = np.empty(min(n, kernels.BLOCK))
    g_in, spare = _windows_with(g)
    *dots, g_new, spare_new = kernels.quad_step(v, xs, x, g_in, spare, 0.01,
                                                y)
    assert g_new is spare and spare_new is g_in
    assert dots == dots_own
    np.testing.assert_array_equal(x, x_own)
    np.testing.assert_array_equal(g_new, g_own)


def _per_block_step(v, xs, x, g, alpha):
    """quad_step's arithmetic with fresh temporaries: x and g on the whole
    arrays, each dot a sum of per-block dots added in ascending order."""
    x_ref = x - alpha * g
    g_ref = (x_ref - xs) * v
    y_ref = g_ref - g
    dots = [0.0, 0.0, 0.0]
    for lo in range(0, x.shape[0], kernels.BLOCK):
        b = slice(lo, lo + kernels.BLOCK)
        dots[0] += float(g[b].dot(y_ref[b]))
        dots[1] += float(y_ref[b].dot(y_ref[b]))
        dots[2] += float(g_ref[b].dot(g_ref[b]))
    return x_ref, g_ref, dots


@pytest.mark.parametrize("n", [kernels.BLOCK + 1, 2 * kernels.BLOCK + 7,
                               3 * kernels.BLOCK])
def test_consecutive_steps_through_one_buffer(n):
    # the first step writes into the window above g, so its blocks run
    # backward; the second into the window below, so they run forward
    v, xs, x, g = _random_case(n, 2.0, n=n)
    g_w, spare = _windows_with(g)
    y = kernels.aligned_empty(kernels.BLOCK)
    x_ref, g_ref = x.copy(), g
    for alpha, gap in ((0.01, kernels.BLOCK), (0.02, -kernels.BLOCK)):
        assert spare.ctypes.data - g_w.ctypes.data == 8 * gap
        x_ref, g_ref, dots_ref = _per_block_step(v, xs, x_ref, g_ref, alpha)
        *dots, g_new, spare_new = kernels.quad_step(v, xs, x, g_w, spare,
                                                    np.array(alpha), y)
        assert g_new is spare and spare_new is g_w
        assert dots == dots_ref
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(g_new, g_ref)
        g_w, spare = g_new, spare_new


@pytest.mark.parametrize("n", [1, 7, 8, 100, kernels.BLOCK,
                               kernels.BLOCK + 1])
def test_gradient_windows_share_one_aligned_buffer(n):
    # the spare lies min(n, BLOCK) elements above g, rounded up to a
    # cache line, so the two never overlap up to BLOCK
    line = kernels.ALIGN // 8
    g, spare = kernels.gradient_windows(n)
    assert g.shape == spare.shape == (n,)
    assert g.base is spare.base
    assert g.ctypes.data % kernels.ALIGN == 0
    assert spare.ctypes.data % kernels.ALIGN == 0
    gap = (spare.ctypes.data - g.ctypes.data) // 8
    assert gap == -(-min(n, kernels.BLOCK) // line) * line


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
    # every 8-byte w and r
    v, xs, x, g = _random_case(n, 2.0, n=n)
    alpha = np.array(0.01)

    def step_at(w, r):
        x_w = _at_offset(x, w)
        *dots, g_w, _ = kernels.quad_step(
            _at_offset(2.0 * v, r), _at_offset(xs, r), x_w, _at_offset(g, r),
            _at_offset(np.empty(n), w), alpha,
            _at_offset(np.empty(min(n, kernels.BLOCK)), w))
        return dots, x_w, g_w

    dots_ref, x_ref, g_ref = step_at(0, 0)
    for w in range(0, kernels.ALIGN, 8):
        for r in range(0, kernels.ALIGN, 8):
            dots, x_w, g_w = step_at(w, r)
            assert dots == dots_ref, (w, r)
            np.testing.assert_array_equal(x_w, x_ref)
            np.testing.assert_array_equal(g_w, g_ref)
