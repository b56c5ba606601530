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


# gscale 2.0 is the TESTQP form, 1.0 the HALFFORM form, which skips the
# scaling multiply.
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
    assert kernels.quad_value(v, xs, x, vscale) == pytest.approx(
        vscale * float((x - xs) @ (v * (x - xs))), rel=1e-13)


def test_backend_name_reports_known_value():
    assert kernels.backend_name() == "numpy"
