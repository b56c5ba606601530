"""Analytic gradients against central differences, plus known minima."""

import math

import numpy as np
import pytest

from qtgrad import quadprob, testfuns

from oracles import fd_gradient

FACTORIES = [
    testfuns.sphere,
    testfuns.rosenbrock2,
    testfuns.rosenbrock_ext,
    testfuns.powell_singular,
    testfuns.beale,
    testfuns.helical_valley,
    testfuns.wood,
    testfuns.trigonometric,
    testfuns.broyden_tridiagonal,
    testfuns.dixon_price,
    testfuns.ill_conditioned_quadratic,
]


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_gradient_matches_finite_differences(factory):
    f = factory()
    rng = np.random.default_rng(0)
    # x0 plus two nearby points; the perturbation is small enough to keep
    # helical_valley away from its branch cut along x0 = 0, x1 < 0
    points = [np.array(f.x0, dtype=float)]
    for _ in range(2):
        points.append(f.x0 + 0.1 * rng.standard_normal(f.x0.size))
    for x in points:
        g = np.asarray(f.gradient(x), dtype=float)
        fd = fd_gradient(f.value, x)
        # the difference floor scales with the value magnitude
        atol = 1e-6 * (1.0 + abs(f.value(x)))
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=atol)


def dixon_minimizer(n):
    x = np.empty(n)
    x[0] = 1.0
    for i in range(1, n):
        x[i] = math.sqrt(x[i - 1] / 2.0)
    return x


MINIMA = [
    (testfuns.sphere, np.zeros(50)),
    (testfuns.rosenbrock2, np.ones(2)),
    (testfuns.rosenbrock_ext, np.ones(100)),
    (testfuns.powell_singular, np.zeros(4)),
    (testfuns.beale, np.array([3.0, 0.5])),
    (testfuns.helical_valley, np.array([1.0, 0.0, 0.0])),
    (testfuns.wood, np.ones(4)),
    (testfuns.trigonometric, np.zeros(10)),
    (testfuns.dixon_price, dixon_minimizer(10)),
]


@pytest.mark.parametrize("factory,x_star", MINIMA,
                         ids=lambda v: v.__name__ if callable(v) else None)
def test_known_minimum_is_stationary(factory, x_star):
    f = factory()
    assert f.value(x_star) == pytest.approx(0.0, abs=1e-20)
    assert float(np.max(np.abs(f.gradient(x_star)))) <= 1e-9


def test_illcond_quadratic_matches_generator():
    f = testfuns.ill_conditioned_quadratic(n=50, kappa=1e4, seed=7)
    p = quadprob.generate(4, 50, 1e4, 7)
    assert f.value(p.x_star) == 0.0
    assert np.all(f.gradient(p.x_star) == 0.0)
    assert np.array_equal(f.x0, quadprob.starting_point(p, 0))


def test_extended_rosenbrock_rejects_odd_dimension():
    with pytest.raises(ValueError):
        testfuns.rosenbrock_ext(7)


def test_builtin_suite_composition():
    suite = testfuns.builtin_suite()
    names = [f.name for f in suite]
    assert len(suite) >= 10
    assert len(set(names)) == len(names)
    assert "sphere" in names and "rosenbrock2" in names
    for f in suite:
        assert f.x0.ndim == 1
        assert np.isfinite(f.value(f.x0))
        g = np.asarray(f.gradient(f.x0))
        assert g.shape == f.x0.shape
        assert np.all(np.isfinite(g))
