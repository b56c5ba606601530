import math

import numpy as np
import pytest

from qtgrad import quadprob
from qtgrad.errors import InvalidSpec


def test_value_gradient_hessvec_against_dense():
    p = quadprob.generate(1, 20, 1e3, seed=5)
    x = quadprob.starting_point(p, 0)
    d = x - p.x_star
    assert quadprob.value(p, x) == pytest.approx(float(d @ (p.spectrum * d)), rel=1e-14)
    np.testing.assert_allclose(quadprob.gradient(p, x), 2.0 * p.spectrum * d, rtol=1e-14)
    np.testing.assert_allclose(quadprob.hess_vec(p, d), 2.0 * p.spectrum * d, rtol=1e-14)


def test_verification_problem_hessian():
    # f = x' H x / 2 with H = diag(1, kappa/2, kappa) and x* = 0
    p = quadprob.verification_problem(10.0)
    x = np.array([1.0, 2.0, -1.0])
    h = p.hessian_diag
    assert quadprob.value(p, x) == pytest.approx(0.5 * float(x @ (h * x)))
    np.testing.assert_allclose(quadprob.gradient(p, x), h * x)
    np.testing.assert_allclose(h, [1.0, 5.0, 10.0])
    np.testing.assert_allclose(p.x_star, 0.0)


@pytest.mark.parametrize("set_id", [1, 3, 4, 5])
def test_realized_kappa_exact(set_id):
    n = 20
    p = quadprob.generate(set_id, n, 1e4, seed=2)
    assert p.spectrum.min() == 1.0
    assert p.spectrum.max() == 1e4
    assert p.kappa == 1e4


def test_set2_blocks():
    kappa = 1e4
    p = quadprob.generate(2, 30, kappa, seed=9)
    v = np.asarray(p.spectrum)
    lo = 1.0 + (kappa - 1.0) * 0.2
    hi = 1.0 + (kappa - 1.0) * 0.8
    small = v[v < lo]
    large = v[v > hi]
    assert small.size == 15 and large.size == 15
    assert np.all(v > 1.0) and np.all(v < kappa)


@pytest.mark.parametrize("set_id,lo_frac", [(3, 1), (5, 4)])
def test_two_block_sets(set_id, lo_frac):
    n, kappa = 25, 1e4
    p = quadprob.generate(set_id, n, kappa, seed=4)
    v = np.asarray(p.spectrum)
    low = v[v < 100.0]
    high = v[v >= kappa / 2.0]
    assert low.size == lo_frac * (n // 5)      # includes the endpoint 1
    assert high.size == n - lo_frac * (n // 5)
    assert np.all((v >= 1.0) & (v <= kappa))


def test_set4_geometric():
    n, kappa = 12, 1e3
    p = quadprob.generate(4, n, kappa, seed=0)
    j = np.arange(1, n + 1, dtype=float)
    np.testing.assert_allclose(p.spectrum, kappa ** ((n - j) / (n - 1.0)), rtol=1e-14)


def test_generate_is_deterministic_and_streams_are_split():
    a = quadprob.generate(1, 10, 100.0, seed=7)
    b = quadprob.generate(1, 10, 100.0, seed=7)
    np.testing.assert_array_equal(a.spectrum, b.spectrum)
    np.testing.assert_array_equal(a.x_star, b.x_star)
    c = quadprob.generate(1, 10, 100.0, seed=8)
    assert not np.array_equal(a.spectrum, c.spectrum)
    # starting points: replicate changes, problem data does not
    s0 = quadprob.starting_point(a, 0)
    s1 = quadprob.starting_point(a, 1)
    assert not np.array_equal(s0, s1)
    np.testing.assert_array_equal(s0, quadprob.starting_point(b, 0))
    assert np.all(np.abs(s0) <= 10.0)
    assert np.all(np.abs(a.x_star) <= 10.0)


@pytest.mark.parametrize("args", [
    (1, 2, 100.0, 0),       # n too small
    (7, 10, 100.0, 0),      # no such set
    (1, 10, 1.0, 0),        # kappa must exceed 1
    (2, 9, 100.0, 0),       # set 2 wants even n
    (3, 12, 100.0, 0),      # set 3 wants n % 5 == 0
    (5, 10, 50.0, 0),       # sets 3/5 want kappa >= 100
    (1, 1e6, 1e4, 0),       # n must be an int, not a float
    (1, 20.0, 100.0, 0),    # ... even an integral one
    (1, True, 100.0, 0),    # ... or a bool
    (1, 10, math.inf, 0),   # kappa must be finite
])
def test_generate_rejects_bad_specs(args):
    with pytest.raises(InvalidSpec):
        quadprob.generate(*args)


@pytest.mark.parametrize("kappa", [1.0, math.inf])
def test_verification_problem_rejects_bad_kappa(kappa):
    with pytest.raises(InvalidSpec):
        quadprob.verification_problem(kappa)


def test_problem_validation():
    with pytest.raises(InvalidSpec):
        quadprob.QuadraticProblem(
            spectrum=np.array([1.0, -2.0]), x_star=np.zeros(2))
    with pytest.raises(InvalidSpec):
        quadprob.QuadraticProblem(
            spectrum=np.array([1.0, 2.0]), x_star=np.zeros(3))
