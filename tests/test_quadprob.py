import math

import numpy as np
import pytest

from qtgrad import kernels, quadprob
from qtgrad.errors import InvalidSpec


def test_value_gradient_hessvec_against_dense():
    p = quadprob.generate(1, 20, 1e3, seed=5)
    x = quadprob.starting_point(p, 0)
    d = x - p.x_star
    v = p.spectrum / 2.0    # f = (x - x*)' diag(v) (x - x*)
    assert quadprob.value(p, x) == pytest.approx(float(d @ (v * d)), rel=1e-14)
    np.testing.assert_allclose(quadprob.gradient(p, x), 2.0 * v * d, rtol=1e-14)
    np.testing.assert_allclose(quadprob.hess_vec(p, d), 2.0 * v * d, rtol=1e-14)


@pytest.mark.parametrize("n", [100, 2 * kernels.BLOCK + 7])
def test_gradient_into_out_is_the_allocating_gradient(n):
    p = quadprob.generate(1, n, 1e3, seed=5)
    x = quadprob.starting_point(p, 0)
    before = x.tobytes()
    out = np.empty(n)
    assert quadprob.gradient(p, x, out) is out
    np.testing.assert_array_equal(out, quadprob.gradient(p, x))
    assert x.tobytes() == before


def test_verification_problem_hessian():
    # f = x' H x / 2 with H = diag(1, kappa/2, kappa) and x* = 0
    p = quadprob.verification_problem(10.0)
    x = np.array([1.0, 2.0, -1.0])
    h = p.spectrum
    assert quadprob.value(p, x) == pytest.approx(0.5 * float(x @ (h * x)))
    np.testing.assert_allclose(quadprob.gradient(p, x), h * x)
    np.testing.assert_allclose(h, [1.0, 5.0, 10.0])
    np.testing.assert_allclose(p.x_star, 0.0)


@pytest.mark.parametrize("set_id", quadprob.SET_IDS)
def test_spectrum_is_twice_the_recipe_bit_for_bit(set_id):
    # the spectrum is the Hessian 2 v of the set's recipe v; doubling is
    # exact, so the recipe and its condition number survive unrounded
    n, kappa, seed = 20, 1e4, 3
    p = quadprob.generate(set_id, n, kappa, seed)
    rng = quadprob._stream(seed, quadprob._SPECTRUM_KEY)
    v = quadprob._spectrum(set_id, n, kappa, rng)
    np.testing.assert_array_equal(p.spectrum, 2.0 * v)
    np.testing.assert_array_equal(p.spectrum / 2.0, v)


@pytest.mark.parametrize("set_id", [1, 3, 4, 5])
def test_realized_kappa_exact(set_id):
    n = 20
    p = quadprob.generate(set_id, n, 1e4, seed=2)
    assert p.spectrum.min() == 2.0
    assert p.spectrum.max() == 2e4
    assert p.spectrum.max() / p.spectrum.min() == 1e4


def test_set2_blocks():
    kappa = 1e4
    p = quadprob.generate(2, 30, kappa, seed=9)
    v = p.spectrum / 2.0    # the set's recipe
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
    v = p.spectrum / 2.0    # the set's recipe
    low = v[v < 100.0]
    high = v[v >= kappa / 2.0]
    assert low.size == lo_frac * (n // 5)      # includes the endpoint 1
    assert high.size == n - lo_frac * (n // 5)
    assert np.all((v >= 1.0) & (v <= kappa))


def test_set4_geometric():
    n, kappa = 12, 1e3
    p = quadprob.generate(4, n, kappa, seed=0)
    j = np.arange(1, n + 1, dtype=float)
    np.testing.assert_allclose(p.spectrum, 2.0 * kappa ** ((n - j) / (n - 1.0)), rtol=1e-14)


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
    (4, 10, 1e308, 0),      # ... and so must the Hessian's 2 kappa
    (1, 10, 100.0, -1),     # the seed must be >= 0
    (1, 10, 100.0, 1.5),    # ... and an integer; this one ran seed 1
    (True, 10, 100.0, 0),   # the set id must be an int; this ran set 1
    (4.0, 10, 100.0, 0),    # ... and this one set 4
])
def test_generate_rejects_bad_specs(args):
    with pytest.raises(InvalidSpec):
        quadprob.generate(*args)


@pytest.mark.parametrize("set_id", quadprob.SET_IDS)
def test_numpy_integers_give_the_same_problem(set_id):
    # n rejected np.int64, though the seed took it
    p = quadprob.generate(set_id, 20, 1e4, 3)
    q = quadprob.generate(np.int64(set_id), np.int64(20), 1e4, np.int32(3))
    np.testing.assert_array_equal(q.spectrum, p.spectrum)
    np.testing.assert_array_equal(q.x_star, p.x_star)
    np.testing.assert_array_equal(quadprob.starting_point(q, np.int64(2)),
                                  quadprob.starting_point(p, 2))


@pytest.mark.parametrize("kappa", [1.0, math.inf])
def test_verification_problem_rejects_bad_kappa(kappa):
    with pytest.raises(InvalidSpec):
        quadprob.verification_problem(kappa)


@pytest.mark.parametrize("replicate", [-1, 1.5, np.int64(-2)])
def test_starting_point_rejects_bad_replicates(replicate):
    # a negative replicate raised numpy's ValueError
    p = quadprob.generate(1, 10, 100.0, np.int64(3))
    with pytest.raises(InvalidSpec, match="replicate"):
        quadprob.starting_point(p, replicate)


def test_problem_validation():
    with pytest.raises(InvalidSpec):
        quadprob.QuadraticProblem(
            spectrum=np.array([1.0, -2.0]), x_star=np.zeros(2))
    with pytest.raises(InvalidSpec):
        quadprob.QuadraticProblem(
            spectrum=np.array([1.0, 2.0]), x_star=np.zeros(3))
    with pytest.raises(InvalidSpec, match="shapes differ"):
        quadprob.QuadraticProblem(spectrum=[1.0, 2.0], x_star=[0.0])
    # an infinite spectrum or x* entry was accepted, and the solve then
    # reported nonfinite
    with pytest.raises(InvalidSpec, match="spectrum"):
        quadprob.QuadraticProblem(
            spectrum=np.array([1.0, math.inf]), x_star=np.zeros(2))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSpec, match="x_star"):
            quadprob.QuadraticProblem(
                spectrum=np.array([1.0, 2.0]), x_star=np.array([0.0, bad]))
    with pytest.raises(InvalidSpec, match="seed"):
        quadprob.QuadraticProblem(spectrum=[1.0, 2.0], x_star=[0.0, 0.0],
                                  seed=-1)


def test_problem_accepts_lists():
    # this raised AttributeError: 'list' object has no attribute 'shape'
    p = quadprob.QuadraticProblem(spectrum=[2.0, 4.0, 6.0],
                                  x_star=[0.0, 0.0, 0.0])
    assert p.spectrum.dtype == float and p.x_star.dtype == float
    assert p.x_star.shape == (3,)
    assert quadprob.value(p, np.ones(3)) == 6.0
