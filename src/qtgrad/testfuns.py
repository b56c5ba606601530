"""Classic smooth test functions with analytic gradients.

Each factory returns an :class:`~qtgrad.uncsolver.ObjectiveFn` with the
customary starting point.  Gradients are hand-derived; the test suite
cross-checks every one against central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadprob
from .uncsolver import ObjectiveFn

_TWO_PI = 2.0 * math.pi


def sphere(n: int = 50) -> ObjectiveFn:
    """Minimum is at f(0,...,0)=0."""

    def value(x):
        return float(x @ x)

    def gradient(x):
        return 2.0 * x

    return ObjectiveFn("sphere", value, gradient, np.ones(n))


def rosenbrock2() -> ObjectiveFn:
    """Minimum is at f(1,1)=0."""

    def value(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def gradient(x):
        t = x[1] - x[0] ** 2
        return np.array([-400.0 * x[0] * t - 2.0 * (1.0 - x[0]), 200.0 * t])

    return ObjectiveFn("rosenbrock2", value, gradient, np.array([-1.2, 1.0]))


def rosenbrock_ext(n: int = 100) -> ObjectiveFn:
    """Pairwise extended Rosenbrock; minimum is at f(1,...,1)=0."""
    if n % 2 != 0:
        raise ValueError("extended Rosenbrock needs even n")

    def value(x):
        odd = x[0::2]
        even = x[1::2]
        t = even - odd**2
        return float(100.0 * (t @ t) + (1.0 - odd) @ (1.0 - odd))

    def gradient(x):
        g = np.empty_like(x)
        odd = x[0::2]
        even = x[1::2]
        t = even - odd**2
        g[0::2] = -400.0 * odd * t - 2.0 * (1.0 - odd)
        g[1::2] = 200.0 * t
        return g

    x0 = np.tile([-1.2, 1.0], n // 2)
    return ObjectiveFn("rosenbrock_ext", value, gradient, x0)


def powell_singular() -> ObjectiveFn:
    """Minimum is at f(0,0,0,0)=0; the Hessian there is singular."""

    def value(x):
        return float((x[0] + 10.0 * x[1]) ** 2 + 5.0 * (x[2] - x[3]) ** 2
                     + (x[1] - 2.0 * x[2]) ** 4 + 10.0 * (x[0] - x[3]) ** 4)

    def gradient(x):
        a = x[0] + 10.0 * x[1]
        b = x[2] - x[3]
        c = x[1] - 2.0 * x[2]
        d = x[0] - x[3]
        return np.array([
            2.0 * a + 40.0 * d**3,
            20.0 * a + 4.0 * c**3,
            10.0 * b - 8.0 * c**3,
            -10.0 * b - 40.0 * d**3,
        ])

    return ObjectiveFn("powell_singular", value, gradient,
                       np.array([3.0, -1.0, 0.0, 1.0]))


def beale() -> ObjectiveFn:
    """Minimum is at f(3, 0.5)=0."""
    c = (1.5, 2.25, 2.625)

    def value(x):
        return float(sum((c[i] - x[0] * (1.0 - x[1] ** (i + 1))) ** 2
                         for i in range(3)))

    def gradient(x):
        g0 = 0.0
        g1 = 0.0
        for i in range(3):
            pw = i + 1
            r = c[i] - x[0] * (1.0 - x[1] ** pw)
            g0 += 2.0 * r * (x[1] ** pw - 1.0)
            g1 += 2.0 * r * x[0] * pw * x[1] ** (pw - 1)
        return np.array([g0, g1])

    return ObjectiveFn("beale", value, gradient, np.array([1.0, 1.0]))


def _theta(x0: float, x1: float) -> float:
    th = math.atan2(x1, x0) / _TWO_PI
    # keep the sheet continuous across the negative x-axis
    return th + 1.0 if th < -0.25 else th


def helical_valley() -> ObjectiveFn:
    """Minimum is at f(1,0,0)=0."""

    def value(x):
        # np.float64: its ** overflows to inf where a float's raises
        r = np.float64(math.hypot(x[0], x[1]))
        th = _theta(x[0], x[1])
        return float(100.0 * ((x[2] - 10.0 * th) ** 2 + (r - 1.0) ** 2)
                     + x[2] ** 2)

    def gradient(x):
        r2 = x[0] ** 2 + x[1] ** 2
        r = math.sqrt(r2)
        th = _theta(x[0], x[1])
        a = x[2] - 10.0 * th
        g0 = 2000.0 * a * x[1] / (_TWO_PI * r2) + 200.0 * (r - 1.0) * x[0] / r
        g1 = -2000.0 * a * x[0] / (_TWO_PI * r2) + 200.0 * (r - 1.0) * x[1] / r
        g2 = 200.0 * a + 2.0 * x[2]
        return np.array([g0, g1, g2])

    return ObjectiveFn("helical_valley", value, gradient,
                       np.array([-1.0, 0.0, 0.0]))


def wood() -> ObjectiveFn:
    """Minimum is at f(1,1,1,1)=0."""

    def value(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
                     + 90.0 * (x[3] - x[2] ** 2) ** 2 + (1.0 - x[2]) ** 2
                     + 10.1 * ((x[1] - 1.0) ** 2 + (x[3] - 1.0) ** 2)
                     + 19.8 * (x[1] - 1.0) * (x[3] - 1.0))

    def gradient(x):
        t1 = x[1] - x[0] ** 2
        t2 = x[3] - x[2] ** 2
        return np.array([
            -400.0 * x[0] * t1 - 2.0 * (1.0 - x[0]),
            200.0 * t1 + 20.2 * (x[1] - 1.0) + 19.8 * (x[3] - 1.0),
            -360.0 * x[2] * t2 - 2.0 * (1.0 - x[2]),
            180.0 * t2 + 20.2 * (x[3] - 1.0) + 19.8 * (x[1] - 1.0),
        ])

    return ObjectiveFn("wood", value, gradient,
                       np.array([-3.0, -1.0, -3.0, -1.0]))


def trigonometric(n: int = 10) -> ObjectiveFn:
    """Minimum is f=0 on a set containing x=0's neighborhood solutions."""
    idx = np.arange(1, n + 1, dtype=float)

    def _residuals(x):
        cos = np.cos(x)
        return n - cos.sum() + idx * (1.0 - cos) - np.sin(x)

    def value(x):
        r = _residuals(x)
        return float(r @ r)

    def gradient(x):
        r = _residuals(x)
        sin = np.sin(x)
        return 2.0 * (r.sum() * sin + r * (idx * sin - np.cos(x)))

    x0 = np.full(n, 1.0 / n)
    return ObjectiveFn("trigonometric", value, gradient, x0)


def broyden_tridiagonal(n: int = 100) -> ObjectiveFn:
    """Minimum is f=0 at the tridiagonal system's root."""

    def _residuals(x):
        r = (3.0 - 2.0 * x) * x + 1.0
        r[1:] -= x[:-1]
        r[:-1] -= 2.0 * x[1:]
        return r

    def value(x):
        r = _residuals(x)
        return float(r @ r)

    def gradient(x):
        r = _residuals(x)
        g = 2.0 * r * (3.0 - 4.0 * x)
        g[:-1] -= 2.0 * r[1:]
        g[1:] -= 4.0 * r[:-1]
        return g

    return ObjectiveFn("broyden_tridiagonal", value, gradient,
                       np.full(n, -1.0))


def dixon_price(n: int = 10) -> ObjectiveFn:
    """Minimum is f=0 at x_i = 2^(-(2^i - 2)/2^i)."""
    idx = np.arange(2, n + 1, dtype=float)

    def _terms(x):
        return 2.0 * x[1:] ** 2 - x[:-1]

    def value(x):
        t = _terms(x)
        return float((x[0] - 1.0) ** 2 + idx @ (t * t))

    def gradient(x):
        t = _terms(x)
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] = 8.0 * idx * x[1:] * t
        g[:-1] -= 2.0 * idx * t
        return g

    return ObjectiveFn("dixon_price", value, gradient, np.full(n, 2.0))


def ill_conditioned_quadratic(n: int = 50, kappa: float = 1e4,
                              seed: int = 7) -> ObjectiveFn:
    """Geometric-spectrum quadratic; minimum is f=0 at a random x*."""
    p = quadprob.generate(4, n, kappa, seed)
    x0 = quadprob.starting_point(p, 0)

    def value(x):
        return quadprob.value(p, x)

    def gradient(x):
        return quadprob.gradient(p, x)

    return ObjectiveFn("illcond_quadratic", value, gradient, x0)


def builtin_suite() -> list[ObjectiveFn]:
    """The standard battery used by the unconstrained benchmark."""
    return [
        sphere(),
        rosenbrock2(),
        rosenbrock_ext(),
        powell_singular(),
        beale(),
        helical_valley(),
        wood(),
        trigonometric(),
        broyden_tridiagonal(),
        dixon_price(),
        ill_conditioned_quadratic(),
    ]
