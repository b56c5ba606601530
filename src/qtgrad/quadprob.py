"""Diagonal quadratic test problems for the benchmark.

Every problem is f(x) = 1/2 (x - x*)' diag(h) (x - x*), whose spectrum h
is the Hessian's diagonal.  Benchmark problems take one of five recipes
(``SET_IDS``) for v = h / 2, so f = (x - x*)' diag(v) (x - x*): sets 1, 3
and 5 pin v_1 = 1 and v_n = kappa with random interiors, set 2 draws two
clusters near 1 and near kappa, and set 4 is the deterministic geometric
ladder kappa^((n-j)/(n-1)).  The tiny verification problem has x* = 0 and
Hessian diag(1, kappa/2, kappa).

Randomness: a single integer seed feeds ``numpy.random.SeedSequence``;
independent streams are split off with spawn keys so that the spectrum,
the solution point and each starting replicate are decoupled:

* spawn key (0,): spectrum draws
* spawn key (1,): x* draws
* spawn key (2, r): starting point replicate r

All generators are PCG64.  Open intervals (a, b) are enforced by redrawing
any sample that lands exactly on an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec

SET_IDS = (1, 2, 3, 4, 5)

_SPECTRUM_KEY = (0,)
_XSTAR_KEY = (1,)
_START_KEY = 2


@dataclass(frozen=True)
class QuadraticProblem:
    """A diagonal quadratic with known solution.

    ``spectrum`` is the Hessian's diagonal h: f = 1/2 (x - x*)' diag(h)
    (x - x*), so ``grad_scale`` is 1 and ``value_scale`` 1/2.  ``seed``
    feeds :func:`starting_point`.
    """

    grad_scale = 1.0
    value_scale = 0.5

    spectrum: np.ndarray
    x_star: np.ndarray
    seed: int = 0

    def __post_init__(self):
        v = np.asarray(self.spectrum, dtype=float)
        xs = np.asarray(self.x_star, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidSpec("spectrum must be a 1-d vector")
        # the finiteness checks are reductions: no n-sized temporaries
        if not (np.all(v > 0.0) and v.max() < np.inf):
            raise InvalidSpec("spectrum must be positive and finite")
        if xs.shape != v.shape:
            raise InvalidSpec("x_star and spectrum shapes differ")
        if not (np.isfinite(xs.min()) and np.isfinite(xs.max())):
            raise InvalidSpec("x_star must be finite")
        check_seed(self.seed)
        object.__setattr__(self, "spectrum", v)
        object.__setattr__(self, "x_star", xs)

    @property
    def n(self) -> int:
        return self.spectrum.size


def value(p: QuadraticProblem, x: np.ndarray) -> float:
    d = np.asarray(x, dtype=float) - p.x_star
    return p.value_scale * float(d.dot(p.spectrum * d))

def gradient(p: QuadraticProblem, x: np.ndarray, out=None) -> np.ndarray:
    """The gradient (x - x*) h, written into ``out`` when given."""
    d = np.subtract(np.asarray(x, dtype=float), p.x_star, out)
    return np.multiply(d, p.spectrum, d)

def hess_vec(p: QuadraticProblem, d: np.ndarray) -> np.ndarray:
    return p.spectrum * np.asarray(d, dtype=float)


def _stream(seed: int, key: tuple) -> np.random.Generator:
    """PCG64 generator for one named sub-stream of a problem seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=key))
    )


def _open_uniform(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """Uniform draws on the open interval (lo, hi), endpoints rejected."""
    out = rng.uniform(lo, hi, size=size)
    bad = (out == lo) | (out == hi)
    while bad.any():
        out[bad] = rng.uniform(lo, hi, size=int(bad.sum()))
        bad = (out == lo) | (out == hi)
    return out


def _spectrum(set_id: int, n: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    v = np.empty(n)
    if set_id == 1:
        v[0] = 1.0
        v[-1] = kappa
        v[1:-1] = _open_uniform(rng, 1.0, kappa, n - 2)
    elif set_id == 2:
        h = n // 2
        s = np.empty(n)
        s[:h] = _open_uniform(rng, 0.8, 1.0, h)
        s[h:] = _open_uniform(rng, 0.0, 0.2, n - h)
        v = 1.0 + (kappa - 1.0) * s
    elif set_id in (3, 5):
        v[0] = 1.0
        v[-1] = kappa
        # low group runs through index n/5 for set 3, 4n/5 for set 5
        lo_count = (n // 5 if set_id == 3 else 4 * (n // 5)) - 1
        v[1 : 1 + lo_count] = _open_uniform(rng, 1.0, 100.0, lo_count)
        v[1 + lo_count : -1] = _open_uniform(
            rng, kappa / 2.0, kappa, n - 2 - lo_count
        )
    else:   # set 4; generate has checked set_id
        j = np.arange(1, n + 1, dtype=float)
        v = kappa ** ((n - j) / (n - 1.0))
    return v


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool or a float, even
    an integral one, is not."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise InvalidSpec unless seed is an integer >= 0 (:func:`_is_integer`)."""
    if not _is_integer(seed) or seed < 0:
        raise InvalidSpec(f"{name} must be an integer >= 0, got {seed!r}")


def check_kappa(kappa: float) -> None:
    """Raise InvalidSpec unless kappa lies in (1, inf)."""
    if not 1.0 < kappa < np.inf:
        raise InvalidSpec("kappa must lie in (1, inf)")


def check_spec(set_id: int, n: int, kappa: float) -> None:
    """Raise InvalidSpec unless :func:`generate` accepts (set_id, n, kappa).

    set_id is one of ``SET_IDS`` and n at least 3, both integers by
    :func:`_is_integer`; kappa lies in (1, inf) and so does the largest
    Hessian eigenvalue 2 kappa, set 2 needs an even n, and sets 3 and 5
    need n divisible by 5 and kappa >= 100.
    """
    if not _is_integer(n):
        raise InvalidSpec(f"n must be an integer, got {n!r}")
    if n < 3:
        raise InvalidSpec("n must be at least 3")
    if not _is_integer(set_id) or set_id not in SET_IDS:
        raise InvalidSpec(f"unknown set id {set_id!r}")
    check_kappa(kappa)
    if not 2.0 * kappa < np.inf:
        raise InvalidSpec("2 kappa, the largest Hessian eigenvalue, must be finite")
    if set_id == 2 and n % 2 != 0:
        raise InvalidSpec("set 2 needs even n")
    if set_id in (3, 5):
        if n % 5 != 0:
            raise InvalidSpec(f"set {set_id} needs n divisible by 5")
        if kappa < 100.0:
            raise InvalidSpec(f"set {set_id} needs kappa >= 100")


def generate(set_id: int, n: int, kappa: float, seed: int) -> QuadraticProblem:
    """Generate one benchmark problem.

    ``x*`` is uniform on [-10, 10]^n from the (1,) stream and the spectrum,
    twice the set's recipe, from the (0,) stream, so changing one never
    perturbs the other.  Raises InvalidSpec where :func:`check_spec` or
    :func:`check_seed` does.
    """
    check_spec(set_id, n, kappa)
    check_seed(seed)
    spec_rng = _stream(seed, _SPECTRUM_KEY)
    xstar_rng = _stream(seed, _XSTAR_KEY)
    v = _spectrum(set_id, n, kappa, spec_rng)
    v *= 2.0
    x_star = xstar_rng.uniform(-10.0, 10.0, size=n)
    return QuadraticProblem(spectrum=v, x_star=x_star, seed=int(seed))


def verification_problem(kappa: float) -> QuadraticProblem:
    """The 3-d problem with Hessian diag(1, kappa/2, kappa) and x* = 0."""
    check_kappa(kappa)
    h = np.array([1.0, kappa / 2.0, kappa])
    return QuadraticProblem(spectrum=h, x_star=np.zeros(3))


def starting_point(p: QuadraticProblem, replicate: int) -> np.ndarray:
    """Starting point replicate, uniform on [-10, 10]^n.

    Derived from the problem seed and the replicate index through the
    (2, replicate) spawn key, so replicates are mutually independent and
    reproducible without storing any state.  Raises InvalidSpec unless
    ``replicate`` is an integer >= 0.
    """
    check_seed(replicate, "replicate")
    rng = _stream(p.seed, (_START_KEY, int(replicate)))
    return rng.uniform(-10.0, 10.0, size=p.n)
