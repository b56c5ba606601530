"""The globalized solver, pinned bit for bit.

``_search`` with ``d=None`` must give exactly what the explicit d = -g
gives, and ``solve`` must reproduce the frozen runs below.  The frozen
values were recorded from the solver as it was before its loop stopped
forming -g; the ten runs that restart after a nocurv pair at
||x||_inf > 1 were recorded again when that restart lost its cap of 1
on ||x||_inf.  Any change to the iteration's arithmetic shows up here as
a changed count or a changed last bit of ``final_f`` or ``final_gnorm``.
"""

import math

import numpy as np
import pytest

from qtgrad import testfuns
from qtgrad.errors import LineSearchFailure, NonDescentDirection
from qtgrad.uncsolver import DELTA, ETA, UncSolverConfig, _search, solve


def _bits(out):
    lam, nfe, trial, f_trial = out
    return lam.hex(), nfe, trial.tobytes(), f_trial.hex()


def _quartic(z):
    return float(np.sum(z ** 4) + z @ z)


def _quartic_gradient(z):
    return 4.0 * z ** 3 + 2.0 * z


def _nan_beyond(radius):
    def value(z):
        return math.nan if float(np.abs(z).max()) > radius else float(z @ z)
    return value


def _point(rng, n, strided):
    """A random x and the quartic's gradient there, g strided on request."""
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
    g = _quartic_gradient(x)
    if strided:
        buf = np.zeros(3 * n)
        buf[::3] = g
        g = buf[::3]
        assert g.strides == (24,)
    return x, g


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 33, 100, 259, 999,
                               1000, 4096])
def test_minus_g_identities_hold_bitwise(n, scale):
    # what the d=None path rests on: g'(-g) is -(g'g), and x + lam (-g)
    # is x - lam g, for contiguous and strided g alike
    rng = np.random.default_rng([n, 3])
    buf = rng.normal(size=3 * n) * scale
    x = rng.normal(size=n) * scale
    lam = float(rng.uniform(0.1, 10.0))
    for g in (buf[:n].copy(), buf[::3]):
        assert (-float(g.dot(g))).hex() == float(g @ -g).hex()
        assert (x - lam * g).tobytes() == (x + lam * -g).tobytes()


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous",
                                                        "strided"])
@pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 100, 259, 1000])
def test_search_along_minus_g_matches_explicit_direction(n, strided):
    rng = np.random.default_rng([n, strided])
    backtracked = 0
    for _ in range(20):
        x, g = _point(rng, n, strided)
        alpha0 = 10.0 ** rng.uniform(-3, 2)
        f_r = _quartic(x)
        implicit = _search(_quartic, x, g, None, alpha0, f_r, DELTA, ETA, 60)
        explicit = _search(_quartic, x, g, -g, alpha0, f_r, DELTA, ETA, 60)
        assert _bits(implicit) == _bits(explicit)
        backtracked += implicit[1] > 1
    assert backtracked > 0, "premise: some searches backtrack"


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous",
                                                        "strided"])
def test_search_along_minus_g_matches_at_a_nan_trial(strided):
    rng = np.random.default_rng(7)
    x, g = _point(rng, 50, strided)
    value = _nan_beyond(float(np.abs(x).max()) * 1.5)
    alpha0 = 1e3 * float(np.abs(x).max()) / float(np.abs(g).max())
    implicit = _search(value, x, g, None, alpha0, value(x), DELTA, ETA, 60)
    explicit = _search(value, x, g, -g, alpha0, value(x), DELTA, ETA, 60)
    assert math.isnan(implicit[3])
    assert _bits(implicit) == _bits(explicit)


def test_search_along_minus_g_raises_as_explicit_direction():
    x = np.array([1.0, -2.0])
    for g in (np.zeros(2), np.array([0.0, -0.0])):
        for d in (None, -g):
            with pytest.raises(NonDescentDirection):
                _search(_quartic, x, g, d, 1.0, 5.0, DELTA, ETA, 60)
    g = np.array([1.0, 1.0])
    for d in (None, -g):
        with pytest.raises(LineSearchFailure):
            _search(lambda z: 2.0, x, g, d, 1.0, 1.0, DELTA, ETA, 5)


# Key of each function's perturbed start, the first (from 0) whose runs
# backtrack under both methods; sphere's first trial is exact from any
# start, so its key is 0 and it never backtracks.
PERTURB_KEY = {
    "sphere": 0,
    "rosenbrock2": 1,
    "rosenbrock_ext": 0,
    "powell_singular": 0,
    "beale": 33,
    "helical_valley": 10,
    "wood": 0,
    "trigonometric": 10,
    "broyden_tridiagonal": 0,
    "dixon_price": 1,
    "illcond_quadratic": 0,
}

# (iterations, nfe, ngrad, final_f.hex(), final_gnorm.hex()) per
# (function, start, method), at the default configuration.
FROZEN = {
    ("sphere", "default", "alg1"): (1, 2, 2, "0x0.0p+0", "0x0.0p+0"),
    ("sphere", "default", "alg1-bbq"): (1, 2, 2, "0x0.0p+0", "0x0.0p+0"),
    ("sphere", "perturbed", "alg1"): (1, 2, 2, "0x0.0p+0", "0x0.0p+0"),
    ("sphere", "perturbed", "alg1-bbq"): (1, 2, 2, "0x0.0p+0", "0x0.0p+0"),
    ("rosenbrock2", "default", "alg1"): (57, 61, 58, "0x1.b0b5187a80000p-71", "0x1.4064ffffc0c4cp-34"),
    ("rosenbrock2", "default", "alg1-bbq"): (55, 58, 56, "0x1.5f7dcd665d8b2p-48", "0x1.dc33b70000000p-25"),
    ("rosenbrock2", "perturbed", "alg1"): (58, 68, 59, "0x1.21ade7a5abd40p-58", "0x1.54a8cc4036807p-24"),
    ("rosenbrock2", "perturbed", "alg1-bbq"): (56, 68, 57, "0x1.bf937c8194000p-63", "0x1.2b7fd100103fap-26"),
    ("rosenbrock_ext", "default", "alg1"): (57, 61, 58, "0x1.520bec2201000p-65", "0x1.40333fffc0caap-34"),
    ("rosenbrock_ext", "default", "alg1-bbq"): (55, 58, 56, "0x1.129a08302c084p-42", "0x1.dc336c0000000p-25"),
    ("rosenbrock_ext", "perturbed", "alg1"): (207, 238, 208, "0x1.05f3f4cbd95d0p-57", "0x1.7c36ab8021952p-25"),
    ("rosenbrock_ext", "perturbed", "alg1-bbq"): (112, 117, 113, "0x1.663c076bbb548p-46", "0x1.a90149c954288p-22"),
    ("powell_singular", "default", "alg1"): (135, 140, 136, "0x1.5d1a9ce6208cfp-30", "0x1.d054b2ddf91b1p-21"),
    ("powell_singular", "default", "alg1-bbq"): (125, 135, 126, "0x1.d8e8c508f8e22p-32", "0x1.36f1b599f970ep-21"),
    ("powell_singular", "perturbed", "alg1"): (187, 214, 188, "0x1.f0ef33b69a4f2p-30", "0x1.6f57b1312c068p-21"),
    ("powell_singular", "perturbed", "alg1-bbq"): (132, 140, 133, "0x1.48847a6f46beap-31", "0x1.c7cda04579aeep-22"),
    ("beale", "default", "alg1"): (31, 32, 32, "0x1.a8c3f1e23e95ap-50", "0x1.536aee538a78cp-22"),
    ("beale", "default", "alg1-bbq"): (31, 32, 32, "0x1.ee155465f46b8p-46", "0x1.5ce9e5537d818p-22"),
    ("beale", "perturbed", "alg1"): (29, 31, 30, "0x1.6a3e90db14392p-50", "0x1.c7d1c7da5037cp-23"),
    ("beale", "perturbed", "alg1-bbq"): (30, 32, 31, "0x1.21b6d55a07d95p-47", "0x1.1bd95a2088ff0p-21"),
    ("helical_valley", "default", "alg1"): (37, 38, 38, "0x1.01bbd9b903bd2p-55", "0x1.948dd1fb6c0e7p-24"),
    ("helical_valley", "default", "alg1-bbq"): (40, 41, 41, "0x1.b052370d7bf71p-85", "0x1.66a0c6590746fp-39"),
    ("helical_valley", "perturbed", "alg1"): (48, 50, 49, "0x1.3798afcdc3a79p-59", "0x1.1e05e9d0221e1p-29"),
    ("helical_valley", "perturbed", "alg1-bbq"): (44, 46, 45, "0x1.568255ac894dap-55", "0x1.2be020db20585p-27"),
    ("wood", "default", "alg1"): (166, 173, 167, "0x1.b059f457f4000p-52", "0x1.29a26084a329ap-23"),
    ("wood", "default", "alg1-bbq"): (205, 227, 206, "0x1.c1f0468f08ba0p-56", "0x1.61f521a083273p-23"),
    ("wood", "perturbed", "alg1"): (234, 249, 235, "0x1.f6ac907f45b32p-65", "0x1.22532b7fe60f9p-27"),
    ("wood", "perturbed", "alg1-bbq"): (192, 206, 193, "0x1.8850e5dcd38eap-51", "0x1.74962e4f4ce1ep-21"),
    ("trigonometric", "default", "alg1"): (61, 63, 62, "0x1.d4eec078d14c9p-16", "0x1.8d7564e180c00p-21"),
    ("trigonometric", "default", "alg1-bbq"): (65, 67, 66, "0x1.d4eec19870d56p-16", "0x1.5da9599cce600p-21"),
    ("trigonometric", "perturbed", "alg1"): (93, 96, 94, "0x1.61e27a0d1bcddp-15", "0x1.f13527e264800p-21"),
    ("trigonometric", "perturbed", "alg1-bbq"): (87, 90, 88, "0x1.61e279de68ca4p-15", "0x1.94ddb81b83400p-21"),
    ("broyden_tridiagonal", "default", "alg1"): (36, 37, 37, "0x1.19331311c894cp-43", "0x1.0c66b36976235p-20"),
    ("broyden_tridiagonal", "default", "alg1-bbq"): (36, 37, 37, "0x1.0e0d3508b6c67p-47", "0x1.ccaee7d757614p-23"),
    ("broyden_tridiagonal", "perturbed", "alg1"): (30, 32, 31, "0x1.70af23bd593f1p-44", "0x1.3c3b6e40e0576p-21"),
    ("broyden_tridiagonal", "perturbed", "alg1-bbq"): (38, 40, 39, "0x1.019bc1e3ffebdp-46", "0x1.bc5460f764928p-22"),
    ("dixon_price", "default", "alg1"): (72, 75, 73, "0x1.55555555555b7p-1", "0x1.50b6d54849f8ep-22"),
    ("dixon_price", "default", "alg1-bbq"): (72, 75, 73, "0x1.5555555555558p-1", "0x1.3a055d4fabdf7p-24"),
    ("dixon_price", "perturbed", "alg1"): (116, 118, 117, "0x1.5555555555903p-1", "0x1.30111bc47af02p-21"),
    ("dixon_price", "perturbed", "alg1-bbq"): (81, 83, 82, "0x1.55555555556abp-1", "0x1.0390965aac61cp-20"),
    ("illcond_quadratic", "default", "alg1"): (569, 612, 570, "0x1.adaa80645abf6p-44", "0x1.f93ea7358ecf6p-21"),
    ("illcond_quadratic", "default", "alg1-bbq"): (1094, 1217, 1095, "0x1.4e9fe12832cbcp-47", "0x1.7b0bc99212cffp-21"),
    ("illcond_quadratic", "perturbed", "alg1"): (595, 636, 596, "0x1.0257bdb561a48p-45", "0x1.648ad60000000p-22"),
    ("illcond_quadratic", "perturbed", "alg1-bbq"): (1048, 1169, 1049, "0x1.96fe57359f2bfp-43", "0x1.ecdca769fb6b9p-21"),
}


def _start(i, f, which):
    x0 = np.asarray(f.x0, dtype=float)
    if which == "default":
        return x0
    rng = np.random.default_rng([2024, i, PERTURB_KEY[f.name]])
    return x0 + 0.5 * np.maximum(1.0, np.abs(x0)) * rng.uniform(
        -1.0, 1.0, x0.size)


def test_frozen_table_covers_the_suite():
    names = [f.name for f in testfuns.builtin_suite()]
    assert list(PERTURB_KEY) == names
    assert len(FROZEN) == 4 * len(names)


@pytest.mark.parametrize("which", ["default", "perturbed"])
@pytest.mark.parametrize("i", range(len(PERTURB_KEY)),
                         ids=list(PERTURB_KEY))
def test_solve_matches_frozen_runs(i, which):
    f = testfuns.builtin_suite()[i]
    x0 = _start(i, f, which)
    for use_new in (True, False):
        rep = solve(f, x0, UncSolverConfig(use_new_step=use_new))
        assert rep.status == "ok"
        got = (rep.iterations, rep.nfe, rep.ngrad, rep.final_f.hex(),
               rep.final_gnorm.hex())
        assert got == FROZEN[f.name, which, rep.method]
        if which == "perturbed" and f.name != "sphere":
            assert rep.nfe > rep.iterations + 1, "premise: it backtracks"
