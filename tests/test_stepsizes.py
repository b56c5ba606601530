import math

import numpy as np
import pytest

from qtgrad.errors import Degenerate, NumericalFailure
from qtgrad.stepsizes import bbq_stepsize, sd_stepsize


def test_sd_stepsize_is_rayleigh_reciprocal():
    g = np.array([1.0, 2.0])
    hess_g = np.array([1.0, 4.0])     # A = diag(1, 2)
    assert sd_stepsize(g, hess_g) == pytest.approx(5.0 / 9.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sd_stepsize_rejects_overflowing_denominator():
    # g'g = 2e306 is finite but g'Ag overflows; the step used to be 0.0
    g = np.array([1e153, 1e153])
    with pytest.raises(NumericalFailure, match="g'Ag"):
        sd_stepsize(g, 100.0 * g)


@pytest.mark.parametrize("scale", [0.0, -1.0, 1e-170])
def test_sd_stepsize_rejects_nonpositive_denominator(scale):
    # at 1e-170 g'g = 2e-300 is positive but g'Ag underflows to 0
    g = np.array([1e-150, 1e-150])
    with pytest.raises(NumericalFailure, match="g'Ag"):
        sd_stepsize(g, scale * g)


def test_bbq_ratio_hand_case():
    # phi1/phi3 = 2.5, phi2/phi3 = 3.75
    alpha = bbq_stepsize(1.0, 0.5, 0.8, 0.4)
    assert alpha == pytest.approx(0.34688711258507254, rel=1e-12)


def test_bbq_second_hand_case():
    # den = 0.1875, r1 = 4, r2 = 5, disc = 9 -> alpha = 2/8
    assert bbq_stepsize(1.0, 0.25, 1.0, 0.25) == pytest.approx(0.25, rel=1e-14)


def test_bbq_degenerate_on_equal_bb1():
    with pytest.raises(Degenerate):
        bbq_stepsize(0.7, 0.7, 0.5, 0.4)


def test_bbq_degenerate_on_negative_discriminant():
    # unphysical bb2 > bb1 drives r2^2 < 4 r1
    with pytest.raises(Degenerate):
        bbq_stepsize(0.5, 0.25, 1.0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.3])
def test_bbq_degenerate_on_bad_inputs(bad):
    for slot in range(4):
        args = [1.0, 0.25, 0.5, 0.2]
        args[slot] = bad
        with pytest.raises(Degenerate):
            bbq_stepsize(*args)


def test_bbq_recovers_largest_eigenvalue_in_2d():
    """Two consecutive exact BB pairs on a 2-d quadratic pin 1/lam_max."""
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(100):
        lam = np.sort(rng.uniform(0.5, 50.0, size=2))
        if lam[1] - lam[0] < 1e-3:
            continue
        x = rng.uniform(-5.0, 5.0, size=2)
        g = lam * x
        bb1s, bb2s = [], []
        for _ in range(3):
            a = rng.uniform(0.2 / lam[1], 1.0 / lam[1])
            x_new = x - a * g
            g_new = lam * x_new
            s, y = x_new - x, g_new - g
            ss, sy, yy = float(s @ s), float(s @ y), float(y @ y)
            bb1s.append(ss / sy)
            bb2s.append(sy / yy)
            x, g = x_new, g_new
        try:
            alpha = bbq_stepsize(bb1s[-2], bb1s[-1], bb2s[-2], bb2s[-1])
        except Degenerate:
            continue
        assert alpha == pytest.approx(1.0 / lam[1], rel=1e-6)
        hits += 1
    assert hits > 60
