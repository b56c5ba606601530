"""Scalar stepsize formulas for gradient methods.

Every formula here consumes inner products of the displacement
s = x_k - x_{k-1} and gradient difference y = g_k - g_{k-1}, packed in a
:class:`StepPair`.  Solvers build pairs once per iteration and feed them to
whichever rules they need, so no function in this module touches vectors
except the ``from_vectors`` constructor and ``sd_stepsize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NonPositiveCurvature, ZeroDenominator

# Cauchy-Schwarz slack for pairs built from explicit vectors.
_CS_RTOL = 1e-12
# Relative gap under which bbq_stepsize takes two BB1 values as equal.
TOL_DEN = 1e-12


@dataclass(frozen=True)
class StepPair:
    """Inner products of one (s, y) displacement/gradient-difference pair."""

    s_dot_s: float
    s_dot_y: float
    y_dot_y: float

    def __post_init__(self):
        if self.s_dot_s < 0.0 or self.y_dot_y < 0.0:
            raise ValueError("squared norms must be nonnegative")

    @classmethod
    def from_vectors(cls, s: np.ndarray, y: np.ndarray) -> "StepPair":
        """Build a pair from explicit s and y vectors."""
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        pair = cls(float(s @ s), float(s @ y), float(y @ y))
        bound = pair.s_dot_s * pair.y_dot_y
        if pair.s_dot_y**2 > bound * (1.0 + _CS_RTOL) + _CS_RTOL:
            raise ValueError("inner products violate Cauchy-Schwarz")
        return pair


def bb1(pair: StepPair) -> float:
    """First Barzilai-Borwein stepsize s's / s'y.

    Raises NonPositiveCurvature when s'y <= 0.
    """
    if pair.s_dot_y <= 0.0:
        raise NonPositiveCurvature(f"s'y = {pair.s_dot_y}")
    return pair.s_dot_s / pair.s_dot_y


def bb2(pair: StepPair) -> float:
    """Second Barzilai-Borwein stepsize s'y / y'y.

    Raises NonPositiveCurvature when s'y <= 0 and ZeroDenominator when
    y'y = 0.
    """
    if pair.s_dot_y <= 0.0:
        raise NonPositiveCurvature(f"s'y = {pair.s_dot_y}")
    if pair.y_dot_y == 0.0:
        raise ZeroDenominator("y'y = 0")
    return pair.s_dot_y / pair.y_dot_y


def day_stepsize(pair: StepPair) -> float:
    """Dai-Yang stepsize ||s|| / ||y||, the geometric mean of bb1 and bb2."""
    if pair.y_dot_y == 0.0:
        raise ZeroDenominator("y'y = 0")
    return math.sqrt(pair.s_dot_s / pair.y_dot_y)


def sd_stepsize(g: np.ndarray, hess_g: np.ndarray) -> float:
    """Exact steepest-descent stepsize g'g / g'(Ag) on a quadratic.

    Parameters
    ----------
    g : ndarray
        Current gradient.
    hess_g : ndarray
        Hessian-vector product A g, already applied by the caller.
    """
    g = np.asarray(g, dtype=float)
    den = float(g @ np.asarray(hess_g, dtype=float))
    if den <= 0.0:
        raise NonPositiveCurvature(f"g'Ag = {den}")
    return float(g @ g) / den


def bbq_stepsize(bb1_prev: float, bb1_cur: float, bb2_prev: float,
                 bb2_cur: float) -> float:
    """Two-dimensional quadratic-termination (BBQ) stepsize.

    The stepsize is the reciprocal of the larger root of the quadratic
    phi1 - phi2 z + phi3 z^2, whose coefficient ratios come from the last
    two BB1/BB2 values: 2 / (phi2/phi3 + sqrt((phi2/phi3)^2 - 4 phi1/phi3)).
    Raises Degenerate when an input is not a positive finite number, when
    the shared denominator is numerically zero, which happens whenever
    consecutive BB1 values coincide (the two-point history no longer
    determines two distinct curvatures), when the discriminant is
    negative, or when the result is not a positive finite number.
    """
    if not (0.0 < bb1_prev < math.inf and 0.0 < bb1_cur < math.inf
            and 0.0 < bb2_prev < math.inf and 0.0 < bb2_cur < math.inf):
        raise Degenerate(f"bbq inputs (bb1_prev, bb1_cur, bb2_prev, bb2_cur)"
                         f" = {(bb1_prev, bb1_cur, bb2_prev, bb2_cur)}")
    scale = max(bb1_prev, bb1_cur)
    den = bb2_prev * bb2_cur * (bb1_prev - bb1_cur)
    if abs(bb1_prev - bb1_cur) <= TOL_DEN * scale or den == 0.0:
        raise Degenerate("consecutive bb1 values coincide")
    r1 = (bb2_prev - bb2_cur) / den                       # phi1 / phi3
    r2 = (bb1_prev * bb2_prev - bb1_cur * bb2_cur) / den  # phi2 / phi3
    disc = r2 * r2 - 4.0 * r1
    if disc < 0.0:
        raise Degenerate(f"discriminant = {disc}")
    den = r2 + math.sqrt(disc)
    if den <= 0.0:
        raise Degenerate(f"root denominator = {den}")
    step = 2.0 / den
    if not math.isfinite(step) or step <= 0.0:
        raise Degenerate(f"bbq step = {step}")
    return step
