"""Closed-form stepsizes that the solvers look up by name.

* :func:`sd_stepsize`: the exact steepest-descent step g'g / g'Ag of the
  first iteration on a quadratic, the one formula here that reads vectors;
* :func:`bbq_stepsize`: the two-dimensional quadratic-termination (BBQ)
  step from the last two BB1 and BB2 values, with ``TOL_DEN`` its
  tolerance on equal BB1 values.

The Barzilai-Borwein values themselves, BB1 = s's / s'y and
BB2 = s'y / y'y, are plain floats that each solver forms inline from the
inner products it already has.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Degenerate, NumericalFailure

# Relative gap under which bbq_stepsize takes two BB1 values as equal.
TOL_DEN = 1e-12


def sd_stepsize(g: np.ndarray, hess_g: np.ndarray) -> float:
    """Exact steepest-descent stepsize g'g / g'(Ag) on a quadratic.

    Parameters
    ----------
    g : ndarray
        Current gradient.
    hess_g : ndarray
        Hessian-vector product A g, already applied by the caller.

    Raises NumericalFailure unless 0 < g'Ag < inf (an overflowing or an
    underflowing g'Ag) and unless the step is positive and finite.
    """
    g = np.asarray(g, dtype=float)
    den = float(g @ np.asarray(hess_g, dtype=float))
    if not 0.0 < den < math.inf:
        raise NumericalFailure(f"g'Ag = {den} is not positive and finite")
    step = float(g @ g) / den
    if not 0.0 < step < math.inf:
        raise NumericalFailure(f"g'g / g'Ag = {step}")
    return step


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
