"""Three-dimensional quadratic-termination stepsize machinery.

The stepsize is the reciprocal of the largest eigenvalue of a small
projected Hessian H = Q'AQ, where Q stacks orthonormal vectors spanning
the last three gradients.  Two independent routes produce H:

* the direct route: Gram-Schmidt on the three gradients plus explicit
  Hessian-vector products (:func:`alpha_new_direct`), and
* the recurrence route: closed-form entries built only from recent
  gradient norms, taken stepsizes and BB1 values
  (:func:`alpha_new_bb`), which is what the solvers use since it needs
  no Hessian access at all.

On a quadratic with exact history both routes give the same matrix up to
roundoff.  The recurrence route builds a2 H, a2 the stepsize taken at
k - 2, from ratios of stepsizes and of gradient norms alone, so its five
tridiagonal entries are O(1) at every Hessian scale and a history scaled
as by a Hessian times 2^e gives them bit for bit.  It runs in plain
floats on plain tuples, checked by chained comparisons, and takes the
largest eigenvalue of a2 H by Newton's method on det(zI - a2 H),
evaluated by the tridiagonal recurrence; the stepsize is a2 over it.
:func:`recurrence_scalars` and :func:`hmatrix_from_recurrence` give the
same arithmetic in the dimensional :class:`RecurrenceScalars` and
:class:`HMatrix` for tests and inspection; :class:`HMatrix` also serves
outside input and the direct route.  The direct route's 3x3 and the 4x4
of :func:`largest_root_quartic` are solved by ``eigvalsh`` at A / 2^e;
no solver takes a four-dimensional step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stepsizes
from .errors import Degenerate, LinearDependence

_SYM_RTOL = 1e-12
# Linear-dependence threshold of gram_schmidt3 and recurrence_scalars.
TOL_DEP = 1e-10
# Bound of the chained finiteness guards: -_INF < x < _INF fails on nan
# and on either infinity.
_INF = math.inf
# _largest_root scales T by a power of two unless its largest |entry| lies
# here, where det(zI - T) stays far inside the normal range
_SAFE_MIN, _SAFE_MAX = 1e-90, 1e90


def _symmetric(entries, dim: int) -> np.ndarray:
    """``entries`` as a finite symmetric dim x dim float array, else ValueError."""
    a = np.asarray(entries, dtype=float)
    if a.shape != (dim, dim):
        raise ValueError(f"expected {dim}x{dim}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries are not finite")
    scale = float(np.abs(a).max())
    if not np.allclose(a, a.T, rtol=_SYM_RTOL, atol=_SYM_RTOL * scale):
        raise ValueError("entries are not symmetric")
    return a


@dataclass(frozen=True)
class HMatrix:
    """Finite symmetric 3x3 matrix, validated on construction; the direct
    route's eigensolver reads its ``entries``, the acceptance gates its
    ``trace``."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _symmetric(self.entries, 3))

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


class CubicSolve(NamedTuple):
    """Largest eigenvalue of a symmetric 3x3."""

    largest_root: float


class RecurrenceScalars(NamedTuple):
    """The five closed-form scalars that H's recurrence entries read.

    ``g_r`` and ``g_ar`` are the inner products g'r and g'(Ar) of the
    newest gradient with the third (unnormalized) Gram-Schmidt direction;
    g_r must be positive for the matrix to exist.  The recurrence forms
    them, and delta, as ratios (:func:`_scalars`); these fields are the
    dimensional values, converted back.
    """

    sigma: float
    delta: float
    gamma: float
    g_r: float
    g_ar: float


class GradientHistory:
    """The last four iterates' scalars in four float slots, oldest first.

    Index -1 is the newest iterate and -4 the oldest.  ``gnorm_sq[i]`` is
    g'g at the iterate; ``stepsize[i]`` the stepsize taken FROM it (nan
    until the step happens); ``bb1[i]``/``bb2[i]`` the BB values computed
    AT it from the pair ending there (nan when undefined, e.g. at the
    first iterate or after nonpositive curvature).  Every slot starts as
    nan, which marks a slot not yet filled.
    """

    def __init__(self):
        self.gnorm_sq = [math.nan] * 4
        self.stepsize = [math.nan] * 4
        self.bb1 = [math.nan] * 4
        self.bb2 = [math.nan] * 4

    def push(self, gnorm_sq: float, bb1: float = math.nan,
             bb2: float = math.nan) -> None:
        """Drop the oldest iterate and append a new one, stepsize unset.
        Unchecked: ``advance`` pushes Python floats, and only when g'g > 0."""
        # unrolled: a loop over (slot, value) pairs costs twice as much
        s = self.gnorm_sq
        del s[0]
        s.append(gnorm_sq)
        s = self.stepsize
        del s[0]
        s.append(math.nan)
        s = self.bb1
        del s[0]
        s.append(bb1)
        s = self.bb2
        del s[0]
        s.append(bb2)

    def set_stepsize(self, stepsize: float) -> None:
        """Record the stepsize taken from the newest iterate."""
        self.stepsize[-1] = float(stepsize)

    def advance(self, gnorm_sq: float, ss: float, sy: float, yy: float):
        """Push the iterate a step reached, if its g'g > 0, with the step's
        BB1 = s's/s'y and BB2 = s'y/y'y: both nan unless s'y > 0, BB2 also
        unless y'y > 0.  Returns (BB1, BB2) for trace rows."""
        bb1 = bb2 = math.nan
        if sy > 0.0:
            bb1 = ss / sy
            if yy > 0.0:
                bb2 = sy / yy
        if gnorm_sq > 0.0:
            self.push(gnorm_sq, bb1, bb2)
        return bb1, bb2


def gram_schmidt3(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Orthonormalize three vectors in order, classical Gram-Schmidt.

    Returns unit vectors (u, v, r).  Raises LinearDependence when any
    residual norm falls below TOL_DEP times the input norm, which the
    stepsize code treats like any other degenerate history.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    na = float(np.linalg.norm(a))
    if na == 0.0:
        raise LinearDependence("first vector is zero")
    u = a / na
    vbar = b - (b @ u) * u
    nv = float(np.linalg.norm(vbar))
    if nv <= TOL_DEP * float(np.linalg.norm(b)):
        raise LinearDependence("second vector is dependent")
    v = vbar / nv
    rbar = c - (c @ u) * u - (c @ v) * v
    nr = float(np.linalg.norm(rbar))
    if nr <= TOL_DEP * float(np.linalg.norm(c)):
        raise LinearDependence("third vector is dependent")
    return u, v, rbar / nr


def project_hessian(u: np.ndarray, v: np.ndarray, r: np.ndarray,
                    hess_vec) -> HMatrix:
    """Project the Hessian onto span(u, v, r): H_ij = q_i' A q_j.

    ``hess_vec`` maps d to A d.  The result is symmetrized before
    construction to absorb roundoff from the three products.
    """
    basis = (u, v, r)
    images = [np.asarray(hess_vec(q), dtype=float) for q in basis]
    h = np.empty((3, 3))
    for i, qi in enumerate(basis):
        for j in range(3):
            h[i, j] = qi @ images[j]
    h = 0.5 * (h + h.T)
    return HMatrix(h)


def _scaled_back(root: float, e: int) -> float:
    try:
        return math.ldexp(root, e)
    except OverflowError:
        raise Degenerate(f"largest root {root} * 2^{e} overflows") from None


def _largest_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of the finite symmetric ``a``: ``eigvalsh`` of
    a / 2^e times 2^e, for a's largest |entry| f 2^e, f in [1/2, 1).

    The one scale rule of the eigenproblems, exact while nothing goes
    subnormal: c A gives c times the root at every float scale, and
    nothing overflows or underflows on the way.  Degenerate where the
    root times 2^e overflows.
    """
    e = math.frexp(float(np.abs(a).max()))[1]
    return _scaled_back(float(np.linalg.eigvalsh(np.ldexp(a, -e))[-1]), e)


def largest_root_cubic(h: HMatrix) -> CubicSolve:
    """Largest eigenvalue of a symmetric 3x3, by ``eigvalsh`` at H / 2^e.

    c H gives c times the root at every float scale.  Raises Degenerate
    when the root is not positive or leaves the float range.
    """
    root = _largest_eigenvalue(h.entries)
    if not root > 0.0:
        raise Degenerate(f"largest root = {root}")
    return CubicSolve(root)


def largest_root_quartic(entries) -> float:
    """Largest eigenvalue of a symmetric 4x4, by ``eigvalsh`` at A / 2^e.

    No solver calls this; it is the 4x4 counterpart of
    :func:`largest_root_cubic` for outside input, and returns a root of
    any sign.  Raises ValueError unless the input is a finite symmetric
    4x4, and Degenerate where the root overflows.
    """
    return _largest_eigenvalue(_symmetric(entries, 4))


def alpha_new_direct(u: np.ndarray, v: np.ndarray, r: np.ndarray,
                     hess_vec) -> float:
    """Three-dimensional quadratic-termination stepsize, direct route."""
    return 1.0 / largest_root_cubic(
        project_hessian(u, v, r, hess_vec)).largest_root


def _largest_root(h11, h12, h22, h23, h33):
    """Largest eigenvalue of the symmetric tridiagonal T with diagonal
    h11, h22, h33 and off-diagonal h12, h23, by Newton's method.

    f(z) = det(zI - T) and f'(z) come from the tridiagonal recurrence
    f1 = z - h11, f2 = (z - h22) f1 - h12^2, f = (z - h33) f2 - h23^2 f1.
    Newton starts at the Gershgorin bound, at or above every eigenvalue,
    where f is increasing and convex, so each step moves z down toward the
    largest root.  It stops when the slope is not positive (a multiple
    root at the start) or when a step no longer decreases z.  Where T's
    largest |entry| lies outside (_SAFE_MIN, _SAFE_MAX) it solves T / 2^e
    as :func:`_largest_eigenvalue` does and scales the root back, so f
    never overflows or underflows.  Raises Degenerate unless the root is
    positive and finite.
    """
    a, b, c, s12, s23 = h11, h22, h33, abs(h12), abs(h23)
    big = max(abs(a), s12, abs(b), s23, abs(c))
    e = 0
    if not _SAFE_MIN < big < _SAFE_MAX:
        e = math.frexp(big)[1]
        a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
        s12, s23 = math.ldexp(s12, -e), math.ldexp(s23, -e)
    z = max(a + s12, b + s12 + s23, c + s23)
    s12 *= s12
    s23 *= s23
    while True:
        za, zb, zc = z - a, z - b, z - c
        f2 = zb * za - s12
        slope = f2 + zc * (za + zb) - s23
        if not slope > 0.0:
            break
        step = z - (zc * f2 - s23 * za) / slope
        if not step < z:
            break
        z = step
    if not 0.0 < z < _INF:
        raise Degenerate(f"largest root = {z} * 2^{e}")
    return _scaled_back(z, e) if e else z


def _scalars(hist: GradientHistory):
    """(sigma, d, gamma, gr, gar, u, p1, p2, w): the one copy of the
    recurrence arithmetic, in ratios of stepsizes and of gradient norms.

    With a_j the stepsize taken at k - j, b_j BB1 and n_j g'g there:
    d = a2 delta, gr = g_r / n2, gar = a2 g_ar / n2, u = a2 / a3,
    p_j = a2 / b_j and w = n2 / n3.  A history scaled as by a Hessian
    times 2^e gives the same values exactly while nothing goes subnormal.
    See :func:`recurrence_scalars` for when it raises.
    """
    a3, a2 = hist.stepsize[0], hist.stepsize[1]   # taken at k-3, k-2
    _, b2, b1, b0 = hist.bb1                        # BB1 at k-2, k-1, k
    n3, n2, n1, _ = hist.gnorm_sq
    if not (0.0 < a3 < _INF and 0.0 < a2 < _INF and 0.0 < b2 < _INF
            and 0.0 < b1 < _INF and 0.0 < b0 < _INF):
        raise Degenerate(f"alpha_(k-3), alpha_(k-2) = {a3}, {a2}; "
                         f"bb1_(k-2), bb1_(k-1), bb1_k = {b2}, {b1}, {b0}")
    t = 1.0 - a3 / b2
    zeta = t * n3 / n2
    if abs(zeta) <= TOL_DEP:
        raise Degenerate(f"zeta = {zeta}")
    u, p2, p1, p0 = a2 / a3, a2 / b2, a2 / b1, a2 / b0
    r, w = n1 / n2, n2 / n3
    sigma = t * zeta
    if sigma >= 1.0 - TOL_DEP:
        raise Degenerate(f"sigma = {sigma}")
    d = (1.0 - 1.0 / zeta) * u
    gamma = 1.0 - (p1 - sigma * d) / (1.0 - sigma)
    gr = r - sigma * (1.0 - d) * (1.0 - d) - gamma * gamma * (1.0 - sigma)
    lead = gamma - (1.0 - d)
    gar = ((p0 + gamma) * r + (lead * p2 - gamma) * (1.0 - p1)
           - lead * u * gamma * (1.0 - sigma))
    if not (-_INF < sigma < _INF and -_INF < d < _INF
            and -_INF < gamma < _INF and -_INF < gr < _INF
            and -_INF < gar < _INF):
        raise Degenerate(f"nonfinite recurrence scalars: "
                         f"{(sigma, d, gamma, gr, gar)}")
    return sigma, d, gamma, gr, gar, u, p1, p2, w


def recurrence_scalars(hist: GradientHistory) -> RecurrenceScalars:
    """Closed-form scalars from the four history slots.

    With the newest iterate at index k, uses the stepsizes taken at k-3
    and k-2, BB1 values at k-2, k-1 and k, and the three older gradient
    norms.  Raises Degenerate when any required stepsize or BB1 value is
    missing (nan, also for a history of fewer than four iterates) or
    nonpositive, when zeta vanishes (consecutive gradients nearly
    orthogonal, so delta is unbounded), when sigma reaches 1
    (consecutive gradients nearly parallel), or when a scalar is not
    finite.  The recurrence forms them dimensionless (:func:`_scalars`);
    this converts back: delta = d / a2, g_r = gr n2 and
    g_ar = gar n2 / a2.
    """
    sigma, d, gamma, gr, gar = _scalars(hist)[:5]
    a2, n2 = hist.stepsize[1], hist.gnorm_sq[1]
    return RecurrenceScalars(sigma, d / a2, gamma, gr * n2, gar * n2 / a2)


def _scaled_entries(hist: GradientHistory):
    """(h11, h12, h22, h23, h33) of a2 H, h13 = 0; needs g_r > 0."""
    sigma, d, gamma, gr, gar, u, p1, p2, w = _scalars(hist)
    if not gr > 0.0:
        raise Degenerate(f"g_r / g'g at k-2 = {gr}")
    one_minus = 1.0 - sigma
    h11 = p2
    h12 = -math.sqrt(one_minus) * u * math.sqrt(w)
    h22 = (p1 - 2.0 * sigma * d + sigma * p2) / one_minus
    h23 = -math.sqrt(gr) / math.sqrt(one_minus)
    h33 = gar / gr + gamma
    entries = h11, h12, h22, h23, h33
    if not (-_INF < h11 < _INF and -_INF < h12 < _INF and -_INF < h22 < _INF
            and -_INF < h23 < _INF and -_INF < h33 < _INF):
        raise Degenerate(f"nonfinite a2 H entries: {entries}")
    return entries


def hmatrix_from_recurrence(scal: RecurrenceScalars,
                            hist: GradientHistory) -> HMatrix:
    """H as alpha_new_bb solves it: the entries of a2 H over a2.

    ``scal`` is not read; the acceptance gates pass it.  Needs g_r > 0.
    """
    a2 = hist.stepsize[1]
    h11, h12, h22, h23, h33 = (h / a2 for h in _scaled_entries(hist))
    return HMatrix(np.array([[h11, h12, 0.0], [h12, h22, h23],
                             [0.0, h23, h33]]))


def alpha_new_bb(hist: GradientHistory) -> float:
    """Three-dimensional quadratic-termination stepsize, recurrence route.

    a2 / lambda_max(a2 H), in plain floats on a plain tuple of ratios, so
    a history scaled as by a Hessian times 2^e gives the stepsize over
    2^e exactly.  Every failure (short history, degenerate scalars,
    g_r <= 0, no positive eigenvalue) surfaces as Degenerate so callers
    have a single fallback path.
    """
    return hist.stepsize[1] / _largest_root(*_scaled_entries(hist))


def next_stepsize(hist: GradientHistory, k: int, tau: float, gamma: float,
                  use_new_step: bool):
    """The adaptive long/short stepsize rule shared by both solvers.

    ``k`` is the index of the iterate just reached, whose BB values are
    ``hist.bb1[-1]`` and ``hist.bb2[-1]``.  Returns ``(alpha, branch,
    tau')``: BB1 below k = 5; BB1 with tau grown by gamma when
    bb2/bb1 >= tau (always, at tau = 0); else a short step with tau
    shrunk by gamma.  The short step is
    min(BB2_k, BB2_{k-1}) and the highest-order termination step the
    fresh pairs (positive curvature) support: the 3-d step with three and
    ``use_new_step`` set ("short_new"), else BBQ ("short_bbq"); the BB2
    min alone when that step is Degenerate ("short_bb2"); the bare BB2_k
    with one fresh pair ("short_bb2only").  alpha is None, and tau kept,
    when the newest pair has no positive curvature; the caller restarts.
    """
    bb1, bb2 = hist.bb1[-1], hist.bb2[-1]
    if not 0.0 < bb1 < _INF:
        return None, "nocurv", tau
    if k < 5:
        return bb1, "bb1", tau
    if not bb2 / bb1 < tau:
        return bb1, "bb1", tau * gamma
    tau /= gamma
    prev_bb1, prev_bb2 = hist.bb1[-2], hist.bb2[-2]
    if not math.isfinite(prev_bb1):
        return bb2, "short_bb2only", tau
    # prev_bb2 is nan where its pair's y'y underflowed, and min keeps its
    # first argument unless the second is smaller
    bb2_min = min(bb2, prev_bb2)
    try:
        if use_new_step and math.isfinite(hist.bb1[-3]):
            return min(bb2_min, alpha_new_bb(hist)), "short_new", tau
        return min(bb2_min, stepsizes.bbq_stepsize(
            prev_bb1, bb1, prev_bb2, bb2)), "short_bbq", tau
    except Degenerate:
        return bb2_min, "short_bb2", tau
