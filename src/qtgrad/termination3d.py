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
roundoff.  The recurrence route runs in plain floats on the five entries
of its tridiagonal H, and builds no object on the way: its scalars and
entries are plain tuples, checked by chained comparisons.
:func:`recurrence_scalars` and :func:`hmatrix_from_recurrence` wrap the
same arithmetic in :class:`RecurrenceScalars` and :class:`HMatrix` for
tests and inspection; :class:`HMatrix` also serves outside input and the
direct route.  The two routes share one solver for the largest root, the
trigonometric closed form for cubic roots, which reads tr H, tr(H^2) and
det H and returns the root alone.  :func:`largest_root_quartic`
solves a symmetric 4x4 by bisection on its characteristic polynomial; no
solver takes a four-dimensional step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stepsizes
from .errors import Degenerate, LinearDependence, NumericalFailure

_SYM_RTOL = 1e-12
# Linear-dependence threshold of gram_schmidt3 and recurrence_scalars.
TOL_DEP = 1e-10
# |p| under this, relative to tr(H^2), means a triple eigenvalue.
_P_TOL = 1e-12
# Bisection budget and relative stopping width of largest_root_quartic.
_QUARTIC_STEPS = 200
_QUARTIC_RTOL = 1e-13
# Bound of the chained finiteness guards: -_INF < x < _INF fails on nan
# and on either infinity.
_INF = math.inf
# Smallest normal float: a term of g_r or g_ar below it has lost bits.
_TINY = sys.float_info.min


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
    """Finite symmetric 3x3 matrix, validated on construction; the cubic
    solver reads its ``entries``, the acceptance gates its ``trace``."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _symmetric(self.entries, 3))

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


class CubicSolve(NamedTuple):
    """Largest root of the 3x3 characteristic polynomial."""

    largest_root: float


class RecurrenceScalars(NamedTuple):
    """The five closed-form scalars that H's recurrence entries read.

    ``g_r`` and ``g_ar`` are the inner products g'r and g'(Ar) of the
    newest gradient with the third (unnormalized) Gram-Schmidt direction;
    g_r must be positive for the matrix to exist, and no term of either
    may fall below the normal float range.
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
        Unchecked: both solvers push Python floats, and only when g'g > 0."""
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


def _largest_root(tr: float, tr2: float, det: float) -> float:
    """Largest root of z^3 - tr z^2 + (tr^2 - tr2)/2 z - det = 0.

    The characteristic cubic of a symmetric 3x3 from its trace, tr(H^2)
    and det.  The shifted cubic has p = (tr^2 - 3 tr2) / 6, nonpositive
    for symmetric input; when |p| <= _P_TOL tr2 all eigenvalues coincide
    and the root is tr/3.  The arccos argument is clamped to [-1, 1] to
    absorb roundoff at double eigenvalues.  Raises Degenerate on p > 0, a
    residual above 1e-9 tr2^1.5 or a root <= 0, and OverflowError where a
    float ``**`` overflows, which alpha_new_bb turns into Degenerate and
    largest_root_cubic's scaling rules out.  Both tolerances scale with
    tr2 = ||H||_F^2, so c H gives c times the root, even for an
    indefinite H of trace 0.
    """
    p = (tr * tr - 3.0 * tr2) / 6.0
    q = (5.0 * tr**3 - 9.0 * tr * tr2) / 54.0 - det
    if abs(p) <= _P_TOL * abs(tr2):
        root = tr / 3.0
    else:
        if p > 0.0:
            raise Degenerate(f"shifted cubic has p = {p} > 0")
        c = -(q / 2.0) * (3.0 / abs(p)) ** 1.5
        theta = math.acos(1.0 if c > 1.0 else -1.0 if c < -1.0 else c)
        root = tr / 3.0 + 2.0 * math.cos(theta / 3.0) * math.sqrt(abs(p) / 3.0)
    residual = ((root - tr) * root + (tr * tr - tr2) / 2.0) * root - det
    if not abs(residual) <= 1e-9 * tr2 ** 1.5:
        raise Degenerate(f"cubic residual {residual} too large")
    if not (math.isfinite(root) and root > 0.0):
        raise Degenerate(f"largest root = {root}")
    return root


def _unit_scaled(a: np.ndarray):
    """(a / 2^e, e) for a's largest |entry| f 2^e, f in [1/2, 1); e = 0 at 0.

    The one scale rule of the small eigenproblems.  With the root times
    2^e it is exact while nothing goes subnormal: c A gives c times the
    root at every float scale, and no invariant overflows or underflows.
    """
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e


def _scaled_back(root: float, e: int) -> float:
    try:
        return math.ldexp(root, e)
    except OverflowError:
        raise Degenerate(f"largest root {root} * 2^{e} overflows") from None


def largest_root_cubic(h: HMatrix) -> CubicSolve:
    """Largest eigenvalue of a symmetric 3x3 via the trigonometric form.

    Solves H / 2^e (:func:`_unit_scaled`), whose invariants cannot
    overflow.  Raises Degenerate when the solve fails, or the root is not
    positive or leaves the float range.
    """
    b, e = _unit_scaled(h.entries)
    root = _largest_root(float(np.trace(b)), float(np.trace(b @ b)),
                         float(np.linalg.det(b)))
    return CubicSolve(_scaled_back(root, e))


def largest_root_quartic(entries) -> float:
    """Largest eigenvalue of a symmetric 4x4 via safeguarded bisection.

    No solver calls this; it is the 4x4 counterpart of
    :func:`largest_root_cubic` for outside input.  Works on the
    characteristic polynomial chi of A / 2^e (:func:`_unit_scaled`),
    written through its trace, tr(A^2), tr(A^3) and det, so the stopping
    width is relative to A's largest entry.  The predicate "chi and its
    first three derivatives are all nonnegative at z" holds exactly for
    z >= lambda_max and nowhere below it, and stays sharp at multiple
    eigenvalues because whichever derivative has a simple root there
    flips sign cleanly.  Bisection therefore needs no eigen-decomposition
    and no polishing.  Raises Degenerate where the root overflows.
    """
    a, scale_exp = _unit_scaled(_symmetric(entries, 4))
    sq = a @ a
    e1, tr2, tr3 = float(np.trace(a)), float(np.trace(sq)), float(np.trace(sq @ a))
    e2 = (e1 * e1 - tr2) / 2.0
    e3 = (e1**3 + 2.0 * tr3 - 3.0 * e1 * tr2) / 6.0
    e4 = float(np.linalg.det(a))

    def at_or_above(z: float) -> bool:
        chi = (((z - e1) * z + e2) * z - e3) * z + e4
        d1 = ((4.0 * z - 3.0 * e1) * z + 2.0 * e2) * z - e3
        d2 = (12.0 * z - 6.0 * e1) * z + 2.0 * e2
        d3 = 24.0 * z - 6.0 * e1
        return chi >= 0.0 and d1 >= 0.0 and d2 >= 0.0 and d3 >= 0.0

    diag = np.diag(a)
    radii = np.abs(a).sum(axis=1) - np.abs(diag)
    lo = float(np.min(diag - radii))
    hi = float(np.max(diag + radii))
    if at_or_above(lo):
        hi = lo
    elif lo < hi and not at_or_above(hi):
        hi += _QUARTIC_RTOL * max(1.0, abs(hi))
        if not at_or_above(hi):
            raise NumericalFailure("Gershgorin bound fails the root predicate")
    for _ in range(_QUARTIC_STEPS + 1):
        if not hi - lo > _QUARTIC_RTOL * max(1.0, abs(hi)):
            return _scaled_back(hi, scale_exp)
        mid = 0.5 * (lo + hi)
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
    raise NumericalFailure("quartic bisection did not converge")


def alpha_new_direct(u: np.ndarray, v: np.ndarray, r: np.ndarray,
                     hess_vec) -> float:
    """Three-dimensional quadratic-termination stepsize, direct route."""
    return 1.0 / largest_root_cubic(
        project_hessian(u, v, r, hess_vec)).largest_root


def _scalars(hist: GradientHistory):
    """The five fields of :class:`RecurrenceScalars` as a plain tuple.

    The one copy of the recurrence arithmetic; see
    :func:`recurrence_scalars` for what it reads and when it raises.
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
    sigma = t * zeta
    if sigma >= 1.0 - TOL_DEP:
        raise Degenerate(f"sigma = {sigma}")
    delta = (1.0 - 1.0 / zeta) / a3
    gamma = 1.0 - (a2 / (1.0 - sigma)) * (1.0 / b1 - sigma * delta)
    r_n2 = (sigma * (1.0 - a2 * delta) ** 2
            + gamma * gamma * (1.0 - sigma)) * n2
    g_r = n1 - r_n2
    lead = gamma - (1.0 - a2 * delta)
    varsigma = ((lead / b2 - gamma / a2) * (1.0 - a2 / b1)
                - (lead / a3) * gamma * (1.0 - sigma))
    ar_n1 = (1.0 / b0 + gamma / a2) * n1
    ar_n2 = varsigma * n2
    g_ar = ar_n1 + ar_n2
    out = sigma, delta, gamma, g_r, g_ar
    if not (-_INF < sigma < _INF and -_INF < delta < _INF
            and -_INF < gamma < _INF and -_INF < g_r < _INF
            and -_INF < g_ar < _INF):
        raise Degenerate(f"nonfinite recurrence scalars: {out}")
    # a term under the normal range has lost bits; g_r's scale as the
    # Hessian's scale squared and g_ar's as its cube, so they go there
    # first.  A sum of normal terms is exact where it is subnormal or 0.
    if (n1 < _TINY or -_TINY < r_n2 < _TINY or -_TINY < ar_n1 < _TINY
            or -_TINY < ar_n2 < _TINY):
        raise Degenerate(f"g_r, g_ar = {g_r}, {g_ar}: terms "
                         f"{n1}, {r_n2}, {ar_n1}, {ar_n2} under the normal "
                         "range")
    return out


def recurrence_scalars(hist: GradientHistory) -> RecurrenceScalars:
    """Closed-form scalars from the four history slots.

    With the newest iterate at index k, uses the stepsizes taken at k-3
    and k-2, BB1 values at k-2, k-1 and k, and the three older gradient
    norms.  Raises Degenerate when any required scalar is missing (nan,
    also for a history of fewer than four iterates) or nonpositive, when
    zeta vanishes (consecutive gradients nearly orthogonal, so delta is
    unbounded), when sigma reaches 1 (consecutive gradients nearly
    parallel), or when a term of g_r or g_ar falls below the normal float
    range (``sys.float_info.min``): g_r's terms scale with the square of
    the Hessian's scale and g_ar's with its cube, so they go subnormal
    first, and a subnormal term has lost the bits H is built from.  A
    g_r or g_ar that is subnormal or 0 as the sum of normal terms is
    exact, and is kept.  An overflowing float ``**`` raises
    OverflowError, which alpha_new_bb turns into Degenerate.
    """
    return RecurrenceScalars._make(_scalars(hist))


def _recurrence_entries(scal, hist: GradientHistory):
    """(h11, h12, h22, h23, h33) of H, h13 = 0; needs g_r > 0, sigma < 1.

    ``scal`` holds the five recurrence scalars in the order of
    :class:`RecurrenceScalars`, as that tuple or a plain one.
    """
    sigma, delta, gamma, g_r, g_ar = scal
    if not g_r > 0.0:
        raise Degenerate(f"g_r = {g_r}")
    if not sigma < 1.0:
        raise Degenerate(f"sigma = {sigma}")
    a3, a2 = hist.stepsize[0], hist.stepsize[1]
    b2, b1 = hist.bb1[1], hist.bb1[2]
    norm3 = math.sqrt(hist.gnorm_sq[0])
    norm2 = math.sqrt(hist.gnorm_sq[1])
    one_minus = 1.0 - sigma
    h11 = 1.0 / b2
    h12 = -math.sqrt(one_minus) * norm2 / (a3 * norm3)
    h22 = (1.0 / b1 - 2.0 * sigma * delta + sigma / b2) / one_minus
    h23 = -math.sqrt(g_r) / (a2 * norm2 * math.sqrt(one_minus))
    h33 = g_ar / g_r + gamma / a2
    entries = h11, h12, h22, h23, h33
    if not (-_INF < h11 < _INF and -_INF < h12 < _INF and -_INF < h22 < _INF
            and -_INF < h23 < _INF and -_INF < h33 < _INF):
        raise Degenerate(f"nonfinite H entries: {entries}")
    return entries


def _tridiagonal_invariants(h11, h12, h22, h23, h33):
    """(tr H, tr(H^2), det H) of the symmetric tridiagonal H."""
    return (h11 + h22 + h33,
            h11 * h11 + h22 * h22 + h33 * h33 + 2.0 * (h12 * h12 + h23 * h23),
            h11 * (h22 * h33 - h23 * h23) - h12 * h12 * h33)


def hmatrix_from_recurrence(scal: RecurrenceScalars,
                            hist: GradientHistory) -> HMatrix:
    """Assemble H from the recurrence scalars; needs g_r > 0."""
    h11, h12, h22, h23, h33 = _recurrence_entries(scal, hist)
    return HMatrix(np.array([[h11, h12, 0.0], [h12, h22, h23],
                             [0.0, h23, h33]]))


def alpha_new_bb(hist: GradientHistory) -> float:
    """Three-dimensional quadratic-termination stepsize, recurrence route.

    Plain float arithmetic on a plain tuple of scalars.  Every failure
    (short history, degenerate scalars or subnormal terms, g_r <= 0,
    indefinite or ill-posed H, a float ``**`` that overflows, as tr^3
    does above |tr| ~ 5.6e102) surfaces as Degenerate so callers have a
    single fallback path.
    """
    try:
        entries = _recurrence_entries(_scalars(hist), hist)
        return 1.0 / _largest_root(*_tridiagonal_invariants(*entries))
    except OverflowError as exc:
        raise Degenerate(f"overflow: {exc}") from None


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
    if not (math.isfinite(bb1) and bb1 > 0.0):
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
