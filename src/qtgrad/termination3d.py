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
roundoff.  The largest eigenvalue of the 3x3 matrix comes from the
trigonometric closed form for cubic roots; the 4x4 variant used by the
four-dimensional extension is solved by bisection on the characteristic
polynomial and its derivatives.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import stepsizes
from .errors import Degenerate, LinearDependence, NumericalFailure

_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class HMatrix:
    """Symmetric 3x3 or 4x4 matrix with its spectral invariants cached.

    ``trace_sq`` is tr(H^2) and ``trace_cu`` is tr(H^3); both are computed
    once at construction, so the root solvers never touch the entries
    again except for Gershgorin bounds.
    """

    entries: np.ndarray
    trace: float = field(init=False)
    trace_sq: float = field(init=False)
    trace_cu: float = field(init=False)
    det: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape not in ((3, 3), (4, 4)):
            raise ValueError(f"expected 3x3 or 4x4, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries are not finite")
        scale = float(np.abs(a).max())
        if not np.allclose(a, a.T, rtol=_SYM_RTOL, atol=_SYM_RTOL * max(scale, 1.0)):
            raise ValueError("entries are not symmetric")
        sq = a @ a
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "trace", float(np.trace(a)))
        object.__setattr__(self, "trace_sq", float(np.trace(sq)))
        object.__setattr__(self, "trace_cu", float(np.trace(sq @ a)))
        object.__setattr__(self, "det", float(np.linalg.det(a)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CubicSolve:
    """Largest root of the 3x3 characteristic polynomial plus intermediates."""

    p: float
    q: float
    theta: float
    largest_root: float


@dataclass(frozen=True)
class RecurrenceScalars:
    """Closed-form scalars feeding the recurrence route to H.

    ``g_r`` and ``g_ar`` are the inner products g'r and g'(Ar) of the
    newest gradient with the third (unnormalized) Gram-Schmidt direction;
    g_r must be positive for the matrix to exist.
    """

    sigma: float
    delta: float
    zeta: float
    gamma: float
    varsigma: float
    g_r: float
    g_ar: float


@dataclass
class HistoryRecord:
    """Per-iterate scalars the recurrence needs.

    ``stepsize`` is the stepsize actually taken FROM this iterate (nan
    until the step happens); ``bb1``/``bb2`` are the BB values computed
    AT this iterate from the pair ending here (nan when undefined, e.g.
    at the first iterate or after nonpositive curvature).
    """

    gnorm_sq: float
    stepsize: float = math.nan
    bb1: float = math.nan
    bb2: float = math.nan


class GradientHistory:
    """Rolling window of the last four iterates' scalars.

    The newest record is ``rec(-1)``.
    """

    def __init__(self):
        self._recs: deque[HistoryRecord] = deque(maxlen=4)

    def __len__(self) -> int:
        return len(self._recs)

    @property
    def full(self) -> bool:
        return len(self._recs) == 4

    def push(self, gnorm_sq: float, bb1: float = math.nan,
             bb2: float = math.nan) -> HistoryRecord:
        if not gnorm_sq > 0.0:
            raise ValueError(f"gnorm_sq = {gnorm_sq} must be positive")
        rec = HistoryRecord(float(gnorm_sq), math.nan, float(bb1), float(bb2))
        self._recs.append(rec)
        return rec

    def set_stepsize(self, stepsize: float) -> None:
        """Record the stepsize taken from the newest iterate."""
        self._recs[-1].stepsize = float(stepsize)

    def rec(self, i: int) -> HistoryRecord:
        """Record i steps back, i = -1 for the newest, down to -4."""
        return self._recs[i]


def gram_schmidt3(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  tol_dep: float = 1e-10):
    """Orthonormalize three vectors in order, classical Gram-Schmidt.

    Returns unit vectors (u, v, r).  Raises LinearDependence when any
    residual norm falls below tol_dep times the input norm, which the
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
    if nv <= tol_dep * float(np.linalg.norm(b)):
        raise LinearDependence("second vector is dependent")
    v = vbar / nv
    rbar = c - (c @ u) * u - (c @ v) * v
    nr = float(np.linalg.norm(rbar))
    if nr <= tol_dep * float(np.linalg.norm(c)):
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


def largest_root_cubic(h: HMatrix, p_tol: float = 1e-12) -> CubicSolve:
    """Largest eigenvalue of a symmetric 3x3 via the trigonometric form.

    Solves z^3 - tr z^2 + (tr^2 - tr(H^2))/2 z - det = 0.  The shifted
    cubic has p = (tr^2 - 3 tr(H^2)) / 6, which is nonpositive for
    symmetric input; when p is negligible all eigenvalues coincide and
    the root is tr/3.  The arccos argument is clamped to [-1, 1] to
    absorb roundoff at double eigenvalues.
    """
    if h.dim != 3:
        raise ValueError("largest_root_cubic wants a 3x3 matrix")
    tr, tr2, det = h.trace, h.trace_sq, h.det
    p = (tr * tr - 3.0 * tr2) / 6.0
    q = (5.0 * tr**3 - 9.0 * tr * tr2) / 54.0 - det
    if abs(p) <= p_tol * max(1.0, abs(tr2)):
        theta = 0.0
        root = tr / 3.0
    else:
        if p > 0.0:
            raise NumericalFailure(f"shifted cubic has p = {p} > 0")
        cos_arg = -(q / 2.0) * (3.0 / abs(p)) ** 1.5
        theta = math.acos(min(1.0, max(-1.0, cos_arg)))
        root = tr / 3.0 + 2.0 * math.cos(theta / 3.0) * math.sqrt(abs(p) / 3.0)
    residual = ((root - tr) * root + (tr * tr - tr2) / 2.0) * root - det
    if abs(residual) > 1e-9 * max(1.0, abs(tr) ** 3):
        raise NumericalFailure(f"cubic residual {residual} too large")
    return CubicSolve(p, q, theta, root)


def largest_root_quartic(h: HMatrix, max_steps: int = 200,
                         rtol: float = 1e-13) -> float:
    """Largest eigenvalue of a symmetric 4x4 via safeguarded bisection.

    Works on the characteristic polynomial chi written through the
    cached traces.  The predicate "chi and its first three derivatives
    are all nonnegative at z" holds exactly for z >= lambda_max and
    nowhere below it, and stays sharp at multiple eigenvalues because
    whichever derivative has a simple root there flips sign cleanly.
    Bisection therefore needs no eigen-decomposition and no polishing.
    """
    if h.dim != 4:
        raise ValueError("largest_root_quartic wants a 4x4 matrix")
    tr, tr2, tr3, det = h.trace, h.trace_sq, h.trace_cu, h.det
    e1 = tr
    e2 = (tr * tr - tr2) / 2.0
    e3 = (tr**3 + 2.0 * tr3 - 3.0 * tr * tr2) / 6.0
    e4 = det

    def at_or_above(z: float) -> bool:
        chi = (((z - e1) * z + e2) * z - e3) * z + e4
        d1 = ((4.0 * z - 3.0 * e1) * z + 2.0 * e2) * z - e3
        d2 = (12.0 * z - 6.0 * e1) * z + 2.0 * e2
        d3 = 24.0 * z - 6.0 * e1
        return chi >= 0.0 and d1 >= 0.0 and d2 >= 0.0 and d3 >= 0.0

    a = h.entries
    diag = np.diag(a)
    radii = np.abs(a).sum(axis=1) - np.abs(diag)
    lo = float(np.min(diag - radii))
    hi = float(np.max(diag + radii))
    if at_or_above(lo):
        return lo
    if hi <= lo:
        return hi
    if not at_or_above(hi):
        hi += rtol * max(1.0, abs(hi))
        if not at_or_above(hi):
            raise NumericalFailure("Gershgorin bound fails the root predicate")
    steps = 0
    while hi - lo > rtol * max(1.0, abs(hi)):
        steps += 1
        if steps > max_steps:
            raise NumericalFailure("quartic bisection did not converge")
        mid = 0.5 * (lo + hi)
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def alpha_new_direct(u: np.ndarray, v: np.ndarray, r: np.ndarray,
                     hess_vec) -> float:
    """Three-dimensional quadratic-termination stepsize, direct route."""
    solve = largest_root_cubic(project_hessian(u, v, r, hess_vec))
    if not solve.largest_root > 0.0:
        raise Degenerate(f"largest root = {solve.largest_root}")
    return 1.0 / solve.largest_root


def recurrence_scalars(hist: GradientHistory,
                       tol_dep: float = 1e-10) -> RecurrenceScalars:
    """Closed-form scalars from four history records.

    With the newest record at index k, uses the stepsizes taken at k-3
    and k-2, BB1 values at k-2, k-1 and k, and the three older gradient
    norms.  Raises Degenerate when any required scalar is missing or
    nonpositive, when zeta vanishes (consecutive gradients nearly
    orthogonal, so delta is unbounded), or when sigma reaches 1
    (consecutive gradients nearly parallel).
    """
    if not hist.full:
        raise Degenerate("history holds fewer than four records")
    r3, r2, r1, r0 = (hist.rec(i) for i in (-4, -3, -2, -1))
    a3 = r3.stepsize       # stepsize taken at k-3
    a2 = r2.stepsize       # stepsize taken at k-2
    b2 = r2.bb1            # BB1 at k-2
    b1 = r1.bb1            # BB1 at k-1
    b0 = r0.bb1            # BB1 at k
    n3 = r3.gnorm_sq
    n2 = r2.gnorm_sq
    n1 = r1.gnorm_sq
    for name, val in (("alpha_{k-3}", a3), ("alpha_{k-2}", a2),
                      ("bb1_{k-2}", b2), ("bb1_{k-1}", b1), ("bb1_k", b0)):
        if not (math.isfinite(val) and val > 0.0):
            raise Degenerate(f"{name} = {val}")
    t = 1.0 - a3 / b2
    zeta = t * n3 / n2
    if abs(zeta) <= tol_dep:
        raise Degenerate(f"zeta = {zeta}")
    sigma = t * zeta
    if sigma >= 1.0 - tol_dep:
        raise Degenerate(f"sigma = {sigma}")
    delta = (1.0 - 1.0 / zeta) / a3
    gamma = 1.0 - (a2 / (1.0 - sigma)) * (1.0 / b1 - sigma * delta)
    g_r = n1 - (sigma * (1.0 - a2 * delta) ** 2
                + gamma * gamma * (1.0 - sigma)) * n2
    lead = gamma - (1.0 - a2 * delta)
    varsigma = ((lead / b2 - gamma / a2) * (1.0 - a2 / b1)
                - (lead / a3) * gamma * (1.0 - sigma))
    g_ar = (1.0 / b0 + gamma / a2) * n1 + varsigma * n2
    out = RecurrenceScalars(sigma, delta, zeta, gamma, varsigma, g_r, g_ar)
    for val in (sigma, delta, zeta, gamma, varsigma, g_r, g_ar):
        if not math.isfinite(val):
            raise Degenerate(f"nonfinite recurrence scalars: {out}")
    return out


def hmatrix_from_recurrence(scal: RecurrenceScalars,
                            hist: GradientHistory) -> HMatrix:
    """Assemble H from the recurrence scalars; needs g_r > 0."""
    if not scal.g_r > 0.0:
        raise Degenerate(f"g_r = {scal.g_r}")
    if not scal.sigma < 1.0:
        raise Degenerate(f"sigma = {scal.sigma}")
    r3, r2, r1 = (hist.rec(i) for i in (-4, -3, -2))
    a3, a2 = r3.stepsize, r2.stepsize
    b2, b1 = r2.bb1, r1.bb1
    norm3 = math.sqrt(r3.gnorm_sq)
    norm2 = math.sqrt(r2.gnorm_sq)
    one_minus = 1.0 - scal.sigma
    h11 = 1.0 / b2
    h12 = -math.sqrt(one_minus) * norm2 / (a3 * norm3)
    h22 = (1.0 / b1 - 2.0 * scal.sigma * scal.delta
           + scal.sigma / b2) / one_minus
    h23 = -math.sqrt(scal.g_r) / (a2 * norm2 * math.sqrt(one_minus))
    h33 = scal.g_ar / scal.g_r + scal.gamma / a2
    entries = np.array([
        [h11, h12, 0.0],
        [h12, h22, h23],
        [0.0, h23, h33],
    ])
    if not np.all(np.isfinite(entries)):
        raise Degenerate("nonfinite H entries")
    return HMatrix(entries)


def alpha_new_bb(hist: GradientHistory, tol_dep: float = 1e-10) -> float:
    """Three-dimensional quadratic-termination stepsize, recurrence route.

    Every failure mode (short history, degenerate scalars, g_r <= 0,
    indefinite or ill-posed H) surfaces as Degenerate so callers have a
    single fallback path.
    """
    scal = recurrence_scalars(hist, tol_dep)
    h = hmatrix_from_recurrence(scal, hist)
    try:
        solve = largest_root_cubic(h)
    except NumericalFailure as exc:
        raise Degenerate(f"cubic solve failed: {exc}") from exc
    root = solve.largest_root
    if not (math.isfinite(root) and root > 0.0):
        raise Degenerate(f"largest root = {root}")
    return 1.0 / root


def next_stepsize(hist: GradientHistory, k: int, tau: float, gamma: float,
                  use_new_step: bool, tol_den: float, tol_dep: float):
    """The adaptive long/short stepsize rule shared by both solvers.

    ``k`` is the index of the iterate just reached, whose pair is
    ``hist.rec(-1)``.  Returns ``(alpha, branch, tau')``: BB1 below k = 5;
    BB1 with tau grown by gamma when bb2/bb1 >= tau (always, at tau = 0);
    else a short step with tau shrunk by gamma.  The short step is
    min(BB2_k, BB2_{k-1}) and the highest-order termination step the
    fresh pairs (positive curvature) support: the 3-d step with three and
    ``use_new_step`` set ("short_new"), else BBQ ("short_bbq"); the BB2
    min alone when that step is Degenerate ("short_bb2"); the bare BB2_k
    with one fresh pair ("short_bb2only").  alpha is None, and tau kept,
    when the newest pair has no positive curvature; the caller restarts.
    """
    cur = hist.rec(-1)
    if not (math.isfinite(cur.bb1) and cur.bb1 > 0.0):
        return None, "nocurv", tau
    if k < 5:
        return cur.bb1, "bb1", tau
    if not cur.bb2 / cur.bb1 < tau:
        return cur.bb1, "bb1", tau * gamma
    tau /= gamma
    prev = hist.rec(-2)
    if not math.isfinite(prev.bb1):
        return cur.bb2, "short_bb2only", tau
    bb2_min = min(prev.bb2, cur.bb2)
    try:
        if use_new_step and math.isfinite(hist.rec(-3).bb1):
            return min(bb2_min, alpha_new_bb(hist, tol_dep)), "short_new", tau
        return min(bb2_min, stepsizes.bbq_stepsize(
            prev.bb1, cur.bb1, prev.bb2, cur.bb2, tol_den)), "short_bbq", tau
    except Degenerate:
        return bb2_min, "short_bb2", tau
