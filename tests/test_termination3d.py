import math
import sys

import numpy as np
import pytest

from oracles import bisect_largest_eig, lapack_largest_eig
from qtgrad import quadprob, termination3d
from qtgrad.errors import Degenerate, LinearDependence
from qtgrad.quadsolver import QuadSolverConfig, solve_new
from qtgrad.stepsizes import bbq_stepsize, sd_stepsize
from qtgrad.termination3d import (
    GradientHistory,
    HMatrix,
    alpha_new_bb,
    alpha_new_direct,
    gram_schmidt3,
    hmatrix_from_recurrence,
    largest_root_cubic,
    largest_root_quartic,
    next_stepsize,
    project_hessian,
    recurrence_scalars,
    _tridiagonal_invariants,
)


def random_symmetric(rng, n, spectrum=None):
    if spectrum is None:
        spectrum = rng.uniform(0.5, 50.0, size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * spectrum) @ q.T


def bb1_trajectory(p, x0, steps):
    """One SD step, then exact BB1; returns (history, gradients)."""
    x = np.array(x0, dtype=float)
    g = quadprob.gradient(p, x)
    hist = GradientHistory()
    hist.push(float(g @ g))
    grads = [g.copy()]
    alpha = sd_stepsize(g, quadprob.hess_vec(p, g))
    for _ in range(steps):
        hist.set_stepsize(alpha)
        x_new = x - alpha * g
        g_new = quadprob.gradient(p, x_new)
        s, y = x_new - x, g_new - g
        ss, sy, yy = float(s @ s), float(s @ y), float(y @ y)
        hist.push(float(g_new @ g_new), ss / sy, sy / yy)
        grads.append(g_new.copy())
        x, g = x_new, g_new
        alpha = ss / sy
    return hist, grads


# ---------------------------------------------------------------- basis


def test_gram_schmidt_orthonormal_and_spanning():
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal(7) for _ in range(3))
    u, v, r = gram_schmidt3(a, b, c)
    q = np.stack([u, v, r])
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)
    # triangular span: each input lies in the span of the basis so far
    assert abs(a @ v) < 1e-10 * np.linalg.norm(a)
    assert abs(a @ r) < 1e-10 * np.linalg.norm(a)
    assert abs(b @ r) < 1e-10 * np.linalg.norm(b)
    # orientation: u along a, v along b's residual
    assert u @ a > 0 and v @ b > 0 and r @ c > 0


def test_gram_schmidt_rejects_dependence():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    with pytest.raises(LinearDependence):
        gram_schmidt3(a, b, a + 2.0 * b)
    with pytest.raises(LinearDependence):
        gram_schmidt3(a, -3.0 * a, b)
    with pytest.raises(LinearDependence):
        gram_schmidt3(np.zeros(3), a, b)


def test_project_hessian_matches_dense():
    rng = np.random.default_rng(1)
    A = random_symmetric(rng, 6)
    u, v, r = gram_schmidt3(*(rng.standard_normal(6) for _ in range(3)))
    h = project_hessian(u, v, r, lambda d: A @ d)
    Q = np.stack([u, v, r], axis=1)
    np.testing.assert_allclose(h.entries, Q.T @ A @ Q, atol=1e-12)


def test_hmatrix_validation():
    with pytest.raises(ValueError):
        HMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    bad = np.eye(3)
    bad[0, 2] = 0.5
    with pytest.raises(ValueError):
        HMatrix(bad)
    nan = np.eye(3)
    nan[1, 1] = math.nan
    with pytest.raises(ValueError):
        HMatrix(nan)


def test_hmatrix_symmetry_test_is_relative():
    # the atol was floored at 1e-12, so at entries of 1e-13 a lower
    # triangle of 5e-13 passed as symmetric
    with pytest.raises(ValueError):
        HMatrix([[1e-13, 0.0, 0.0], [5e-13, 1e-13, 0.0], [0.0, 0.0, 1e-13]])


def test_hmatrix_trace():
    h = HMatrix(np.diag([1.0, 2.0, 4.0]))
    assert h.trace == 7.0


def test_direct_route_takes_one_determinant(monkeypatch):
    # HMatrix computes no invariants, and the cubic solver reads those
    # of H / 2^e
    det, calls = np.linalg.det, []

    def spy(a):
        calls.append(a.shape)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", spy)
    u, v, r = np.eye(3)
    alpha = alpha_new_direct(u, v, r, lambda d: np.array([1.0, 2.0, 4.0]) * d)
    assert alpha == pytest.approx(0.25, rel=1e-15)
    assert calls == [(3, 3)]


# ----------------------------------------------------------- root solvers


def test_cubic_identity_matrix_hits_safeguard():
    # p is 0.0 for 3I, and only the safeguard's tr/3 returns without
    # dividing by |p|
    assert largest_root_cubic(HMatrix(np.eye(3) * 3.0)).largest_root == 3.0


# H times c must give c times the root; the cubic's tolerances were
# floored at 1, so at c = 1e-8 and below the root came out as tr/3
SCALES = (1e-12, 1e-8, 1.0, 1e8)


def test_cubic_on_diagonal():
    for scale in SCALES:
        h = HMatrix(np.diag([0.1, 5.0, 2.0]) * scale)
        root = largest_root_cubic(h).largest_root
        assert root == pytest.approx(5.0 * scale, rel=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_cubic_matches_eigensolvers(seed):
    rng = np.random.default_rng(seed)
    A1 = random_symmetric(rng, 3)
    for scale in SCALES:
        A = A1 * scale
        root = largest_root_cubic(HMatrix(A)).largest_root
        assert root == pytest.approx(lapack_largest_eig(A), rel=1e-11)
        assert root == pytest.approx(bisect_largest_eig(A), rel=1e-11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cubic_is_scale_free_over_the_float_range():
    # at 1e-103 to 1e-150 and 1e102 to 1e200 a float ** raised
    # OverflowError, from 1e150 with overflow warnings from HMatrix; at
    # 1e-200 and below tr(H^2) underflowed to 0 and every root was wrong
    rng = np.random.default_rng(21)
    mats = [random_symmetric(rng, 3) for _ in range(200)]
    for scale in (1e-300, 1e-250, 1e-200, 1e-150, 1e-103, 1e-50, 1e-12,
                  1.0, 1e8, 1e50, 1e102, 1e150, 1e200):
        for m in mats:
            a = m * scale
            root = largest_root_cubic(HMatrix(a)).largest_root
            assert root == pytest.approx(lapack_largest_eig(a), rel=1e-11)
    for a, top in ((np.diag([1.0, 2.0, 3.0]) * 1e-200, 3e-200),
                   (np.diag([1e103, 1.0, 1.0]), 1e103)):
        root = largest_root_cubic(HMatrix(a)).largest_root
        assert root == pytest.approx(top, rel=1e-15)
    # the root 4.5e308 leaves the float range
    with pytest.raises(Degenerate):
        largest_root_cubic(HMatrix(np.full((3, 3), 1.5e308)))


def test_cubic_indefinite_input():
    # the second spectrum has trace 0, so the residual test cannot be
    # relative to |tr|^3 there; at c = 1e8 the floored test raised
    for spectrum in ([-4.0, 1.0, 2.5], [-41.4, 0.02, 41.38]):
        rng = np.random.default_rng(99)
        A1 = random_symmetric(rng, 3, spectrum=np.array(spectrum))
        for scale in SCALES:
            root = largest_root_cubic(HMatrix(A1 * scale)).largest_root
            assert root == pytest.approx(spectrum[2] * scale, rel=1e-11)


def test_cubic_rejects_nonpositive_root():
    # no stepsize comes from a matrix without a positive eigenvalue
    for a in (-np.eye(3), np.diag([-3.0, -1.0, -0.5])):
        with pytest.raises(Degenerate):
            largest_root_cubic(HMatrix(a))


def test_cubic_near_double_eigenvalue():
    rng = np.random.default_rng(5)
    A = random_symmetric(rng, 3, spectrum=np.array([1.0, 4.0, 4.0 + 1e-9]))
    root = largest_root_cubic(HMatrix(A)).largest_root
    assert root == pytest.approx(4.0 + 1e-9, rel=1e-7)


# ids: the seed alone at scale 1, seed-scale elsewhere
@pytest.mark.parametrize("seed, scale", [
    pytest.param(seed, scale, id=f"{seed}" if scale == 1.0 else f"{seed}-{scale:g}")
    for scale in (1e-300, 1e-10, 1.0, 1e200, 1e300) for seed in range(30)])
def test_quartic_matches_eigensolvers(seed, scale):
    # a stopping width with an absolute floor of 1 stopped early below 1,
    # and chi overflowed and the solver raised above about 1e77; abs=0
    # keeps approx's absolute 1e-12 from passing the small scales
    rng = np.random.default_rng(1000 + seed)
    A = random_symmetric(rng, 4) * scale
    root = largest_root_quartic(A)
    assert root == pytest.approx(lapack_largest_eig(A), rel=1e-10, abs=0.0)


# An m-fold largest eigenvalue shifts the characteristic-polynomial root
# by roughly eps**(1/m), so the achievable accuracy degrades with the
# multiplicity of the top eigenvalue (not of the others).
@pytest.mark.parametrize("spectrum,rel", [
    ([1.0, 1.0, 1.0, 1.0], 1e-10),
    ([1.0, 2.0, 7.0, 7.0], 1e-6),
    ([3.0, 7.0, 7.0, 7.0], 1e-3),
    ([2.0, 2.0, 2.0, 9.0], 1e-10),
    ([-2.0, -1.0, 0.0, 5.0], 1e-10),
])
def test_quartic_multiplicities(spectrum, rel):
    rng = np.random.default_rng(7)
    A = random_symmetric(rng, 4, spectrum=np.array(spectrum))
    root = largest_root_quartic(A)
    assert root == pytest.approx(max(spectrum), rel=rel, abs=1e-12)


def test_quartic_raises_degenerate_where_the_root_overflows():
    with pytest.raises(Degenerate, match="overflows"):
        largest_root_quartic(np.full((4, 4), 1.5e308))


@pytest.mark.parametrize("seed", range(5))
def test_quartic_root_scales_exactly_by_powers_of_two(seed):
    rng = np.random.default_rng(2000 + seed)
    b = rng.standard_normal((4, 4))
    A = b + b.T
    root = largest_root_quartic(A)
    for k in (-1000, -100, 100, 1000):
        assert largest_root_quartic(np.ldexp(A, k)) == math.ldexp(root, k)


def test_quartic_rejects_3x3():
    with pytest.raises(ValueError):
        largest_root_quartic(np.eye(3))


def test_cubic_rejects_4x4():
    # HMatrix holds 3x3 input only, so no 4x4 reaches the cubic solver
    with pytest.raises(ValueError):
        HMatrix(np.eye(4))


# ------------------------------------------------------ stepsize routes


def test_theorem_bound_on_pd_samples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        A = random_symmetric(rng, 3, spectrum=rng.uniform(0.2, 30.0, size=3))
        h = HMatrix(A)
        alpha = 1.0 / largest_root_cubic(h).largest_root
        assert alpha >= 1.0 / h.trace - 1e-12
        assert alpha <= min(1.0 / d for d in np.diag(A)) + 1e-12


def test_direct_route_terminates_3d_quadratics():
    """Full-dimensional projection reproduces 1/lam_max exactly."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        lam = np.sort(rng.uniform(0.5, 200.0, size=3))
        p = quadprob.QuadraticProblem(spectrum=lam, x_star=np.zeros(3))
        grads = [quadprob.gradient(p, rng.uniform(-5, 5, size=3))]
        for a in rng.uniform(0.1 / lam[2], 1.0 / lam[2], size=2):
            # synthetic gradient recursion g <- (I - a A) g
            grads.append(grads[-1] - a * quadprob.hess_vec(p, grads[-1]))
        try:
            u, v, r = gram_schmidt3(*grads)
        except LinearDependence:
            continue
        alpha = alpha_new_direct(u, v, r, lambda d: quadprob.hess_vec(p, d))
        assert alpha == pytest.approx(1.0 / lam[2], rel=1e-9)


@pytest.mark.parametrize("records", [1, 2, 3])
def test_recurrence_needs_full_history(records):
    # the unfilled oldest slots are nan, which the scalar checks reject
    hist = GradientHistory()
    hist.push(1.0)
    for _ in range(records - 1):
        hist.set_stepsize(0.1)
        hist.push(1.0, 0.5, 0.4)
    with pytest.raises(Degenerate):
        recurrence_scalars(hist)


def test_recurrence_rejects_missing_bb():
    hist = GradientHistory()
    hist.push(1.0)
    for _ in range(3):
        hist.set_stepsize(0.1)
        hist.push(1.0, math.nan, math.nan)   # no curvature recorded
    with pytest.raises(Degenerate):
        recurrence_scalars(hist)


def _history_case(seed, n=10, kappa=1e3, steps=5):
    p = quadprob.generate(1, n, kappa, seed=seed)
    x0 = quadprob.starting_point(p, 0)
    return p, bb1_trajectory(p, x0, steps)


def test_recurrence_scalar_identities():
    """g_r and g_ar equal their dense Gram-Schmidt counterparts."""
    checked = 0
    for seed in range(12):
        p, (hist, grads) = _history_case(seed)
        try:
            scal = recurrence_scalars(hist)
        except Degenerate:
            continue
        g3, g2, g1 = grads[-4], grads[-3], grads[-2]
        basis = np.stack([g3 / np.linalg.norm(g3), g2, g1])
        # residual of g1 against span(g3, g2)
        q1 = basis[0]
        q2 = g2 - (g2 @ q1) * q1
        q2 /= np.linalg.norm(q2)
        rhat = g1 - (g1 @ q1) * q1 - (g1 @ q2) * q2
        scale = float(g1 @ g1)
        assert scal.g_r == pytest.approx(float(rhat @ rhat), rel=1e-6, abs=1e-9 * scale)
        assert scal.g_ar == pytest.approx(
            float(g1 @ quadprob.hess_vec(p, rhat)), rel=1e-6,
            abs=1e-9 * scale * (p.spectrum.max() / p.spectrum.min()))
        checked += 1
    assert checked >= 8


def test_recurrence_matches_projection_elementwise():
    matched = 0
    degenerate = 0
    for seed in range(25):
        p, (hist, grads) = _history_case(seed, kappa=10 ** (1 + seed % 4))
        try:
            h_rec = hmatrix_from_recurrence(recurrence_scalars(hist), hist)
            u, v, r = gram_schmidt3(grads[-4], grads[-3], grads[-2])
        except Degenerate:
            degenerate += 1
            continue
        h_dir = project_hessian(u, v, r, lambda d: quadprob.hess_vec(p, d))
        np.testing.assert_allclose(
            h_rec.entries, h_dir.entries,
            atol=1e-8, rtol=1e-8)
        matched += 1
    assert matched >= 20


def test_alpha_new_routes_agree():
    for seed in range(15):
        p, (hist, grads) = _history_case(seed, kappa=1e2)
        try:
            a_rec = alpha_new_bb(hist)
            u, v, r = gram_schmidt3(grads[-4], grads[-3], grads[-2])
            a_dir = alpha_new_direct(u, v, r, lambda d: quadprob.hess_vec(p, d))
        except Degenerate:
            continue
        assert a_rec == pytest.approx(a_dir, rel=1e-7)
        # reciprocal of an eigenvalue of a section of A
        lam = p.spectrum
        assert 1.0 / lam.max() - 1e-12 <= a_rec <= 1.0 / lam.min() + 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_tridiagonal_invariants_match_hmatrix(seed):
    rng = np.random.default_rng(500 + seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    h11, h12, h22, h23, h33 = rng.uniform(-10.0, 10.0, 5) * scale
    a = np.array([[h11, h12, 0.0], [h12, h22, h23], [0.0, h23, h33]])
    tr, tr2, det = _tridiagonal_invariants(h11, h12, h22, h23, h33)
    scale = float(np.abs(a).max())   # entry scale for the abs slack
    assert tr == pytest.approx(np.trace(a), rel=1e-14, abs=1e-14 * scale)
    assert tr2 == pytest.approx(np.trace(a @ a), rel=1e-14)
    assert det == pytest.approx(np.linalg.det(a), rel=1e-12, abs=1e-13 * scale**3)


def _solver_histories(kappa, set_ids=quadprob.SET_IDS, sizes=(20, 100, 1000),
                      starts=4, eps=QuadSolverConfig.eps):
    """Copies of every history solve_new hands to alpha_new_bb.

    By default sets 1-5 at n = 20, 100 and 1000, starting points 0-3.
    """
    seen = []
    real = termination3d.alpha_new_bb

    def spy(hist):
        snap = GradientHistory()
        for i in (-4, -3, -2, -1):
            snap.push(hist.gnorm_sq[i], hist.bb1[i], hist.bb2[i])
            snap.set_stepsize(hist.stepsize[i])
        seen.append(snap)
        return real(hist)

    termination3d.alpha_new_bb = spy
    try:
        for set_id in set_ids:
            for n in sizes:
                p = quadprob.generate(set_id, n, kappa, seed=0)
                for start in range(starts):
                    solve_new(p, quadprob.starting_point(p, start),
                              QuadSolverConfig(eps=eps))
    finally:
        termination3d.alpha_new_bb = real
    return seen


def _matrix_route_step(hist):
    """1/largest_root_cubic of the assembled HMatrix, None if Degenerate."""
    try:
        h = hmatrix_from_recurrence(recurrence_scalars(hist), hist)
        return 1.0 / largest_root_cubic(h).largest_root
    except Degenerate:
        return None


@pytest.mark.parametrize("kappa, rel", [(1e2, 1e-12), (1e4, 1e-8), (1e6, 1e-8)])
def test_float_core_matches_matrix_route(kappa, rel):
    # the float path and the HMatrix/LAPACK path differ only in roundoff
    # of tr(H^2) and det H; on solver histories they must agree
    hists = _solver_histories(kappa)
    assert len(hists) > 1000
    for hist in hists:
        ref = _matrix_route_step(hist)
        try:
            alpha = alpha_new_bb(hist)
        except Degenerate:
            alpha = None
        assert (alpha is None) == (ref is None)
        if ref is not None:
            assert alpha == pytest.approx(ref, rel=rel)


def test_alpha_new_bb_degenerate_without_stepsizes():
    hist = GradientHistory()
    for _ in range(4):
        hist.push(1.0, 0.5, 0.4)     # bb present, stepsizes never set
    with pytest.raises(Degenerate):
        alpha_new_bb(hist)


def _scaled_history(hist, e):
    """hist as solve_new records it with the Hessian times 2^e: g'g times
    4^e, stepsizes and BB values over 2^e, all exact while normal."""
    out = GradientHistory()
    out.gnorm_sq = [math.ldexp(v, 2 * e) for v in hist.gnorm_sq]
    out.stepsize = [math.ldexp(v, -e) for v in hist.stepsize]
    out.bb1 = [math.ldexp(v, -e) for v in hist.bb1]
    out.bb2 = [math.ldexp(v, -e) for v in hist.bb2]
    return out


def test_recurrence_accepts_no_step_from_underflowed_terms():
    # with the Hessian times c, g_r's terms scale as c^2 and g_ar's as
    # c^3: from c = 2^-340 some of g_ar's fall under the normal range, and
    # steps up to 12.6x wrong were accepted.  A step is Degenerate or the
    # one of c = 1 over c, up to the cubic's pow(., 1.5), which is not
    # exact under scaling (1 to 2 ulp).  A g_ar that is subnormal as the
    # exact sum of normal terms keeps its step.
    hists = _solver_histories(1e4, set_ids=(4,), sizes=(100,), starts=3,
                              eps=1e-8)
    assert len(hists) > 1000
    degenerate = subnormal_kept = 0
    for hist in hists:
        alpha = alpha_new_bb(hist)
        for e in [-200, 0, 300] + list(range(-360, -329)):
            scaled = _scaled_history(hist, e)
            try:
                got = alpha_new_bb(scaled)
            except Degenerate:
                degenerate += 1
                continue
            assert got == pytest.approx(math.ldexp(alpha, -e), rel=1e-15,
                                        abs=0.0)
            if abs(recurrence_scalars(scaled).g_ar) < sys.float_info.min:
                subnormal_kept += 1
    assert degenerate > 10000 and subnormal_kept > 1000


# ------------------------------------------------------- adaptive rule


def _rule_history(stale=None, degenerate=False):
    """Four fresh records from an exact BB1 run, optionally spoiled.

    ``stale`` blanks the BB values of the record that many steps back
    (-2 leaves one fresh pair, -3 two); ``degenerate`` sets the stepsize
    taken at k-3 to the BB1 at k-2, which makes zeta vanish.
    """
    _, (hist, _) = _history_case(0, steps=4)
    if stale is not None:
        hist.bb1[stale] = hist.bb2[stale] = math.nan
    if degenerate:
        hist.stepsize[-4] = hist.bb1[-3]
    return hist


def test_next_stepsize_warm_up_is_bb1():
    hist = _rule_history()
    assert next_stepsize(hist, 4, 1.0, 2.0, True) == (hist.bb1[-1], "bb1", 1.0)


def test_next_stepsize_long_step_grows_tau():
    hist = _rule_history()
    tau = 0.5 * hist.bb2[-1] / hist.bb1[-1]
    assert next_stepsize(hist, 6, tau, 1.5, True) == (
        hist.bb1[-1], "bb1", tau * 1.5)


def test_next_stepsize_short_new_with_three_fresh_pairs():
    hist = _rule_history()
    expect = min(hist.bb2[-2], hist.bb2[-1], alpha_new_bb(hist))
    assert expect < min(hist.bb2[-2], hist.bb2[-1])
    assert next_stepsize(hist, 6, 1.0, 2.0, True) == (
        expect, "short_new", 0.5)


@pytest.mark.parametrize("stale, use_new", [(-3, True), (None, False)])
def test_next_stepsize_short_bbq(stale, use_new):
    # two fresh pairs, or three with the new step switched off
    hist = _rule_history(stale=stale)
    expect = min(hist.bb2[-2], hist.bb2[-1],
                 bbq_stepsize(hist.bb1[-2], hist.bb1[-1],
                              hist.bb2[-2], hist.bb2[-1]))
    assert expect < min(hist.bb2[-2], hist.bb2[-1])
    assert next_stepsize(hist, 6, 1.0, 2.0, use_new) == (
        expect, "short_bbq", 0.5)


def test_next_stepsize_bare_bb2_with_one_fresh_pair():
    hist = _rule_history(stale=-2)
    assert next_stepsize(hist, 6, 1.0, 2.0, True) == (
        hist.bb2[-1], "short_bb2only", 0.5)


def test_next_stepsize_degenerate_new_step_leaves_bb2_min():
    hist = _rule_history(degenerate=True)
    with pytest.raises(Degenerate):
        alpha_new_bb(hist)
    assert next_stepsize(hist, 6, 1.0, 2.0, True) == (
        min(hist.bb2[-2], hist.bb2[-1]), "short_bb2", 0.5)


def test_next_stepsize_none_without_curvature():
    hist = _rule_history(stale=-1)
    alpha, _, tau = next_stepsize(hist, 6, 0.7, 2.0, True)
    assert alpha is None
    assert tau == 0.7


@pytest.mark.parametrize("stale, degenerate", [
    (None, False), (-3, False), (-2, False), (None, True)])
def test_next_stepsize_zero_tau_never_takes_a_short_step(stale, degenerate):
    hist = _rule_history(stale=stale, degenerate=degenerate)
    for k in (4, 5, 50):
        assert next_stepsize(hist, k, 0.0, 2.0, True) == (
            hist.bb1[-1], "bb1", 0.0)


@pytest.mark.parametrize("use_new, branch", [
    (True, "short_new"), (False, "short_bb2")])
def test_next_stepsize_skips_an_undefined_previous_bb2(use_new, branch):
    # the previous pair has BB1 but its y'y underflowed, so its BB2 is
    # nan; min(nan, bb2) is nan, which the rule returned as the stepsize
    hist = _rule_history()
    hist.bb2[-2] = math.nan
    expect = alpha_new_bb(hist) if use_new else hist.bb2[-1]
    assert expect <= hist.bb2[-1]
    assert next_stepsize(hist, 6, 1.0, 2.0, use_new) == (expect, branch, 0.5)
