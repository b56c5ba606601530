"""Solver-level tests on diagonal quadratics.

The replay tests reconstruct every branch decision of solve_new from its
own trace with an independent re-run of the decision rule, pinning the
wiring (ratio test, candidate set, tau updates) and every stepsize
bitwise; the stepsize formulas themselves are covered by the stepsize and
termination3d tests.
"""

import math

import numpy as np
import pytest

from qtgrad import kernels, quadprob, quadsolver, termination3d
from qtgrad.quadprob import (
    SET_IDS,
    QuadraticProblem,
    generate,
    gradient,
    starting_point,
)
from qtgrad.errors import InvalidInput, InvalidSpec
from qtgrad.quadsolver import (
    QuadSolverConfig,
    solve_bb,
    solve_new,
    verify_3d_termination,
)
from qtgrad.report import (
    STATUS_DEGENERATE,
    STATUS_MAXITER,
    STATUS_NONFINITE,
    STATUS_OK,
)
from qtgrad.termination3d import GradientHistory

from oracles import reference_trajectory
from replay import SHORT_BRANCHES, replay_branches


def with_hessian(h):
    """The quadratic with Hessian diag(h) and minimizer 0."""
    return QuadraticProblem(spectrum=h, x_star=np.zeros(len(h)))


def test_first_step_is_exact_sd():
    # g = (1, 2), so g'g = 5 and g'Ag = 1 + 8 = 9
    p = with_hessian([1.0, 2.0])
    rep = solve_new(p, [1.0, 1.0], QuadSolverConfig(keep_trace=True))
    first = rep.trace[0]
    assert first.branch == "sd"
    assert first.stepsize == pytest.approx(5.0 / 9.0, rel=1e-15)


def test_second_step_is_bb1_of_first_pair():
    p = with_hessian([1.0, 2.0])
    x0 = np.array([1.0, 1.0])
    rep = solve_new(p, x0, QuadSolverConfig(keep_trace=True))
    a1 = rep.trace[0].stepsize
    g0 = gradient(p, x0)
    x1 = x0 - a1 * g0
    s = x1 - x0
    y = gradient(p, x1) - g0
    row = rep.trace[1]
    assert row.branch == "bb1"
    assert row.stepsize == pytest.approx(float(s @ s) / float(s @ y), rel=1e-14)


def test_one_dimensional_quadratic_takes_one_step():
    rep = solve_bb(with_hessian([3.0]), [2.0], QuadSolverConfig())
    assert rep.status == STATUS_OK
    assert rep.iterations == 1
    assert rep.branch_counts == {"sd": 1}
    assert rep.final_gnorm == 0.0


def test_start_at_minimizer_reports_zero_iterations():
    p = with_hessian([1.0, 4.0, 9.0])
    rep = solve_new(p, p.x_star, QuadSolverConfig())
    assert rep.status == STATUS_OK
    assert rep.iterations == 0
    assert rep.final_gnorm == 0.0


def test_stepsizes_stay_in_spectral_interval():
    p = generate(4, 60, 1e3, seed=3)
    x0 = starting_point(p, 0)
    rep = solve_new(p, x0, QuadSolverConfig(keep_trace=True))
    lam = p.grad_scale * p.spectrum
    lo = 1.0 / float(lam.max())
    hi = 1.0 / float(lam.min())
    assert rep.status == STATUS_OK
    for row in rep.trace:
        assert lo * (1.0 - 1e-8) <= row.stepsize <= hi * (1.0 + 1e-8)


def test_tau_trace_follows_gamma():
    p = generate(1, 80, 1e3, seed=5)
    x0 = starting_point(p, 2)
    cfg = QuadSolverConfig(tau1=0.5, gamma=1.3, keep_trace=True)
    rep = solve_new(p, x0, cfg)
    rows = rep.trace
    assert rows[0].tau == 0.5
    seen_short = seen_long = False
    for prev, row in zip(rows, rows[1:]):
        if row.k < 5:
            assert row.tau == prev.tau
        elif row.branch in SHORT_BRANCHES:
            assert row.tau == prev.tau / 1.3
            seen_short = True
        elif row.branch == "bb1":
            assert row.tau == prev.tau * 1.3
            seen_long = True
        else:
            assert row.tau == prev.tau
    assert seen_short and seen_long


def _exact_gnorm_sq_along(p, x0, rows):
    """Squared gradient norms at every traced iterate, replayed bitwise.

    The trace stores the gradient norm, and squaring it back is one ulp
    off g'g, which near-degenerate histories amplify into a different
    Degenerate decision; the solver's own kernel reproduces g'g exactly.
    """
    x = np.array(x0, dtype=float)
    g = quadprob.gradient(p, x)
    spare, y = np.empty_like(x), np.empty_like(x)
    out = []
    for row in rows:
        _, _, gg, g, spare = kernels.quad_step(p.spectrum, p.x_star, x, g,
                                               spare, row.stepsize, y)
        out.append(gg)
    return out


REPLAY_CASES = [
    pytest.param((4, 50, 1e4, 11), 1, {"tau1": 0.9, "gamma": 1.0}, use_new,
                 id=str(use_new))
    for use_new in (True, False)
] + [
    # near-degenerate histories: squaring the traced gnorm back flipped
    # the Degenerate decision of the three-point step on these runs
    pytest.param((1, 50, 1e4, 2), 0, {}, True, id="set1-n50-seed2"),
    pytest.param((3, 20, 1e4, 1), 0, {}, True, id="set3-n20-seed1"),
]


@pytest.mark.parametrize("spec, start, knobs, use_new", REPLAY_CASES)
def test_trace_replay_matches_decision_rule(spec, start, knobs, use_new):
    p = generate(*spec)
    x0 = starting_point(p, start)
    cfg = QuadSolverConfig(keep_trace=True, use_new_step=use_new, **knobs)
    rep = solve_new(p, x0, cfg)
    g1 = gradient(p, x0)
    expect = replay_branches(rep.trace, float(g1 @ g1), cfg.tau1, cfg.gamma,
                             use_new_step=use_new,
                             gnorm_sq=_exact_gnorm_sq_along(p, x0, rep.trace))
    assert len(expect) == len(rep.trace)
    for row, (branch, alpha, tau) in zip(rep.trace, expect):
        assert row.branch == branch
        assert row.stepsize == alpha
        assert row.tau == tau
    key = "short_new" if use_new else "short_bbq"
    assert rep.branch_counts.get(key, 0) > 0


def test_degenerate_new_step_takes_bb2_min():
    # on this run the three-point step degenerates at several short
    # steps; the step taken is then min(BB2_k, BB2_{k-1}) alone, not BBQ
    p = generate(1, 20, 1e4, seed=10)
    x0 = starting_point(p, 0)
    cfg = QuadSolverConfig(keep_trace=True)
    rep = solve_new(p, x0, cfg)
    g1 = gradient(p, x0)
    expect = replay_branches(rep.trace, float(g1 @ g1), cfg.tau1, cfg.gamma,
                             gnorm_sq=_exact_gnorm_sq_along(p, x0, rep.trace))
    rows = rep.trace
    assert [row.branch for row in rows] == [b for b, _, _ in expect]
    fell_back = [i for i, row in enumerate(rows) if row.branch == "short_bb2"]
    assert fell_back
    for i in fell_back:
        assert rows[i].stepsize == expect[i][1]
        assert rows[i].stepsize == min(rows[i - 2].bb2, rows[i - 1].bb2)


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_loop_calls_patched_hooks(monkeypatch, solver):
    # perfbench's tracer wraps these attributes; the loop must look each
    # up at the call, or the wrapper misses calls
    calls = {}

    def count_calls(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count_calls(kernels, "quad_step")
    count_calls(quadsolver, "sd_stepsize")
    count_calls(termination3d, "alpha_new_bb")
    count_calls(GradientHistory, "set_stepsize")
    p = generate(4, 100, 1e4, seed=0)
    rep = solver(p, starting_point(p, 0), QuadSolverConfig())
    assert rep.status == STATUS_OK
    assert calls["quad_step"] == calls["set_stepsize"] == rep.iterations
    assert calls["sd_stepsize"] == 1
    if solver is solve_new:
        assert calls["alpha_new_bb"] >= rep.branch_counts["short_new"] > 0
    else:
        assert "alpha_new_bb" not in calls


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_blocked_kernel_is_one_patched_call_per_step(monkeypatch, solver):
    # above BLOCK the kernel steps its blocks through a private alias, so
    # a wrapper on the module attribute counts steps, not blocks
    step, calls = kernels.quad_step, []

    def wrapper(*args):
        calls.append(args[2].size)
        return step(*args)

    monkeypatch.setattr(kernels, "quad_step", wrapper)
    n = 2 * kernels.BLOCK + 7
    p = generate(1, n, 1e2, seed=0)
    rep = solver(p, starting_point(p, 0), QuadSolverConfig(eps=1e-6))
    assert rep.status == STATUS_OK
    assert calls == [n] * rep.iterations


def test_rerun_is_bitwise_identical():
    p = generate(2, 40, 1e3, seed=7)
    x0 = starting_point(p, 0)
    a = solve_new(p, x0, QuadSolverConfig(keep_trace=True))
    b = solve_new(p, x0, QuadSolverConfig(keep_trace=True))
    assert a.iterations == b.iterations
    assert a.final_gnorm == b.final_gnorm
    assert a.final_f == b.final_f
    assert [r.stepsize for r in a.trace] == [r.stepsize for r in b.trace]
    assert [r.branch for r in a.trace] == [r.branch for r in b.trace]


@pytest.mark.parametrize("set_id", SET_IDS)
def test_every_set_solves_to_tolerance(set_id):
    p = generate(set_id, 100, 1e4, seed=0)
    x0 = starting_point(p, 1)
    g1 = float(np.linalg.norm(gradient(p, x0)))
    for solver, cfg in (
        (solve_bb, QuadSolverConfig()),
        (solve_new, QuadSolverConfig()),
        (solve_new, QuadSolverConfig(use_new_step=False)),
    ):
        rep = solver(p, x0, cfg)
        assert rep.status == STATUS_OK
        assert rep.final_gnorm <= 1e-9 * g1 * (1.0 + 1e-12)


def test_eps_measures_relative_reduction():
    v = np.linspace(1.0, 50.0, 30)
    p = with_hessian(v)
    x0 = 1e5 * np.ones(30)
    g1 = float(np.linalg.norm(gradient(p, x0)))
    rep = solve_new(p, x0, QuadSolverConfig(eps=1e-2))
    assert rep.status == STATUS_OK
    assert rep.final_gnorm <= 1e-2 * g1
    # an absolute reading of eps would have pushed below 1e-2
    assert rep.final_gnorm > 1e-2
    tighter = solve_new(p, x0, QuadSolverConfig(eps=1e-10))
    assert tighter.iterations > rep.iterations


def test_iteration_budget_reported(monkeypatch):
    monkeypatch.setattr(quadsolver, "MAX_ITER", 3)
    p = generate(1, 50, 1e4, seed=1)
    x0 = starting_point(p, 0)
    rep = solve_bb(p, x0, QuadSolverConfig())
    assert rep.status == STATUS_MAXITER
    assert rep.iterations == 3
    assert rep.message


def test_bb_trace_carries_zero_tau():
    p = generate(1, 30, 1e3, seed=0)
    rep = solve_bb(p, starting_point(p, 0), QuadSolverConfig(keep_trace=True))
    assert rep.status == STATUS_OK
    assert set(rep.branch_counts) == {"sd", "bb1"}
    assert all(row.tau == 0.0 for row in rep.trace)


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_step_without_curvature_repeats_the_stepsize(monkeypatch, solver):
    # a third step whose s'y comes out negative leaves no BB1 at the
    # iterate it reaches, so the fourth repeats its stepsize ("fallback")
    step, calls = kernels.quad_step, []

    def flip(*args):
        gy, yy, gg, g, spare = step(*args)
        calls.append(gy)
        return (-gy if len(calls) == 3 else gy), yy, gg, g, spare

    monkeypatch.setattr(kernels, "quad_step", flip)
    p = generate(1, 30, 1e3, seed=0)
    rep = solver(p, starting_point(p, 0), QuadSolverConfig(keep_trace=True))
    assert rep.status == STATUS_OK
    assert rep.branch_counts["fallback"] == 1
    rows = rep.trace
    assert math.isnan(rows[2].bb1)
    assert rows[3].branch == "fallback"
    assert rows[3].stepsize == rows[2].stepsize


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
@pytest.mark.parametrize("bad", [math.nan, math.inf, "short", "long", "2d"])
def test_nonfinite_start_is_invalid_input(solver, bad):
    # a start of the wrong dimension is rejected like a non-finite one
    p = generate(1, 10, 1e2, seed=0)
    x0 = starting_point(p, 0)
    if bad == "short":
        x0 = x0[:-1]
    elif bad == "long":
        x0 = np.append(x0, 0.0)
    elif bad == "2d":
        x0 = x0.reshape(2, 5)
    else:
        x0[3] = bad
    with pytest.raises(InvalidInput):
        solver(p, x0)


@pytest.mark.parametrize("solver, index, big", [
    (solve_bb, 0, 1e300), (solve_new, 0, 1e300),
    (solve_bb, -1, 1e151), (solve_new, -1, 1e151),
], ids=["solve_bb", "solve_new", "gag-solve_bb", "gag-solve_new"])
def test_overflowing_start_gradient_reports_nonfinite(solver, index, big):
    # a finite x0 whose gradient norm overflows used to pass the
    # convergence test inf <= eps * inf and report ok; with a finite g'g
    # but an overflowing g'Ag ("gag") the first step was 0 and the run
    # took 49,999 fallback steps to maxiter
    p = generate(1, 10, 1e2, seed=0)
    x0 = starting_point(p, 0)
    x0[index] = big
    rep = solver(p, x0)
    assert rep.status == STATUS_NONFINITE
    assert rep.iterations == 0


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_underflowing_sd_curvature_reports_nonfinite(solver):
    # g'g = 1.6e-319 is positive but g'Ag underflows to 0; the SD step
    # used to raise an exception the solver did not catch
    p = QuadraticProblem(spectrum=np.full(4, 1e-10), x_star=np.zeros(4))
    rep = solver(p, np.full(4, 1e-150))
    assert rep.status == STATUS_NONFINITE
    assert rep.iterations == 0
    assert "g'Ag" in rep.message


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
@pytest.mark.parametrize("h_scale, x0_scale", [(1e-200, 1.0), (1.0, 1e-160)],
                         ids=["start", "mid-run"])
def test_underflowing_gradient_norm_reports_nonfinite(solver, h_scale,
                                                      x0_scale):
    # g'g underflows to 0 while ||g|| is about 1e-197 at the start, or
    # about 1.5e-162 later with eps ||g_0|| far under it; the run used to
    # pass its convergence test there and report ok
    p = generate(1, 10, 1e2, seed=0)
    rep = solver(QuadraticProblem(p.spectrum * h_scale, np.zeros(10)),
                 starting_point(p, 0) * x0_scale)
    assert rep.status == STATUS_NONFINITE
    assert (rep.iterations == 0) == (h_scale < 1.0)
    assert "underflows" in rep.message


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_gradient_overflowing_mid_run_reports_nonfinite(solver):
    # g'g is finite at the start and after the SD step, then overflows;
    # the run used to take 49,998 fallback steps on inf/nan to maxiter
    p = QuadraticProblem(spectrum=np.array([1.0, 1e12]), x_star=np.zeros(2))
    rep = solver(p, [1e150, 1e128])
    assert rep.status == STATUS_NONFINITE
    assert rep.iterations == 2
    assert "fallback" not in rep.branch_counts


def test_new_step_does_not_depend_on_the_hessian_scale():
    # every stepsize scales by 1/c with H, so the iterations should not
    # move; the cubic's tolerances were floored at 1 and, at c <= 1e-10,
    # solve_new took 25 to 40 times as many iterations as at c = 1
    p = generate(4, 100, 1e4, seed=0)
    cfg = QuadSolverConfig(eps=1e-6)

    def mean_iterations(c):
        q = QuadraticProblem(p.spectrum * c, p.x_star)
        return np.mean([solve_new(q, starting_point(p, s), cfg).iterations
                        for s in range(6)])

    base = mean_iterations(1.0)
    for c in (1e-12, 1e-10):
        assert mean_iterations(c) <= 1.5 * base


def test_new_step_overflowing_in_the_cubic_falls_back():
    # tr(H) is about 2e104, so tr^3 overflows; the OverflowError of the
    # Python float power used to escape solve_new
    p = generate(4, 20, 1e4, seed=0)
    q = QuadraticProblem(p.spectrum * 1e100, p.x_star / 1e100)
    rep = solve_new(q, starting_point(p, 0) / 1e100)
    assert rep.status == STATUS_OK
    assert rep.branch_counts["short_bb2"] > 0
    assert "short_new" not in rep.branch_counts


@pytest.mark.parametrize("n", [100, 2 * kernels.BLOCK + 7])
@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_kernel_writes_only_cache_aligned_vectors(monkeypatch, solver, n):
    step = kernels.quad_step
    offsets = []

    def spy(v, xstar, x, g, spare, alpha, y):
        offsets.append(tuple(a.ctypes.data % kernels.ALIGN
                             for a in (x, g, spare, y)))
        return step(v, xstar, x, g, spare, alpha, y)

    monkeypatch.setattr(kernels, "quad_step", spy)
    p = generate(1, n, 1e2, seed=0)
    rep = solver(p, starting_point(p, 0), QuadSolverConfig(eps=1e-6))
    assert rep.status == STATUS_OK
    assert len(offsets) == rep.iterations
    assert set(offsets) == {(0, 0, 0, 0)}


@pytest.mark.parametrize("n", [100, 2 * kernels.BLOCK + 7])
@pytest.mark.parametrize("solver", [solve_bb, solve_new])
@pytest.mark.parametrize("index, big, status", [
    (None, None, STATUS_OK),
    (0, 1e300, STATUS_NONFINITE),
    (-1, 1e151, STATUS_NONFINITE),
], ids=["ok", "nonfinite-start", "gag-overflow"])
def test_start_is_left_as_it_was(solver, n, index, big, status):
    # the solver uses its copy of x as scratch for H g and the final
    # value; the caller's start must come back byte for byte
    p = generate(1, n, 1e2, seed=0)
    x0 = starting_point(p, 0)
    if index is not None:
        x0[index] = big
    before = x0.tobytes()
    rep = solver(p, x0, QuadSolverConfig(eps=1e-6))
    assert rep.status == status
    assert x0.tobytes() == before


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_run_holds_two_vectors_of_n(monkeypatch, solver):
    # x of n elements, g and the spare as two windows of one buffer of
    # n + BLOCK, y of BLOCK, and no H g product
    n = 2 * kernels.BLOCK + 7
    alloc, sizes = kernels.aligned_empty, []
    hess_vec, products = quadprob.hess_vec, []

    def spy(size):
        sizes.append(size)
        return alloc(size)

    def hess_spy(p, d):
        products.append(d.size)
        return hess_vec(p, d)

    monkeypatch.setattr(kernels, "aligned_empty", spy)
    monkeypatch.setattr(quadprob, "hess_vec", hess_spy)
    p = generate(1, n, 1e2, seed=0)
    rep = solver(p, starting_point(p, 0), QuadSolverConfig(eps=1e-6))
    assert rep.status == STATUS_OK
    assert sorted(sizes) == [kernels.BLOCK, n, n + kernels.BLOCK]
    assert products == []


def _at_offset(a, offset):
    """Copy of a whose data starts offset bytes past a cache line."""
    lo = offset // 8
    buf = kernels.aligned_empty(a.shape[0] + lo)
    buf[lo:] = a
    return buf[lo:]


@pytest.mark.parametrize("set_id, n", [(4, 1000), (1, 2 * kernels.BLOCK + 7)])
@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_misaligned_problem_arrays_give_the_same_run(solver, set_id, n):
    # the solver leaves the problem's read-only arrays where they are
    p = generate(set_id, n, 1e2, seed=0)
    x0 = starting_point(p, 0)
    cfg = QuadSolverConfig(eps=1e-6)
    aligned = QuadraticProblem(spectrum=_at_offset(p.spectrum, 0),
                               x_star=_at_offset(p.x_star, 0))
    skewed = QuadraticProblem(spectrum=_at_offset(p.spectrum, 8),
                              x_star=_at_offset(p.x_star, 40))
    assert skewed.spectrum.ctypes.data % kernels.ALIGN == 8
    assert skewed.x_star.ctypes.data % kernels.ALIGN == 40
    want, got = solver(aligned, x0, cfg), solver(skewed, x0, cfg)
    assert got.status == want.status == STATUS_OK
    assert (got.iterations, got.final_gnorm, got.final_f) == (
        want.iterations, want.final_gnorm, want.final_f)


@pytest.mark.parametrize("solver", [solve_bb, solve_new])
def test_blocked_path_follows_reference_trajectory(solver):
    # above kernels.BLOCK the kernel runs block by block
    p = generate(1, kernels.BLOCK + 7, 1e2, seed=0)
    x0 = starting_point(p, 0)
    rep = solver(p, x0, QuadSolverConfig(eps=1e-6, keep_trace=True))
    assert rep.status == STATUS_OK
    grads = reference_trajectory(p.spectrum, p.x_star, x0,
                                 [row.stepsize for row in rep.trace],
                                 p.grad_scale)
    for row, g in zip(rep.trace, grads[1:]):
        assert row.gnorm == pytest.approx(float(np.linalg.norm(g)),
                                          rel=1e-12)


def test_config_rejects_bad_knobs():
    with pytest.raises(ValueError):
        QuadSolverConfig(tau1=0.0)
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadSolverConfig(gamma=gamma)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadSolverConfig(eps=eps)


def test_verify3d_special_steps_in_trace():
    rep = verify_3d_termination(100.0, "day3d", seed=0, keep_trace=True)
    assert rep.status == STATUS_OK
    assert rep.iterations == 8
    branches = [r.branch for r in rep.trace]
    assert branches[0] == "sd"
    assert branches[2] == "new3d"
    assert branches[5] == "bbq"
    assert branches.count("base") == 5
    assert rep.final_gnorm <= 1e-6


@pytest.mark.parametrize("method", ["day3d", "bb13d", "bb23d"])
def test_verify3d_terminates_for_every_base(method):
    worst = max(verify_3d_termination(100.0, method, seed=s).final_gnorm
                for s in range(3))
    assert worst <= 1e-6


def test_verify3d_control_does_not_terminate():
    rep = verify_3d_termination(100.0, "bb1", seed=0, keep_trace=True)
    assert rep.status == STATUS_OK
    assert set(rep.branch_counts) == {"sd", "base"}
    assert rep.final_gnorm > 1e-4


@pytest.mark.parametrize("kappa", [1e120, 1e200, 1e300])
@pytest.mark.parametrize("method", ["day3d", "bb13d", "bb23d", "bb1"])
def test_verify3d_overflowing_start_reports_nonfinite(method, kappa):
    # g'Ag overflows at 1e120 (the SD step was 0, then "degenerate"),
    # g'g itself at 1e200 (HMatrix raised ValueError, bb1 reported ok)
    rep = verify_3d_termination(kappa, method, seed=0)
    assert rep.status == STATUS_NONFINITE


@pytest.mark.parametrize("method", quadsolver.VERIFY_METHODS)
def test_verify3d_without_curvature_degenerates(monkeypatch, method):
    # every gradient equals the first, so y = 0: s'y = y'y = 0 leaves
    # BB1, BB2 and DAY undefined and the k = 2 base step ends the run
    real, first = quadprob.gradient, []

    def frozen(p, x):
        if not first:
            first.append(real(p, x))
        return first[0].copy()

    monkeypatch.setattr(quadprob, "gradient", frozen)
    rep = verify_3d_termination(100.0, method, seed=0)
    assert rep.status == STATUS_DEGENERATE
    assert rep.iterations == 1
    assert rep.message.startswith("at k=2:")


def test_verify3d_rejects_unknown_method():
    with pytest.raises(ValueError):
        verify_3d_termination(100.0, "sd", seed=0)


def test_verify3d_rejects_negative_seed():
    # this raised numpy's ValueError: expected non-negative integer
    with pytest.raises(InvalidSpec, match="replicate"):
        verify_3d_termination(100.0, "bb1", -1)
