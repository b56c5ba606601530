"""Line search, reference bookkeeping and the globalized solver."""

import itertools
import math

import numpy as np
import pytest

import qtgrad.uncsolver as unc
from qtgrad import testfuns
from qtgrad.errors import InvalidInput, LineSearchFailure, NonDescentDirection
from qtgrad.report import (
    STATUS_FEVAL_BUDGET,
    STATUS_LINESEARCH,
    STATUS_MAXITER,
    STATUS_NONFINITE,
    STATUS_OK,
)
from qtgrad.uncsolver import (
    ObjectiveFn,
    UncSolverConfig,
    dai_fletcher_search,
    init_reference,
    solve,
    update_reference,
)

from oracles import reference_sequence
from replay import replay_branches
from test_uncsolver_bitwise import _bits, _point, _quartic


def parabola(x):
    return float(x[0] ** 2)


def test_line_search_hand_case():
    # f(x) = x^2 from x = 1 along d = -g with a wild trial stepsize:
    # lambda = 10 * 0.5^4 = 0.625 after five evaluations
    lam, nfe = dai_fletcher_search(parabola, np.array([1.0]), np.array([2.0]),
                                   np.array([-2.0]), 10.0, f_r=1.0)
    assert lam == 0.625
    assert nfe == 5


def test_line_search_accepts_first_trial():
    lam, nfe = dai_fletcher_search(parabola, np.array([1.0]), np.array([2.0]),
                                   np.array([-2.0]), 0.25, f_r=1.0)
    assert lam == 0.25
    assert nfe == 1


def test_line_search_rejects_ascent_direction():
    with pytest.raises(NonDescentDirection):
        dai_fletcher_search(parabola, np.array([1.0]), np.array([2.0]),
                            np.array([2.0]), 1.0, f_r=1.0)
    with pytest.raises(NonDescentDirection):
        dai_fletcher_search(parabola, np.array([1.0]), np.array([2.0]),
                            np.array([0.0]), 1.0, f_r=1.0)


def test_line_search_gives_up_after_budget():
    # value never drops below f_r, every backtrack fails
    with pytest.raises(LineSearchFailure):
        dai_fletcher_search(lambda x: 2.0, np.array([0.0]), np.array([1.0]),
                            np.array([-1.0]), 1.0, f_r=1.0, max_backtracks=5)


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous",
                                                        "strided"])
@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_search_given_gg_matches_explicit_direction(n, strided):
    # solve passes the g'g it already holds: the search must not move a bit
    rng = np.random.default_rng([n, strided])
    backtracked = 0
    for _ in range(20):
        x, g = _point(rng, n, strided)
        args = (10.0 ** rng.uniform(-3, 2), _quartic(x), unc.DELTA, unc.ETA,
                60)
        given = unc._search(_quartic, x, g, None, *args, gg=float(g.dot(g)))
        explicit = unc._search(_quartic, x, g, -g, *args)
        assert _bits(given) == _bits(explicit)
        backtracked += given[1] > 1
    assert backtracked > 0, "premise: some searches backtrack"


def test_reference_spec_sequence():
    st = init_reference(5.0, cap=2)
    st = update_reference(st, 4.0)
    assert (st.f_r, st.f_min, st.f_c, st.t) == (5.0, 4.0, 4.0, 0)
    st = update_reference(st, 6.0)
    assert (st.f_r, st.f_min, st.f_c, st.t) == (5.0, 4.0, 6.0, 1)
    st = update_reference(st, 7.0)
    assert (st.f_r, st.f_min, st.f_c, st.t) == (7.0, 4.0, 7.0, 0)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_reference_matches_transcription_exhaustively(cap):
    for length in range(1, 6):
        for seq in itertools.product(range(5), repeat=length):
            st = init_reference(3.0, cap)
            expect = reference_sequence([float(v) for v in seq], cap, 3.0)
            for f_k, exp in zip(seq, expect):
                st = update_reference(st, float(f_k))
                assert (st.f_r, st.f_min, st.f_c, st.t) == exp


def test_reference_invariants_on_random_stream():
    rng = np.random.default_rng(0)
    for cap in (1, 2, 5):
        st = init_reference(float(rng.normal()), cap)
        prev_min = st.f_min
        for _ in range(300):
            st = update_reference(st, float(rng.normal()))
            assert 0 <= st.t < st.cap
            assert st.f_min <= st.f_c
            assert st.f_min <= prev_min
            assert st.f_r >= st.f_min
            prev_min = st.f_min


def test_zero_gradient_start_takes_no_steps():
    f = testfuns.sphere(8)
    rep = solve(f, x0=np.zeros(8))
    assert rep.status == STATUS_OK
    assert rep.iterations == 0
    assert rep.nfe == 1 and rep.ngrad == 1
    assert rep.final_gnorm == 0.0
    assert rep.final_f == 0.0


def test_sphere_solves_in_a_few_steps():
    rep = solve(testfuns.sphere())
    assert rep.status == STATUS_OK
    assert rep.iterations <= 3
    assert rep.method == "alg1"


def test_rosenbrock_iteration_window():
    rep = solve(testfuns.rosenbrock2())
    assert rep.status == STATUS_OK
    assert 20 <= rep.iterations <= 200
    assert rep.final_gnorm <= 1e-6


def test_lying_objective_fails_line_search():
    # value grows along the reported descent direction, nothing accepts
    f = ObjectiveFn("liar", lambda x: float(x[0]),
                    lambda x: np.array([-1.0]), np.array([0.0]))
    rep = solve(f)
    assert rep.status == STATUS_LINESEARCH
    assert "no acceptable step" in rep.message


def test_concave_region_uses_nocurv_branch(monkeypatch):
    # f = -x^2/2 keeps s'y negative, the curvature-free reset must kick in
    monkeypatch.setattr(unc, "MAX_ITER", 2)
    f = ObjectiveFn("cave", lambda x: float(-0.5 * x[0] ** 2),
                    lambda x: np.array([-x[0]]), np.array([1.0]))
    rep = solve(f, cfg=UncSolverConfig(keep_trace=True))
    assert rep.status == STATUS_MAXITER
    assert rep.trace[1].branch == "nocurv"
    assert rep.trace[1].stepsize == 0.5
    assert rep.branch_counts.get("nocurv", 0) >= 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_start_is_invalid_input(bad):
    with pytest.raises(InvalidInput):
        solve(testfuns.rosenbrock2(), x0=np.array([bad, 1.0]))


@pytest.mark.parametrize("f, x0", [
    (testfuns.sphere(5), [1.0, 2.0]),
    (testfuns.rosenbrock2(), [[1.0, 2.0]]),
    (testfuns.rosenbrock2(), [1.0, 2.0, 3.0]),
    (ObjectiveFn("short-gradient", lambda x: float(x @ x),
                 lambda x: 2.0 * x[:-1], np.ones(3)), None),
    (ObjectiveFn("column-gradient", lambda x: float(x @ x),
                 lambda x: 2.0 * x[:, None], np.ones(3)), None),
], ids=["short", "nested", "long", "short-gradient", "column-gradient"])
def test_wrong_dimension_start_is_invalid_input(f, x0):
    # these reported ok, raised IndexError and raised a broadcast
    # ValueError; the gradients raised numpy's broadcast and alignment
    # ValueErrors
    with pytest.raises(InvalidInput, match="dimension"):
        solve(f, x0=x0)


def test_start_given_as_a_list_sets_the_dimension():
    # solve reads the dimension off x0, which may be a plain sequence
    f = ObjectiveFn("list-start", lambda x: float(x @ x), lambda x: 2.0 * x,
                    [1.0, 2.0])
    assert solve(f).status == STATUS_OK
    with pytest.raises(InvalidInput, match="dimension"):
        solve(f, x0=[1.0])


def _inf_value(x):
    return math.inf


def _nan_gradient(x):
    return np.array([math.nan])


@pytest.mark.parametrize("f, x0", [
    (testfuns.rosenbrock2(), np.array([1e300, 1.0])),
    (ObjectiveFn("inf", _inf_value, lambda x: np.array([1.0]),
                 np.array([0.0])), None),
    (ObjectiveFn("nan", parabola, _nan_gradient, np.array([0.0])), None),
], ids=["overflow", "value", "gradient"])
def test_nonfinite_start_value_or_gradient_reports_nonfinite(f, x0):
    # these used to end in linesearch_failure after 61 evaluations
    rep = solve(f, x0=x0)
    assert rep.status == STATUS_NONFINITE
    assert rep.iterations == 0
    assert rep.nfe == 1 and rep.ngrad == 1


def _sphere(x):
    return float(x @ x)


def _sphere_with_hole(inner):
    """x @ x with value ``inner`` wherever |x_0| < 0.5, plus its gradient."""
    def value(x):
        return inner if abs(x[0]) < 0.5 else _sphere(x)
    return value, lambda x: 2.0 * x


def _nan_gradient_near_origin(x):
    return np.full_like(x, math.nan) if abs(x[0]) < 0.5 else 2.0 * x


@pytest.mark.parametrize("value, gradient, what", [
    (*_sphere_with_hole(math.nan), "value"),
    (*_sphere_with_hole(-math.inf), "value"),
    (_sphere, _nan_gradient_near_origin, "gradient"),
], ids=["nan_trial", "accepted_minus_inf", "accepted_nan_gradient"])
def test_nonfinite_during_run_reports_nonfinite(value, gradient, what):
    # from (3, 1) the first trial lands on the origin; a NaN there used to
    # be a rejected trial, and this run went on to feval_budget after
    # 1,000,038 evaluations
    f = ObjectiveFn("hole", value, gradient, np.array([3.0, 1.0]))
    rep = solve(f)
    assert rep.status == STATUS_NONFINITE
    assert rep.message == f"{what} not finite at iteration 1"
    assert rep.iterations == 0
    assert rep.nfe == 2
    assert rep.final_f == 10.0


def test_infinite_trial_value_is_a_rejected_trial():
    # the first trial from (3, 1) lands on (0, 1), where f is +inf
    def value(x):
        return math.inf if x[0] < 0.5 else float((x - 1.0) @ (x - 1.0))

    f = ObjectiveFn("wall", value, lambda x: 2.0 * (x - 1.0),
                    np.array([3.0, 1.0]))
    rep = solve(f)
    assert rep.status == STATUS_OK
    assert rep.nfe > rep.iterations + 1


def test_feval_budget_status(monkeypatch):
    monkeypatch.setattr(unc, "MAX_FEVALS", 2)
    rep = solve(testfuns.rosenbrock2())
    assert rep.status == STATUS_FEVAL_BUDGET
    assert rep.nfe >= 2


def test_underflowing_gg_ends_the_run_with_a_status():
    # g = [0, 3.1e-165, -1.4e-165] has ||g||_inf above eps_inf but a g'g
    # that underflows to 0; the line search's NonDescentDirection used to
    # escape solve
    rep = solve(testfuns.helical_valley(), cfg=UncSolverConfig(eps_inf=1e-300))
    assert rep.status == STATUS_LINESEARCH
    assert "underflows" in rep.message
    assert rep.final_gnorm > 1e-300 and rep.iterations > 0


def test_undefined_previous_bb2_is_not_a_stepsize(monkeypatch):
    # at iteration 828 the previous pair's BB2 is nan, which was taken as
    # the stepsize: the run ended "nonfinite" although f and g were finite
    monkeypatch.setattr(unc, "MAX_ITER", 1000)
    rep = solve(testfuns.dixon_price(),
                cfg=UncSolverConfig(eps_inf=1e-300, keep_trace=True))
    assert rep.status == STATUS_MAXITER
    assert rep.iterations == 1000
    assert all(0.0 < row.stepsize < math.inf for row in rep.trace)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e3, 1e8, 1e15, 1e40, 1e100, 1e200, 1e300])
def test_far_starts_end_with_a_status(monkeypatch, scale):
    # an overflow in an objective or in the solver's dots used to escape
    # solve as OverflowError (helical_valley's Python-float r ** 2) or,
    # under this filter, as a RuntimeWarning (beale at 3e7 x0); the
    # budgets are cut so that runs that stall end in a second
    monkeypatch.setattr(unc, "MAX_ITER", 2000)
    monkeypatch.setattr(unc, "MAX_FEVALS", 20000)
    statuses = {STATUS_OK, STATUS_MAXITER, STATUS_FEVAL_BUDGET,
                STATUS_LINESEARCH, STATUS_NONFINITE}
    for f in testfuns.builtin_suite():
        for use_new in (True, False):
            rep = solve(f, scale * f.x0, UncSolverConfig(use_new_step=use_new))
            assert rep.status in statuses, (f.name, use_new)


def _scaled(f, cf, cx):
    """f in other units: values times cf, x times cx, x0 moved alike."""
    value, gradient = f.value, f.gradient
    return ObjectiveFn(f.name, lambda z: cf * value(z / cx),
                       lambda z: (cf / cx) * gradient(z / cx), cx * f.x0)


@pytest.mark.parametrize("cf, cx", [(1e-8, 1.0), (1e8, 1.0), (1.0, 1e-4),
                                    (1.0, 1e4)])
def test_scaled_suite_is_solved(monkeypatch, cf, cx):
    # the same 22 problems in other units, eps_inf scaled like ||g||_inf;
    # the clamp into [1e-10, 1e6] left 2 to 4 of them at maxiter
    monkeypatch.setattr(unc, "MAX_ITER", 20000)
    for f in testfuns.builtin_suite():
        for use_new in (True, False):
            cfg = UncSolverConfig(eps_inf=1e-6 * cf / cx, use_new_step=use_new)
            rep = solve(_scaled(f, cf, cx), cfg=cfg)
            assert rep.status == STATUS_OK, (f.name, use_new, rep.status)


@pytest.mark.parametrize("name, iters", [
    ("rosenbrock2", (61, 71)), ("rosenbrock_ext", (61, 71)),
    ("wood", (539, 348))])
def test_far_start_is_solved(name, iters):
    # from 1e8 x0 these ran to maxiter after 200,000 iterations while the
    # clamp held every trial at or above 1e-10
    f = getattr(testfuns, name)()
    for use_new, expect in zip((True, False), iters):
        rep = solve(f, 1e8 * f.x0, UncSolverConfig(use_new_step=use_new))
        assert (rep.status, rep.iterations) == (STATUS_OK, expect)


def test_nocurv_restart_at_the_origin_is_a_step(monkeypatch):
    # f = 2x from 1 lands on x = 0 with s'y = 0; min(1, ||x||_inf)/||g||_inf
    # is 0 there, and the run took 0-length steps to maxiter
    monkeypatch.setattr(unc, "MAX_ITER", 20)
    f = ObjectiveFn("line", lambda x: float(2.0 * x[0]),
                    lambda x: np.array([2.0]), np.array([1.0]))
    rep = solve(f, cfg=UncSolverConfig(keep_trace=True))
    assert rep.status == STATUS_MAXITER
    nocurv = [row.stepsize for row in rep.trace if row.branch == "nocurv"]
    assert len(nocurv) == 19
    assert nocurv[0] == 0.5
    assert all(a > 0.0 for a in nocurv)
    assert rep.final_f < -30.0


def test_config_rejects_bad_knobs():
    for gamma in (0.99, math.nan, math.inf):
        with pytest.raises(ValueError):
            UncSolverConfig(gamma=gamma)
    # nan and -3.0 were accepted, unlike by QuadSolverConfig and the CLI
    for tau1 in (math.nan, -3.0, 0.0, 1.5):
        with pytest.raises(ValueError):
            UncSolverConfig(tau1=tau1)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            UncSolverConfig(eps_inf=eps)


def _exact_gnorm_sq_along(f, x0, rows):
    """Squared 2-norms at every traced iterate, replayed bitwise."""
    x = np.array(x0, dtype=float)
    g = np.asarray(f.gradient(x), dtype=float)
    out = []
    for row in rows:
        x = x + row.stepsize * (-g)
        g = np.asarray(f.gradient(x), dtype=float)
        out.append(float(g @ g))
    return out


@pytest.mark.parametrize("use_new", [True, False])
def test_alg1_branches_match_quadratic_rule(use_new):
    # gamma = 1 keeps tau fixed; on a quadratic every first trial is
    # accepted, so the branch decisions must reproduce the adaptive rule
    f = testfuns.ill_conditioned_quadratic(n=30, kappa=1e3, seed=3)
    cfg = UncSolverConfig(tau1=0.9, gamma=1.0, eps_inf=1e-8,
                          use_new_step=use_new, keep_trace=True)
    rep = solve(f, cfg=cfg)
    assert rep.status == STATUS_OK
    assert rep.method == ("alg1" if use_new else "alg1-bbq")
    assert rep.nfe == rep.iterations + 1, "premise: no backtracking"
    g1 = np.asarray(f.gradient(f.x0), dtype=float)
    gg_rows = _exact_gnorm_sq_along(f, f.x0, rep.trace)
    expect = replay_branches(rep.trace, float(g1 @ g1), cfg.tau1, cfg.gamma,
                             use_new_step=use_new, rule="unc",
                             gnorm_sq=gg_rows)
    assert len(expect) == len(rep.trace)
    for i, (row, (branch, alpha, tau)) in enumerate(zip(rep.trace, expect)):
        if i == 0:
            assert row.branch == "init"
            continue
        assert row.branch == branch
        assert row.stepsize == alpha
        assert row.tau == tau
    key = "short_new" if use_new else "short_bbq"
    assert rep.branch_counts.get(key, 0) > 0
