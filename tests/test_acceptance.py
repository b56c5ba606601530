"""Acceptance gates for the package, one test per gate.

Every test prints a single ``ACCEPTANCE <gate>: PASS|FAIL`` verdict (plus
the measured numbers behind it) and asserts the same condition, so a
verbose run shows one pass/fail line per gate and a failure carries its
diagnostics.  Tolerances and budgets are pinned here on purpose; loosen
them only with a written justification next to the change.
"""

import itertools
import math
import time

import numpy as np

from qtgrad import quadprob, testfuns
from qtgrad.errors import Degenerate, NonDescentDirection
from qtgrad.quadsolver import QuadSolverConfig, solve_bb, solve_new, verify_3d_termination
from qtgrad.report import STATUS_OK
from qtgrad.termination3d import (
    GradientHistory,
    HMatrix,
    gram_schmidt3,
    hmatrix_from_recurrence,
    largest_root_cubic,
    largest_root_quartic,
    project_hessian,
    recurrence_scalars,
)
from qtgrad.uncsolver import dai_fletcher_search, init_reference, solve, update_reference

from oracles import bisect_largest_eig, reference_sequence


def verdict(name, checks):
    ok = all(checks.values())
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    return ok, {k: v for k, v in checks.items() if not v}


def test_termination_schedule_3d():
    t0 = time.perf_counter()
    checks = {}
    for method in ("day3d", "bb13d", "bb23d"):
        reps = [verify_3d_termination(100.0, method, s) for s in range(10)]
        gmean = float(np.mean([r.final_gnorm for r in reps]))
        fmean = float(np.mean([r.final_f for r in reps]))
        print(f"  {method} kappa=100: mean gnorm {gmean:.3e}, mean f {fmean:.3e}")
        checks[f"{method} gnorm <= 1e-8"] = gmean <= 1e-8
        checks[f"{method} f <= 1e-16"] = fmean <= 1e-16
        hard = float(np.mean([verify_3d_termination(1e4, method, s).final_gnorm
                              for s in range(10)]))
        print(f"  {method} kappa=1e4: mean gnorm {hard:.3e}")
        checks[f"{method} gnorm <= 1e-5 at kappa 1e4"] = hard <= 1e-5
    control = float(np.mean([verify_3d_termination(100.0, "bb1", s).final_gnorm
                             for s in range(10)]))
    print(f"  bb1 control kappa=100: mean gnorm {control:.3e}")
    checks["bb1 control >= 1e-2"] = control >= 1e-2
    elapsed = time.perf_counter() - t0
    checks["runtime < 1 s"] = elapsed < 1.0
    ok, failed = verdict("3-d termination schedule", checks)
    assert ok, failed


def bb1_history(diag, x0, steps):
    """Exact SD start plus BB1 steps on (1/2) x' diag(v) x."""
    hist = GradientHistory()
    x = np.array(x0, dtype=float)
    g = diag * x
    grads = [g.copy()]
    hist.push(float(g @ g))
    alpha = float(g @ g) / float(g @ (diag * g))
    for _ in range(steps):
        hist.set_stepsize(alpha)
        x = x - alpha * g
        g_new = diag * x
        s = -alpha * g
        y = g_new - g
        sy = float(s @ y)
        bb1v = float(s @ s) / sy
        hist.push(float(g_new @ g_new), bb1v, sy / float(y @ y))
        grads.append(g_new.copy())
        g = g_new
        alpha = bb1v
    return hist, grads


def test_construction_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    degenerate = 0
    compared = 0
    worst = 0.0
    for _ in range(100):
        kappa = 10.0 ** rng.uniform(1.0, 4.0)
        diag = np.empty(10)
        diag[0] = 1.0
        diag[-1] = kappa
        diag[1:-1] = rng.uniform(1.0, kappa, 8)
        x0 = rng.standard_normal(10)
        hist, grads = bb1_history(diag, x0, steps=5)
        try:
            h_rec = hmatrix_from_recurrence(recurrence_scalars(hist), hist)
            u, v, r = gram_schmidt3(grads[-4], grads[-3], grads[-2])
            h_proj = project_hessian(u, v, r, lambda d: diag * d)
        except Degenerate:
            degenerate += 1
            continue
        compared += 1
        diff = np.abs(h_rec.entries - h_proj.entries)
        bound = 1e-8 * (1.0 + np.abs(h_proj.entries))
        worst = max(worst, float((diff / bound).max()))
    elapsed = time.perf_counter() - t0
    print(f"  compared {compared}, degenerate {degenerate}/100, "
          f"worst diff {worst:.3f} of the allowance")
    checks = {
        "entries within 1e-8 * (1 + |entry|)": worst <= 1.0,
        "degenerate rate < 10%": degenerate < 10,
        "some comparisons ran": compared > 0,
        "runtime < 5 s": elapsed < 5.0,
    }
    ok, failed = verdict("recurrence vs projection construction", checks)
    assert ok, failed


def test_eigen_solvers_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst3 = worst4 = 0.0
    bound_ok = True
    for _ in range(1000):
        lam = rng.uniform(0.05, 50.0, 3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        h = HMatrix((q * lam) @ q.T)
        root = largest_root_cubic(h).largest_root
        oracle = bisect_largest_eig(h.entries)
        worst3 = max(worst3, abs(root - oracle) / abs(oracle))
        alpha = 1.0 / root
        diag_cap = float(np.min(1.0 / np.diag(h.entries)))
        if not (1.0 / h.trace - 1e-12 <= alpha <= diag_cap + 1e-12):
            bound_ok = False
    for _ in range(500):
        lam = rng.uniform(-20.0, 50.0, 4)
        while lam.max() < 1.0:
            lam = rng.uniform(-20.0, 50.0, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (q * lam) @ q.T
        root = largest_root_quartic(a)
        oracle = bisect_largest_eig(a)
        worst4 = max(worst4, abs(root - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    print(f"  cubic worst rel {worst3:.3e}, quartic worst rel {worst4:.3e}")
    checks = {
        "cubic within 1e-10 of oracle": worst3 <= 1e-10,
        "quartic within 1e-10 of oracle": worst4 <= 1e-10,
        "1/tr <= alpha <= min 1/H_ii with 1e-12 slack": bound_ok,
        "runtime < 5 s": elapsed < 5.0,
    }
    ok, failed = verdict("closed-form eigen solvers", checks)
    assert ok, failed


def test_set4_iteration_trend():
    t0 = time.perf_counter()
    p = quadprob.generate(4, 1000, 1e4, 0)
    iters = {"bb": [], "new": []}
    solved = True
    for seed in range(10):
        x0 = quadprob.starting_point(p, seed)
        rb = solve_bb(p, x0, QuadSolverConfig(eps=1e-9))
        rn = solve_new(p, x0, QuadSolverConfig(eps=1e-9))
        solved = solved and rb.status == STATUS_OK and rn.status == STATUS_OK
        iters["bb"].append(rb.iterations)
        iters["new"].append(rn.iterations)
    mean_bb = float(np.mean(iters["bb"]))
    mean_new = float(np.mean(iters["new"]))
    elapsed = time.perf_counter() - t0
    print(f"  mean iterations: bb {mean_bb:.1f}, new {mean_new:.1f}, "
          f"ratio {mean_new / mean_bb:.3f}")
    checks = {
        "all runs solved": solved,
        "new mean <= 0.9 x bb mean": mean_new <= 0.9 * mean_bb,
        "runtime < 2 min": elapsed < 120.0,
    }
    ok, failed = verdict("set 4 iteration trend", checks)
    assert ok, failed


def test_line_search_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    delta, eta = 1e-4, 0.5
    exact = True
    minimal = True
    for case in range(100000):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.5, 3.0, n)
        m = rng.normal(0.0, 2.0, n)
        if case % 2:
            def f(z, a=a, m=m):
                return float(a @ (z - m) ** 4)

            def grad(z, a=a, m=m):
                return 4.0 * a * (z - m) ** 3
        else:
            def f(z, a=a, m=m):
                return float(a @ (z - m) ** 2)

            def grad(z, a=a, m=m):
                return 2.0 * a * (z - m)
        x = rng.normal(0.0, 2.0, n)
        g = grad(x)
        if float(g @ g) == 0.0:
            continue
        d = -g
        alpha0 = 10.0 ** rng.uniform(-3.0, 2.0)
        f_r = f(x) + rng.uniform(1e-12, 1.0)
        lam, nfe = dai_fletcher_search(f, x, g, d, alpha0, f_r,
                                       delta=delta, eta=eta)
        gd = float(g @ d)
        if not f(x + lam * d) <= f_r + delta * lam * gd:
            exact = False
        j = nfe - 1
        if lam != alpha0 * eta ** j:
            minimal = False
        elif j > 0:
            prev = alpha0 * eta ** (j - 1)
            if f(x + prev * d) <= f_r + delta * prev * gd:
                minimal = False
    ascent_raises = True
    for _ in range(1000):
        x = rng.normal(0.0, 1.0, 2)
        g = rng.normal(0.0, 1.0, 2)
        for d in (g.copy(), np.zeros(2)):
            try:
                dai_fletcher_search(lambda z: float(z @ z), x, g, d, 1.0,
                                    f_r=float(x @ x) + 1.0)
                ascent_raises = False
            except NonDescentDirection:
                pass
    elapsed = time.perf_counter() - t0
    print(f"  1e5 randomized cases in {elapsed:.1f} s")
    checks = {
        "accepted lambda satisfies the test exactly": exact,
        "lambda is the first accepted trial": minimal,
        "ascent directions raise": ascent_raises,
        "runtime < 10 s": elapsed < 10.0,
    }
    ok, failed = verdict("line search contract", checks)
    assert ok, failed


def test_reference_state_machine():
    agree = True
    for cap in (1, 2, 3):
        for length in range(1, 6):
            for seq in itertools.product(range(5), repeat=length):
                st = init_reference(3.0, cap)
                expect = reference_sequence([float(v) for v in seq], cap, 3.0)
                for f_k, exp in zip(seq, expect):
                    st = update_reference(st, float(f_k))
                    if (st.f_r, st.f_min, st.f_c, st.t) != exp:
                        agree = False
    checks = {"all orderings, caps 1-3, lengths <= 5": agree}
    ok, failed = verdict("reference value state machine", checks)
    assert ok, failed


def test_suite_globalization():
    checks = {}
    for f in testfuns.builtin_suite():
        rep = solve(f)
        checks[f"{f.name} solved"] = (rep.status == STATUS_OK
                                      and rep.final_gnorm <= 1e-6
                                      and rep.iterations <= 200000)
        if f.name == "rosenbrock2":
            print(f"  rosenbrock2: {rep.iterations} iterations")
            checks["rosenbrock2 iterations in [20, 200]"] = \
                20 <= rep.iterations <= 200
    ok, failed = verdict("globalized solver on the suite", checks)
    assert ok, failed
