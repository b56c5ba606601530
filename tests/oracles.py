"""Independent reference implementations the tests compare against.

Everything here is deliberately written from the definitions, not by
calling into qtgrad: dense linear algebra, UTF-naive loops, LAPACK
eigensolvers.  Slow is fine.
"""

import numpy as np


def lapack_largest_eig(h) -> float:
    return float(np.linalg.eigvalsh(np.asarray(h, dtype=float))[-1])


def bisect_largest_eig(h, steps: int = 200) -> float:
    """Largest eigenvalue by bisection on positive definiteness.

    t I - H is positive definite exactly when t exceeds the largest
    eigenvalue (Sylvester), and a Cholesky attempt decides definiteness,
    so bisection over the Gershgorin interval converges to it.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    offdiag = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    lo = float(np.min(np.diag(h) - offdiag))
    hi = float(np.max(np.diag(h) + offdiag))
    if hi <= lo:
        return hi

    def above(t: float) -> bool:
        try:
            np.linalg.cholesky(t * np.eye(n) - h)
            return True
        except np.linalg.LinAlgError:
            return False

    # widen hi until strictly above (Gershgorin can sit exactly on it)
    span = hi - lo
    while not above(hi):
        hi += 1e-16 * max(1.0, abs(hi)) + 1e-3 * span
        span *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reference_trajectory(diag, x_star, x0, alphas, grad_scale):
    """Gradient iterates of f with Hessian grad_scale * diag, dense numpy.

    Returns the list of gradients g_1 .. g_{len(alphas)+1}.
    """
    d = np.asarray(diag, dtype=float)
    x = np.array(x0, dtype=float)
    grads = [grad_scale * d * (x - x_star)]
    for a in alphas:
        x = x - a * grads[-1]
        grads.append(grad_scale * d * (x - x_star))
    return grads


def fd_gradient(value, x, h=1e-6):
    """Central finite differences with per-coordinate relative h."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        hi = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = hi
        g[i] = (value(x + e) - value(x - e)) / (2.0 * hi)
    return g


def reference_update(f_r, f_min, f_c, t, cap, f_k):
    """One f_r bookkeeping step, transcribed directly from the recipe."""
    if f_k < f_min:
        f_min = f_k
        f_c = f_k
        t = 0
    else:
        if f_k > f_c:
            f_c = f_k
        t = t + 1
        if t == cap:
            f_r = f_c
            f_c = f_k
            t = 0
    return f_r, f_min, f_c, t


def reference_sequence(values, cap, f1):
    """Run reference_update over a whole value sequence from init(f1)."""
    f_r = f_min = f_c = f1
    t = 0
    out = []
    for f_k in values:
        f_r, f_min, f_c, t = reference_update(f_r, f_min, f_c, t, cap, f_k)
        out.append((f_r, f_min, f_c, t))
    return out
