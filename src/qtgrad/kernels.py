"""Vector kernels for the quadratic benchmark inner loop, in numpy.

All three functions mutate their output arrays in place and return
scalars only, so the solver allocates nothing per iteration beyond what
numpy needs internally.
"""

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


def quad_step(v, xstar, x, g_old, g_new, alpha, gscale):
    """Advance x by -alpha * g_old and refresh the gradient into g_new.

    Returns (g_old'y, y'y, g_new'g_new) where y = g_new - g_old.  The
    caller derives s's and s'y from alpha and ||g_old||^2, which it
    already has from the previous call.
    """
    x -= alpha * g_old
    np.subtract(x, xstar, out=g_new)
    g_new *= v
    if gscale != 1.0:
        g_new *= gscale
    y = g_new - g_old
    return float(g_old @ y), float(y @ y), float(g_new @ g_new)


def quad_gradient(v, xstar, x, gscale, out):
    """Write the gradient at x into out; returns ||g||^2."""
    np.subtract(x, xstar, out=out)
    out *= v
    if gscale != 1.0:
        out *= gscale
    return float(out @ out)


def quad_value(v, xstar, x, vscale):
    """Objective value at x."""
    d = x - xstar
    return vscale * float(d @ (v * d))
