"""Vector kernels for the quadratic benchmark inner loop, in numpy.

All three functions return scalars only; :func:`quad_step` and
:func:`quad_gradient` write their vector results into arrays the caller
passes.  :func:`quad_step` allocates no n-sized temporary: its one
intermediate vector lives in a scratch array of at most ``BLOCK``
elements, which the solver allocates once per run.

Above ``BLOCK`` elements :func:`quad_step` works block by block, so each
block's passes run in L2 cache instead of streaming the whole vectors
from memory once per pass.  x and the new gradient are elementwise the
same as on the whole arrays; the three inner products are sums of
per-block partial sums, so above ``BLOCK`` they are summed in a
different order than a whole-array dot product and can differ from it in
the last bits.  Up to ``BLOCK`` elements the kernel runs once on the
whole arrays, the same arithmetic bit for bit.

At small n a step costs numpy call dispatch, not flops, so the kernel
takes two shortcuts from its caller.  ``alpha`` may be a 0-d float64
array, which numpy multiplies by at less dispatch cost than a Python
float; the product is the same.  And the caller may pass the
pre-scaled spectrum ``gscale * v`` with ``gscale`` 1.0, which skips one
multiply per step: gscale is 1 or 2, and doubling is exact outside the
overflow and subnormal ranges, so the gradient is bitwise the same.
"""

import numpy as np

# Elements per block: the six float64 blocks a step touches (v, xstar, x,
# g_old, g_new, y) take 1.5 MB, which fits a 2 MB L2 cache.
BLOCK = 1 << 15


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


def _step_block(v, xstar, x, g_old, g_new, alpha, gscale, y):
    # out passed positionally: a keyword costs more to parse per call
    np.multiply(g_old, alpha, y)
    np.subtract(x, y, x)
    np.subtract(x, xstar, g_new)
    np.multiply(g_new, v, g_new)
    if gscale != 1.0:
        np.multiply(g_new, gscale, g_new)
    np.subtract(g_new, g_old, y)
    # ndarray.dot sums like @ on 1-d arrays, at less call overhead.
    return float(g_old.dot(y)), float(y.dot(y)), float(g_new.dot(g_new))


def quad_step(v, xstar, x, g_old, g_new, alpha, gscale, y=None):
    """Advance x by -alpha * g_old and refresh the gradient into g_new.

    Returns (g_old'y, y'y, g_new'g_new) where y = g_new - g_old.  The
    caller derives s's and s'y from alpha and ||g_old||^2, which it
    already has from the previous call.  ``alpha`` is a float or a 0-d
    float64 array; the gradient is ``gscale * v * (x - xstar)``, so ``v``
    may come pre-scaled with ``gscale`` 1.0.  ``y`` is scratch space of
    min(n, BLOCK) elements; it is allocated here when omitted.
    """
    n = x.shape[0]
    if y is None:
        y = np.empty(min(n, BLOCK))
    if n <= BLOCK:
        return _step_block(v, xstar, x, g_old, g_new, alpha, gscale, y)
    gy = yy = gg = 0.0
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        b_gy, b_yy, b_gg = _step_block(
            v[lo:hi], xstar[lo:hi], x[lo:hi], g_old[lo:hi], g_new[lo:hi],
            alpha, gscale, y[:hi - lo])
        gy += b_gy
        yy += b_yy
        gg += b_gg
    return gy, yy, gg


def quad_gradient(v, xstar, x, gscale, out):
    """Write the gradient at x into out; returns ||g||^2."""
    np.subtract(x, xstar, out=out)
    out *= v
    if gscale != 1.0:
        out *= gscale
    return float(out @ out)


def quad_value(v, xstar, x, vscale, d=None):
    """Objective value at x.

    ``d``, when given, is an n-sized buffer that receives x - xstar, so
    that v * d is the only n-sized temporary.
    """
    if d is None:
        d = x - xstar
    else:
        np.subtract(x, xstar, out=d)
    return vscale * float(d @ (v * d))
