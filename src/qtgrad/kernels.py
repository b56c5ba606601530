"""The vector kernel of the quadratic solver's inner loop, in numpy.

:func:`quad_step` writes its vector results into arrays the caller
passes and returns scalars.  It allocates nothing: besides x and the
gradient g it needs two scratch vectors of min(n, ``BLOCK``) elements,
the spare and ``y``, which the solver allocates once per run.

Above ``BLOCK`` elements :func:`quad_step` works block by block, so each
block's passes run in L2 cache instead of streaming the whole vectors
from memory once per pass, and refreshes g in place from a copy of each
block in the spare.  x and the new gradient are elementwise the same as
on the whole arrays; the three inner products are sums of per-block
partial sums, so above ``BLOCK`` they are summed in a different order
than a whole-array dot product and can differ from it in the last bits.
Up to ``BLOCK`` elements the kernel runs once on the whole arrays, the
same arithmetic bit for bit, and writes the new gradient into the spare.

At small n a step costs numpy call dispatch, not flops, so ``alpha``
may be a 0-d float64 array, which numpy multiplies by at less dispatch
cost than a Python float; the product is the same.

The vectors a step writes (x, g, the spare and y) should start on a
cache-line boundary of ``ALIGN`` = 64 bytes, which :func:`aligned_empty`
guarantees; ``BLOCK`` is a multiple of eight elements, so every block of
an aligned vector starts on a line too.  numpy's AVX-512 loops store 64
bytes per instruction, and a store off a line boundary splits across two
lines and costs about twice as much: on a 2-vCPU AVX-512 Xeon an
L2-resident ``np.subtract(x, xs, out)`` at n = ``BLOCK`` took 18.6-24.3
us with ``out`` 8 to 56 bytes past a line and 10.7 us with it on one.
``np.empty`` places a vector wherever the heap's history leaves it, so
the aligned allocation removes that factor from the step time.  The
arrays a step only reads (``v``, ``xstar``) are left as they are: at
n = 1e6 a step took 4.6-4.8 ms with the written vectors aligned whatever
the offset of the read ones, and 5.6-6.0 ms with the written ones 16 or
48 bytes off.  Alignment changes no result, since the ufuncs are exact
per element and the dot products come out bitwise the same at every
offset.
"""

import numpy as np

# Elements per block: the six float64 blocks a step touches (v, xstar, x,
# g, the spare and y) take 1.5 MB, which fits a 2 MB L2 cache.
BLOCK = 1 << 15
# Bytes per cache line, the boundary aligned_empty places a vector on.
ALIGN = 64


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


def aligned_empty(n):
    """Uninitialised float64 vector of n elements whose data starts on an
    ``ALIGN``-byte boundary: one cache line is over-allocated and sliced off.
    """
    buf = np.empty(n + ALIGN // 8)
    lo = (-buf.ctypes.data % ALIGN) // 8
    return buf[lo:lo + n]


def _step_block(v, xstar, x, g_old, g_new, alpha, y):
    # out passed positionally: a keyword costs more to parse per call
    np.multiply(g_old, alpha, y)
    np.subtract(x, y, x)
    np.subtract(x, xstar, g_new)
    np.multiply(g_new, v, g_new)
    np.subtract(g_new, g_old, y)
    # ndarray.dot sums like @ on 1-d arrays, at less call overhead.
    return (float(g_old.dot(y)), float(y.dot(y)), float(g_new.dot(g_new)),
            g_new, g_old)


def quad_step(v, xstar, x, g, spare, alpha, y):
    """Advance x by -alpha * g and refresh the gradient.

    Returns (g'y, y'y, g_new'g_new, g_new, spare_new), g as on entry and
    y = g_new - g.  Up to ``BLOCK`` elements g_new is written into
    ``spare``, of n elements, and the pair is (spare, g); above it g is
    refreshed in place and the pair is (g, spare), whose first ``BLOCK``
    elements serve as scratch.  The caller derives s's and s'y from alpha
    and ||g||^2, which it already has from the previous call.  ``alpha``
    is a float or a 0-d float64 array; the gradient is
    ``(x - xstar) * v``.  ``y`` is scratch space of min(n, BLOCK)
    elements.
    """
    n = x.shape[0]
    if n <= BLOCK:
        return _step_block(v, xstar, x, g, spare, alpha, y)
    gy = yy = gg = 0.0
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        old = spare[:hi - lo]
        np.copyto(old, g[lo:hi])
        b_gy, b_yy, b_gg, _, _ = _step_block(
            v[lo:hi], xstar[lo:hi], x[lo:hi], old, g[lo:hi],
            alpha, y[:hi - lo])
        gy += b_gy
        yy += b_yy
        gg += b_gg
    return gy, yy, gg, g, spare

