"""The vector kernel of the quadratic solver's inner loop, in numpy.

:func:`quad_step` writes its vector results into arrays the caller
passes and returns scalars.  It allocates nothing: besides x it needs
the gradient g, a spare of n elements that receives the new gradient,
and scratch ``y`` of min(n, ``BLOCK``) elements.  :func:`gradient_windows`
gives g and the spare as two windows of one buffer of n + min(n,
``BLOCK``) elements (rounded up to a cache line), so a run holds x, that
buffer and y.

Above ``BLOCK`` elements :func:`quad_step` works block by block, so each
block's passes run in L2 cache instead of streaming the whole vectors
from memory once per pass.  The spare window lies ``BLOCK`` elements
below or above g, so block i's new gradient lands where the previous
block's old gradient was: the blocks run forward when the spare lies
below g and backward when it lies above, and each block of g is read
before it is overwritten, with no copy.  x and the new gradient are
elementwise the same as on the whole arrays; the three inner products
are sums of per-block partial sums, added in ascending block order in
either direction, so above ``BLOCK`` they are summed in a different
order than a whole-array dot product and can differ from it in the last
bits.  Up to ``BLOCK`` elements the kernel runs once on the whole
arrays, the same arithmetic bit for bit.  Each block runs through
:func:`quad_step` itself, by way of a private alias rather than the
module attribute, so a wrapper patched onto ``kernels.quad_step`` sees
one call per step at every n.

At small n a step costs numpy call dispatch, not flops: ``alpha`` may
be a 0-d float64 array, which numpy multiplies by at less dispatch cost
than a Python float (the product is the same), and the two ufuncs are
bound once at module level.

The vectors a step writes (x, g, the spare and y) should start on a
cache-line boundary of ``ALIGN`` = 64 bytes, which :func:`aligned_empty`
guarantees; ``BLOCK`` is a multiple of eight elements, so every block of
an aligned vector starts on a line too, and :func:`gradient_windows`
offsets its two windows by a whole number of lines.  numpy's AVX-512
loops store 64 bytes per instruction, and a store off a line boundary
splits across two lines and costs about twice as much: on a 2-vCPU
AVX-512 Xeon an L2-resident ``np.subtract(x, xs, out)`` at n = ``BLOCK``
took 18.6-24.3 us with ``out`` 8 to 56 bytes past a line and 10.7 us
with it on one.
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
# The step's ufuncs, bound once: a module global is one lookup, np.multiply
# two.
_multiply = np.multiply
_subtract = np.subtract


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


def gradient_windows(n):
    """(g, spare) for :func:`quad_step`: two windows of n elements of one
    aligned buffer, the spare min(n, ``BLOCK``) elements above g, rounded
    up to a whole cache line so that both start on one.
    """
    line = ALIGN // 8
    offset = -(-min(n, BLOCK) // line) * line
    buf = aligned_empty(n + offset)
    return buf[:n], buf[offset:]


def quad_step(v, xstar, x, g, spare, alpha, y):
    """Advance x by -alpha * g and write the new gradient into ``spare``.

    Returns (g'y, y'y, g_new'g_new, spare, g) with g as on entry, g_new
    the new gradient now in ``spare`` and y = g_new - g, so the caller's
    g is the next call's spare.  ``spare`` has n elements and either does
    not overlap g or is a window min(n, ``BLOCK``) or more elements below
    or above it, as :func:`gradient_windows` places it; above ``BLOCK``
    the blocks run in the order that reads each block of g before the
    spare's writes reach it.  The caller derives s's and s'y from alpha
    and ||g||^2, which it already has from the previous call.  ``alpha``
    is a float or a 0-d float64 array; the gradient is
    ``(x - xstar) * v``.  ``y`` is scratch space of min(n, BLOCK)
    elements.
    """
    n = x.shape[0]
    if n <= BLOCK:
        # out passed positionally: a keyword costs more to parse per call
        _multiply(g, alpha, y)
        _subtract(x, y, x)
        _subtract(x, xstar, spare)
        _multiply(spare, v, spare)
        _subtract(spare, g, y)
        # ndarray.dot sums like @ on 1-d arrays, at less call overhead.
        return (float(g.dot(y)), float(y.dot(y)), float(spare.dot(spare)),
                spare, g)
    starts = range(0, n, BLOCK)
    # block i's new gradient goes where the block run before it was read
    backward = spare.ctypes.data > g.ctypes.data
    parts = []
    for lo in reversed(starts) if backward else starts:
        hi = min(lo + BLOCK, n)
        parts.append(_quad_step(v[lo:hi], xstar[lo:hi], x[lo:hi], g[lo:hi],
                                spare[lo:hi], alpha, y[:hi - lo]))
    if backward:
        parts.reverse()
    gy = yy = gg = 0.0
    for b_gy, b_yy, b_gg, _, _ in parts:   # ascending block order
        gy += b_gy
        yy += b_yy
        gg += b_gg
    return gy, yy, gg, spare, g


# The blocked path steps each block through this, not through the module
# attribute, so a wrapper patched onto quad_step sees one call per step.
_quad_step = quad_step
