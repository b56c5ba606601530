"""Exception types shared across the package."""


class QtgradError(Exception):
    """Base class for all package errors."""


class InvalidSpec(QtgradError, ValueError):
    """A problem or experiment specification is malformed."""


class InvalidInput(QtgradError, ValueError):
    """Input data handed to a solver or an aggregation step is unusable."""


class Degenerate(QtgradError):
    """A closed-form stepsize could not be formed from the history.

    Raised by the BBQ formula and by the three-dimensional stepsize and its
    largest root whenever a guard trips (tiny denominator, negative
    discriminant, sigma too close to 1, g_r <= 0, no positive eigenvalue,
    nonpositive result).  Callers drop down to a simpler stepsize, never
    abort the run.
    """


class LinearDependence(Degenerate):
    """Gram-Schmidt input vectors are numerically dependent."""


class NumericalFailure(QtgradError):
    """The steepest-descent step is not positive and finite.

    Raised by :func:`qtgrad.stepsizes.sd_stepsize` where g'Ag or the step
    overflows or underflows; the solvers end such a run ``nonfinite``.
    """


class NonDescentDirection(QtgradError):
    """Line search was given a direction with g'd >= 0."""


class LineSearchFailure(QtgradError):
    """Backtracking exhausted its budget without satisfying the condition."""
