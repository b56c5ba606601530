"""Exception types shared across the package."""


class QtgradError(Exception):
    """Base class for all package errors."""


class InvalidSpec(QtgradError, ValueError):
    """A problem or experiment specification is malformed."""


class InvalidInput(QtgradError, ValueError):
    """Input data handed to a solver or an aggregation step is unusable."""


class ZeroDenominator(QtgradError, ZeroDivisionError):
    """A stepsize denominator is exactly zero."""


class NonPositiveCurvature(QtgradError):
    """s'y <= 0, so a BB stepsize is undefined or negative."""


class Degenerate(QtgradError):
    """A closed-form stepsize could not be formed from the history.

    Raised by the BBQ formula and by the three-dimensional stepsize and its
    cubic root whenever a guard trips (tiny denominator, negative
    discriminant, sigma too close to 1, g_r <= 0, failed cubic, nonpositive
    result).  Callers drop down to a simpler stepsize, never abort the run.
    """


class LinearDependence(Degenerate):
    """Gram-Schmidt input vectors are numerically dependent."""


class NumericalFailure(QtgradError):
    """An intermediate overflowed, or the quartic root finder failed."""


class NonDescentDirection(QtgradError):
    """Line search was given a direction with g'd >= 0."""


class LineSearchFailure(QtgradError):
    """Backtracking exhausted its budget without satisfying the condition."""
