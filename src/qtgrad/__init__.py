"""Gradient methods with quadratic-termination stepsizes.

The package splits into problem generation (:mod:`qtgrad.quadprob`),
stepsize formulas (:mod:`qtgrad.stepsizes`, :mod:`qtgrad.termination3d`),
two solvers (:mod:`qtgrad.quadsolver` for quadratics,
:mod:`qtgrad.uncsolver` for general objectives) and a benchmark CLI
(:mod:`qtgrad.benchcli`, installed as the ``qtgrad`` command).
"""

from .errors import (
    Degenerate,
    InvalidInput,
    InvalidSpec,
    LinearDependence,
    LineSearchFailure,
    NonDescentDirection,
    NonPositiveCurvature,
    QtgradError,
    ZeroDenominator,
)
from .kernels import backend_name
from .quadprob import QuadraticProblem, generate, starting_point, verification_problem
from .quadsolver import QuadSolverConfig, solve_bb, solve_new, verify_3d_termination
from .report import RunReport, TraceRecord
from .stepsizes import StepPair, bb1, bb2, bbq_stepsize, day_stepsize, sd_stepsize
from .termination3d import GradientHistory, alpha_new_bb, alpha_new_direct, gram_schmidt3
from .uncsolver import ObjectiveFn, UncSolverConfig, dai_fletcher_search, solve

__version__ = "0.1.0"

__all__ = [
    "Degenerate",
    "GradientHistory",
    "InvalidInput",
    "InvalidSpec",
    "LinearDependence",
    "LineSearchFailure",
    "NonDescentDirection",
    "NonPositiveCurvature",
    "ObjectiveFn",
    "QtgradError",
    "QuadSolverConfig",
    "QuadraticProblem",
    "RunReport",
    "StepPair",
    "TraceRecord",
    "UncSolverConfig",
    "ZeroDenominator",
    "alpha_new_bb",
    "alpha_new_direct",
    "backend_name",
    "bb1",
    "bb2",
    "bbq_stepsize",
    "day_stepsize",
    "dai_fletcher_search",
    "generate",
    "gram_schmidt3",
    "sd_stepsize",
    "solve",
    "solve_bb",
    "solve_new",
    "starting_point",
    "verification_problem",
    "verify_3d_termination",
]
