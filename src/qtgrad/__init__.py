"""Gradient methods with quadratic-termination stepsizes.

The package splits into problem generation (:mod:`qtgrad.quadprob`),
stepsize formulas (:mod:`qtgrad.stepsizes`, :mod:`qtgrad.termination3d`),
two solvers (:mod:`qtgrad.quadsolver` for quadratics,
:mod:`qtgrad.uncsolver` for general objectives) and a benchmark CLI
(:mod:`qtgrad.benchcli`, installed as the ``qtgrad`` command).  Import
each from its module; the package root only names the kernel backend.
"""

from .kernels import backend_name

__version__ = "0.1.0"

__all__ = ["backend_name"]
