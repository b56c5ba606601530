"""Run reports shared by the quadratic and general solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

STATUS_OK = "ok"
STATUS_MAXITER = "maxiter"
STATUS_FEVAL_BUDGET = "feval_budget"
STATUS_LINESEARCH = "linesearch_failure"
STATUS_DEGENERATE = "degenerate"
STATUS_NONFINITE = "nonfinite"


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a traced run.

    ``bb1``/``bb2`` are the BB values available at the iterate the step
    landed on, ``tau`` the adaptive threshold in force on arrival (the
    value the next ratio test consults); nan wherever the solver does
    not track them.
    """

    k: int
    stepsize: float
    branch: str
    gnorm: float
    fval: float = math.nan
    bb1: float = math.nan
    bb2: float = math.nan
    tau: float = math.nan


@dataclass
class RunReport:
    """Outcome of one solver run.

    ``iterations`` counts steps actually taken, so a run that starts at a
    stationary point reports 0.  ``branch_counts`` maps branch label to
    how many iterations chose that stepsize rule.  ``final_f`` is filled
    by solvers that track the objective (always for the quadratic ones).
    """

    method: str
    iterations: int = 0
    nfe: int = 0
    ngrad: int = 0
    final_gnorm: float = math.inf
    final_f: float = math.nan
    status: str = STATUS_OK
    message: str = ""
    wall_time: float = 0.0
    branch_counts: dict[str, int] = field(default_factory=dict)
    trace: list[TraceRecord] = field(default_factory=list)

    def count(self, branch: str) -> None:
        self.branch_counts[branch] = self.branch_counts.get(branch, 0) + 1
