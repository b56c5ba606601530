"""Property: any flag combination of the run verbs either exits 2 before
its first cell, writing nothing, or runs to exit 0 without a warning."""

import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qtgrad import benchcli, quadsolver, uncsolver
from qtgrad.benchcli import main
from qtgrad.quadsolver import VERIFY_METHODS

# small pools that mix values each verb accepts with values it rejects
KAPPAS = ("1e308", "1e154", "1.0", "nan")
EPSS = ("0", "1e-300", "1e300", "nan", "inf")
THRESHOLDS = ("0", "0.5", "1.0", "1.3", "nan", "inf")
METHODS = {"quadbench": ("bb", "new", "bbq", "bb,new", "alg1"),
           "uncbench": ("alg1", "alg1-bbq", "bb"),
           "verify3d": VERIFY_METHODS + ("new",)}
# quadbench (set, n): the last four fail quadprob.check_spec
SETS_NS = (("4", "10"), ("1", "6"), ("3", "10"),
           ("2", "5"), ("3", "12"), ("1", "2"), ("6", "10"))
BUDGET = 300


def _maybe(pool):
    """None (flag left out) three times in four, else a value of pool."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(pool) if i == 3 else st.none())


@st.composite
def _argv(draw):
    """A run verb and values for some of the flags its parser registers."""
    verb = draw(st.sampled_from(sorted(METHODS)))
    argv = [verb, "--seeds", str(draw(st.integers(0, 2)))]
    flags = [("--methods", METHODS[verb]), ("--kappa", KAPPAS),
             ("--eps", EPSS), ("--tau1", THRESHOLDS),
             ("--gamma", THRESHOLDS)]
    for flag, pool in flags:
        value = draw(_maybe(pool))
        if value is not None:
            argv += [flag, value]
    if verb == "quadbench":
        set_id, n = draw(st.sampled_from(SETS_NS))
        argv += ["--set", set_id, "--n", n]
    return argv


@hypothesis.settings(derandomize=True, database=None, max_examples=300,
                     deadline=None)
@hypothesis.given(argv=_argv())
@hypothesis.example(argv=["verify3d", "--seeds", "2", "--kappa", "1e308"])
@hypothesis.example(argv=["quadbench", "--seeds", "2", "--set", "3", "--n",
                          "10", "--kappa", "1e154", "--eps", "1e-300"])
@hypothesis.example(argv=["uncbench", "--seeds", "1", "--eps", "1e-300",
                          "--gamma", "1.3"])
def test_flags_exit_2_before_any_cell_or_run_clean(argv):
    cells = []
    real = benchcli._run_cell

    def counted(*cell):
        cells.append(cell)
        return real(*cell)

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(benchcli, "_run_cell", counted)
        mp.setattr(quadsolver, "MAX_ITER", BUDGET)
        mp.setattr(uncsolver, "MAX_ITER", BUDGET)
        mp.setattr(uncsolver, "MAX_FEVALS", BUDGET)
        code = main(argv + ["--zero-times", "--out",
                            os.path.join(tmp, "r")])
        written = os.listdir(tmp)
    assert code in (0, 2)
    if code == 2:
        assert cells == []
        assert written == []
    else:
        assert cells
        assert sorted(written) == ["r_agg.csv", "r_runs.csv"]
