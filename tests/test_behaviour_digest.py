"""The --windows rule of scripts/behaviour_digest.py, on hand-made runs.

The script is imported by path; nothing here runs a solver.
"""

import importlib.util
import os

import numpy as np

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "behaviour_digest.py")
_spec = importlib.util.spec_from_file_location("behaviour_digest", _PATH)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_replicate_moves_every_component_one_ulp_reproducibly():
    x0 = np.array([-10.0, -1e-300, 0.0, 5e-324, 1.0, 7.5, 1e300])
    assert digest._replicate(x0, 0, 3) is x0
    for replicate in (1, 2, 10):
        xj = digest._replicate(x0, replicate, 3)
        up, down = np.nextafter(x0, np.inf), np.nextafter(x0, -np.inf)
        assert np.all((xj == up) | (xj == down))
        assert digest._replicate(x0, replicate, 3).tobytes() == xj.tobytes()
    # the signs differ between replicates and between starts
    many = np.zeros(64)
    assert not np.array_equal(digest._replicate(many, 1, 0),
                              digest._replicate(many, 2, 0))
    assert not np.array_equal(digest._replicate(many, 1, 0),
                              digest._replicate(many, 1, 1))


def _runs(new_cell, alg1):
    """Two start sets: every grid start of "new" set 1 n 100 kappa 100
    takes ``new_cell[j]`` iterations in set j, the other three cells 10;
    alg1's one function takes ``alg1[j]``."""
    runs = {f"new 1 {n} {kappa} {start}": [10, 10]
            for n in (100, 1000) for kappa in (100, 10000)
            for start in range(digest.GRID_STARTS)}
    for start in range(digest.GRID_STARTS):
        runs[f"new 1 100 100 {start}"] = list(new_cell)
    runs["alg1 sphere"] = list(alg1)
    return runs


def test_totals_sum_the_four_cell_means_and_the_suite():
    rows = digest._totals(_runs((20, 40), (5, 7)))
    assert rows["new 1 100 100 mean"] == [20, 40]
    assert rows["new 1 1000 10000 mean"] == [10, 10]
    assert rows["new set 1 sum of cell means"] == [50, 70]
    assert rows["alg1 suite total"] == [5, 7]


def test_out_of_window_gates_medians_of_totals_only():
    parent = digest._totals(_runs((20, 40), (5, 7)))
    # medians 30 + 30 and 6 lie in [50, 70] and [5, 7]
    assert digest.out_of_window(parent, parent) == []
    # a cell mean outside the parent's is not gated; its set total is
    change = digest._totals(_runs((50, 52), (5, 7)))
    assert digest.out_of_window(parent, change) == [
        "new set 1 sum of cell means"]
    change = digest._totals(_runs((20, 40), (8, 8)))
    assert digest.out_of_window(parent, change) == ["alg1 suite total"]
