"""The decision rule of scripts/bench_pairs.py, on hand-made run values.

The script is imported by path; nothing here runs perfbench.
"""

import argparse
import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "runs_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.25}


def test_compare_fails_a_median_worse_than_the_bound():
    res = bench_pairs.compare(LOWER, [10.0] * 5, [13.0] * 5)
    assert res["verdict"] == "fail"
    assert res["losses"] == 5 and res["wins"] == 0
    assert res["change_minus_parent_rel"] == pytest.approx(0.3)
    assert not res["gain"]
    # the same 30 % in the other direction is no fail for a higher-better
    # metric, and 30 % fewer is
    assert bench_pairs.compare(HIGHER, [10.0] * 5, [13.0] * 5)["verdict"] == "pass"
    assert bench_pairs.compare(HIGHER, [10.0] * 5, [7.0] * 5)["verdict"] == "fail"


def test_compare_is_unresolved_when_the_runs_spread_past_the_bound():
    # quartiles 2 and 4 about a median of 3: a spread of 2/3 > 0.25
    spread = [1.0, 2.0, 3.0, 4.0, 5.0]
    res = bench_pairs.compare(LOWER, spread, list(spread))
    assert res["verdict"] == "unresolved"
    # the change's own spread counts too
    res = bench_pairs.compare(LOWER, [3.0] * 5, spread)
    assert res["verdict"] == "unresolved"


def test_compare_passes_separated_runs_despite_their_spread():
    # every change run beats every parent run: a wide spread cannot hide
    # which side is better, so the verdict is not unresolved
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.1, 0.2, 0.3, 0.4, 0.5]
    res = bench_pairs.compare(LOWER, parent, change)
    assert res["verdict"] == "pass"
    assert res["gain"]
    # one overlapping run undoes the exception
    res = bench_pairs.compare(LOWER, parent, change[:-1] + [1.5])
    assert res["verdict"] == "unresolved"


def test_compare_passes_equal_tight_runs_without_a_gain():
    res = bench_pairs.compare(LOWER, [10.0, 10.1, 10.0, 10.1, 10.0],
                              [10.1, 10.0, 10.0, 10.1, 10.0])
    assert res["verdict"] == "pass"
    assert not res["gain"]
    # ties count for neither side
    assert res["wins"] == 1 and res["losses"] == 1 and res["pairs"] == 5


def test_compare_gain_needs_the_pairs_and_the_gap():
    parent = [10.0, 10.2, 10.1, 10.3, 10.0, 10.2, 10.1, 10.3, 10.0, 10.2]
    better = [p - 1.0 for p in parent]
    res = bench_pairs.compare(LOWER, parent, better)
    assert res["verdict"] == "pass" and res["wins"] == 10 and res["gain"]
    # nine wins in ten pairs still gain ...
    res = bench_pairs.compare(LOWER, parent, better[:-1] + [parent[-1]])
    assert res["wins"] == 9 and res["gain"]
    # ... eight do not
    res = bench_pairs.compare(LOWER, parent, better[:-2] + parent[-2:])
    assert res["wins"] == 8 and not res["gain"]
    # every pair won, but by less than the parent's interquartile range
    res = bench_pairs.compare(LOWER, parent, [p - 0.01 for p in parent])
    assert res["wins"] == 10 and not res["gain"]
    # higher-better metrics gain upwards
    res = bench_pairs.compare(HIGHER, parent, [p + 1.0 for p in parent])
    assert res["verdict"] == "pass" and res["gain"]


def test_worse_by_with_a_zero_parent_median():
    assert bench_pairs.worse_by(0.0, 0.0, "lower") == 0.0
    assert bench_pairs.worse_by(0.0, -1.0, "lower") == 0.0
    assert bench_pairs.worse_by(0.0, 1.0, "lower") == math.inf
    assert bench_pairs.worse_by(0.0, 1.0, "higher") == 0.0
    assert bench_pairs.worse_by(0.0, -1.0, "higher") == math.inf
    # any increase on a zero median fails, and none at all passes
    assert bench_pairs.compare(LOWER, [0.0] * 3, [1.0] * 3)["verdict"] == "fail"
    res = bench_pairs.compare(LOWER, [0.0] * 3, [0.0] * 3)
    assert res["verdict"] == "pass"
    assert res["change_minus_parent_rel"] is None


def test_worse_by_is_relative_to_the_parent():
    assert bench_pairs.worse_by(4.0, 5.0, "lower") == 0.25
    assert bench_pairs.worse_by(4.0, 3.0, "lower") == -0.25
    assert bench_pairs.worse_by(4.0, 3.0, "higher") == 0.25


@pytest.mark.parametrize("text, seeds", [
    ("3", [3]),
    ("3-5", [3, 4, 5]),
    ("0-9", list(range(10))),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text, message", [
    ("5-3", "empty seed range"),
    ("a-b", "expected A-B"),
    ("", "expected A-B"),
])
def test_parse_seeds_rejects(text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        bench_pairs.parse_seeds(text)


def test_a_pair_keeps_each_runs_unscaled_timings():
    # perfbench's meta["unscaled"] holds the timings before the speed
    # probe scales them
    def run(us_scaled, us_unscaled, probe):
        meta = {"commit": "abc", "unscaled": {"us_per_iter": us_unscaled,
                                              "wall_s": 9.0},
                "probe_s_median": probe, "probe_ref_s": 0.01}
        res = {"correct": True, "attempted": 4, "failed": 0,
               "metrics": {"us_per_iter": {"value": us_scaled, "unit": "us"}}}
        return bench_pairs.run_entry(meta, res)

    entry = run(5.0, 6.1, 0.012)
    assert entry["metrics"] == {"us_per_iter": 5.0}
    assert entry["unscaled"] == {"us_per_iter": 6.1, "wall_s": 9.0}
    assert entry["probe_s_median"] == 0.012
    runs = [{"parent": run(5.0, p, 0.01), "change": run(4.0, c, 0.01)}
            for p, c in ((6.1, 5.8), (6.4, 5.7), (6.0, 5.9))]
    assert bench_pairs.unscaled_median(runs, "parent", "us_per_iter") == 6.1
    assert bench_pairs.unscaled_median(runs, "change", "us_per_iter") == 5.8
