"""The pass rule of scripts/perfbench_smoke.py, on hand-made run output.

The script is imported by path; nothing here runs perfbench.
"""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "perfbench_smoke.py")
_spec = importlib.util.spec_from_file_location("perfbench_smoke", _PATH)
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)


def _output(correct=True, absent=("kernels.quad_gradient",
                                  "kernels.quad_value")):
    meta = {"meta": {"seed": 0, "absent_hooks": list(absent)}}
    result = {"correct": correct, "attempted": 88, "failed": 0,
              "metrics": {}}
    return f"{json.dumps(meta)}\n{json.dumps(result)}\n"


def test_a_correct_run_with_only_the_deleted_kernels_absent_passes():
    assert smoke.problems(0, _output(), "unc_suite") == []
    assert smoke.problems(0, _output(absent=()), "unc_suite") == []


def test_each_fault_of_a_run_is_named():
    assert smoke.problems(2, _output(), "unc_suite") == ["exit 2"]
    assert smoke.problems(0, _output(correct=False), "unc_suite") == [
        '"correct": false']
    assert smoke.problems(0, "", "unc_suite") == ["no result line"]
    found = smoke.problems(0, _output(absent=("kernels.quad_value",
                                              "uncsolver.linesearch",
                                              "accept_ratio")),
                           "unc_suite")
    assert found == ["absent hooks ['accept_ratio', 'uncsolver.linesearch']"]


def _traced(workload, **changes):
    """Output of a traced run whose counts keep the workload's identities,
    with changes applied; 412,145 iterations over 1,920 solves are
    refgrid's totals at seed 0."""
    metrics = dict.fromkeys(("kernels.quad_step.calls",
                             "stepsizes.sd_stepsize.calls",
                             "quadsolver.solve.calls",
                             "uncsolver.linesearch.calls"), 0)
    if workload == "unc_suite":
        metrics["uncsolver.linesearch.calls"] = 1062
    else:
        metrics.update({"kernels.quad_step.calls": 412145,
                        "stepsizes.sd_stepsize.calls": 1920,
                        "quadsolver.solve.calls": 1920,
                        "quadsolver.branch.sd": 1920,
                        "quadsolver.branch.bb1": 300000,
                        "quadsolver.branch.short_new": 110225,
                        "quadsolver.branch.other": 0})
    metrics.update(changes)
    meta = {"meta": {"seed": 0, "absent_hooks": ["kernels.quad_gradient"]}}
    result = {"correct": True, "attempted": 1920, "failed": 0,
              "metrics": {k: {"value": v, "unit": "count"}
                          for k, v in metrics.items()}}
    return f"{json.dumps(meta)}\n{json.dumps(result)}\n"


def test_traced_runs_that_keep_the_count_identities_pass():
    for workload in ("refgrid", "quad_large", "unc_suite"):
        assert smoke.problems(0, _traced(workload), workload) == []


def test_a_kernel_count_off_the_iteration_count_is_named():
    # a blocked kernel that called the patched attribute once per block
    # would count more calls than iterations
    for workload in ("refgrid", "quad_large"):
        found = smoke.problems(0, _traced(
            workload, **{"kernels.quad_step.calls": 412146}), workload)
        assert found == ["kernels.quad_step.calls 412146 != "
                         "quadsolver.branch.* sum 412145"]


def test_a_missing_sd_step_is_named():
    found = smoke.problems(0, _traced(
        "refgrid", **{"stepsizes.sd_stepsize.calls": 1919}), "refgrid")
    assert found == ["stepsizes.sd_stepsize.calls 1919 != "
                     "quadsolver.solve.calls 1920"]


def test_a_globalized_run_without_line_searches_is_named():
    found = smoke.problems(0, _traced(
        "unc_suite", **{"uncsolver.linesearch.calls": 0}), "unc_suite")
    assert found == ["uncsolver.linesearch.calls is 0"]


def test_untraced_runs_skip_the_identities():
    assert smoke.problems(0, _output(), "refgrid") == []
