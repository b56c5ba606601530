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
    assert smoke.problems(0, _output()) == []
    assert smoke.problems(0, _output(absent=())) == []


def test_each_fault_of_a_run_is_named():
    assert smoke.problems(2, _output()) == ["exit 2"]
    assert smoke.problems(0, _output(correct=False)) == ['"correct": false']
    assert smoke.problems(0, "") == ["no result line"]
    found = smoke.problems(0, _output(absent=("kernels.quad_value",
                                              "uncsolver.linesearch",
                                              "accept_ratio")))
    assert found == ["absent hooks ['accept_ratio', 'uncsolver.linesearch']"]
