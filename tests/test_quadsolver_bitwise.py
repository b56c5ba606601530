"""The quadratic solvers, pinned bit for bit.

Each frozen row holds what one run of solve_bb, solve_new (method
"new") or its BBQ variant ("bbq") reports: iterations, status,
``final_gnorm.hex()``, ``final_f.hex()`` and the branch counts.  The
rows were recorded before the loop and the kernel shed their
per-iteration name lookups.  Any change to a step's arithmetic, to the
stepsize rule or to the branch a step is counted under shows up here as
a changed count or a changed last bit.
"""

import pytest

from qtgrad import kernels
from qtgrad.quadprob import generate, starting_point
from qtgrad.quadsolver import QuadSolverConfig, solve_bb, solve_new

# The blocked path: four blocks above BLOCK would be slower and no
# different; two, the second of 7 elements, run both block orders.
BIG = kernels.BLOCK + 7

# (set, n, kappa, start, method) -> (iterations, status, final_gnorm.hex(),
# final_f.hex(), branch_counts), at problem seed 0; eps 1e-9 up to n = 1000
# and 1e-6 at BIG.
FROZEN = {
    (1, 100, 1e4, 0, "bb"): (945, "ok", "0x1.7c1375da59cbcp-11", "0x1.19838f69d5dadp-23", {"bb1": 944, "sd": 1}),
    (1, 100, 1e4, 0, "new"): (157, "ok", "0x1.ffa59ce450c0fp-11", "0x1.44eb0dc10bb83p-23", {"bb1": 73, "sd": 1, "short_new": 83}),
    (1, 100, 1e4, 0, "bbq"): (204, "ok", "0x1.57a286275125cp-12", "0x1.99ff29ff6eb94p-36", {"bb1": 68, "sd": 1, "short_bbq": 135}),
    (1, 100, 1e4, 1, "bb"): (819, "ok", "0x1.53951c0ea07a9p-12", "0x1.cc745cddd3718p-34", {"bb1": 818, "sd": 1}),
    (1, 100, 1e4, 1, "new"): (192, "ok", "0x1.e356a3d6d5193p-11", "0x1.512da59ee6ed6p-29", {"bb1": 60, "sd": 1, "short_bb2": 3, "short_new": 128}),
    (1, 100, 1e4, 1, "bbq"): (339, "ok", "0x1.bce09c564c859p-11", "0x1.5f19ce2039f4bp-31", {"bb1": 101, "sd": 1, "short_bbq": 237}),
    (4, 1000, 1e4, 0, "bb"): (1264, "ok", "0x1.86c8d1c4694bap-12", "0x1.0467b28be6e6ep-29", {"bb1": 1263, "sd": 1}),
    (4, 1000, 1e4, 0, "new"): (765, "ok", "0x1.9c54a14a0a1ffp-11", "0x1.1b4542a1fc926p-26", {"bb1": 223, "sd": 1, "short_new": 541}),
    (4, 1000, 1e4, 0, "bbq"): (955, "ok", "0x1.1d6a76c6090b5p-10", "0x1.b3b1cfe921e7ep-29", {"bb1": 270, "sd": 1, "short_bbq": 684}),
    (4, 1000, 1e4, 1, "bb"): (971, "ok", "0x1.9ea208f4d206cp-11", "0x1.05da311ddd61cp-23", {"bb1": 970, "sd": 1}),
    (4, 1000, 1e4, 1, "new"): (714, "ok", "0x1.1b452b5bb05abp-10", "0x1.bcff7c8565606p-25", {"bb1": 200, "sd": 1, "short_new": 513}),
    (4, 1000, 1e4, 1, "bbq"): (876, "ok", "0x1.0beb9026584ebp-10", "0x1.517b5eae86adfp-25", {"bb1": 272, "sd": 1, "short_bbq": 603}),
    (1, BIG, 1e2, 0, "bb"): (59, "ok", "0x1.fde3ed2004025p-4", "0x1.52fc2f67ad1d4p-9", {"bb1": 58, "sd": 1}),
    (1, BIG, 1e2, 0, "new"): (65, "ok", "0x1.2dd866117c106p-3", "0x1.d88127fb46342p-9", {"bb1": 42, "sd": 1, "short_new": 22}),
    (1, BIG, 1e2, 0, "bbq"): (61, "ok", "0x1.510df27e5ac61p-3", "0x1.8e09b3a49312fp-8", {"bb1": 41, "sd": 1, "short_bbq": 19}),
}


def _run(method, p, x0, eps):
    if method == "bb":
        return solve_bb(p, x0, QuadSolverConfig(eps=eps))
    return solve_new(p, x0, QuadSolverConfig(eps=eps,
                                             use_new_step=method == "new"))


@pytest.mark.parametrize("case", list(FROZEN), ids=lambda c: "-".join(
    str(part) for part in c))
def test_solve_matches_frozen_runs(case):
    set_id, n, kappa, start, method = case
    p = generate(set_id, n, kappa, seed=0)
    rep = _run(method, p, starting_point(p, start),
               1e-6 if n == BIG else 1e-9)
    assert rep.method == method
    got = (rep.iterations, rep.status, rep.final_gnorm.hex(),
           rep.final_f.hex(), rep.branch_counts)
    assert got == FROZEN[case]
