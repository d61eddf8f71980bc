"""Branch-and-bound on desk relaxations against scipy's HiGHS MILP solver.

These relaxations are too large for the enumeration oracle. Each is solved
from its root, then again after each of two no-good cuts, each round resuming
the previous round's frontier as ``solve_rfe`` does. The cutoff stays infinite,
so every round must find the cut MILP's own optimum.
"""

import time

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from gridopt.bnb import solve_milp
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.relax import add_no_good_cut, build_relaxation, extract_fixing
from gridopt.simplex import OPTIMAL, LpProblem


def _highs(lp: LpProblem, binary_cols) -> float:
    senses = np.array(lp.senses)
    lo_r = np.where(senses == "<=", -np.inf, lp.rhs)
    hi_r = np.where(senses == ">=", np.inf, lp.rhs)
    integrality = np.zeros(lp.ncols)
    integrality[binary_cols] = 1
    ref = milp(
        lp.obj,
        constraints=LinearConstraint(lp.A, lo_r, hi_r),
        bounds=Bounds(lp.lo, lp.hi),
        integrality=integrality,
    )
    assert ref.status == 0
    return float(ref.fun)


@pytest.mark.parametrize(
    "scenario, seed", [("S2", 2), ("S2", 3), ("S2", 4), ("S3", 0), ("S4", 0)]
)
def test_desk_relaxation_matches_highs(scenario, seed):
    ir = build_opo_instance(get_scenario(scenario, "desk"), seed).ir
    model = build_relaxation(ir)
    bins = model.binary_cols()
    frontier = None
    for _ in range(3):
        lp = model.to_lp()
        # the limit only stops a runaway search; S4-0's first round takes about 3 s
        res = solve_milp(
            lp, bins, deadline=time.monotonic() + 300, cutoff=np.inf, frontier=frontier
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(_highs(lp, bins), rel=1e-6)
        frontier = res.frontier
        add_no_good_cut(model, extract_fixing(model, res.x))
