"""End-to-end acceptance gate.

Each test prints one CRITERION line (pass/fail) so the suite output doubles as
an acceptance report. Tolerances and sample counts are part of the contract.
"""

import dataclasses
import time

import numpy as np
import pytest

from gridopt.bnb import solve_milp
from gridopt.gridtab import (
    interpolate,
    make_grid,
    make_table,
    product_table,
    find_segment,
)
from gridopt.model import (
    BINARY,
    CONTINUOUS,
    InterpolantDef,
    VarRef,
    build_problem,
)
from gridopt.opo import build_opo_instance, get_scenario, scenario_catalog
from gridopt.relax import add_no_good_cut, build_relaxation, extract_fixing
from gridopt.rfe import solve_by_enumeration, solve_rfe
from gridopt.simplex import INFEASIBLE, OPTIMAL, solve_lp

from _oracles import interpolate_recursive, lambda_weights, problem_size, weights_1d
from _random_instances import random_instance

N_CRIT1_INSTANCES = 50


def _report(num: int, label: str, ok: bool):
    print(f"\nCRITERION {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def crit1_runs():
    """Solve the shared random-instance pool once; reused by criteria 1/2/4."""
    runs = []
    for seed in range(N_CRIT1_INSTANCES):
        ir = random_instance(seed)
        t0 = time.monotonic()
        rfe = solve_rfe(ir)
        elapsed = time.monotonic() - t0
        oracle = solve_by_enumeration(ir)
        runs.append((seed, ir, rfe, oracle, elapsed))
    return runs


def test_criterion_1_oracle_equivalence(crit1_runs):
    ok = True
    for seed, _, rfe, oracle, elapsed in crit1_runs:
        if rfe.status != oracle.status:
            ok = False
        elif rfe.status == "Optimal" and abs(rfe.objective - oracle.objective) > 1e-6:
            ok = False
        if elapsed >= 10.0:
            ok = False
    _report(1, "oracle equivalence on 50 random instances, <10 s each", ok)


def test_criterion_2_relaxation_validity(crit1_runs):
    ok = True
    rng = np.random.default_rng(99)
    # feasibility of lifted in-hull points: 1000 points on each of 10 instances
    for seed in range(10):
        ir = random_instance(seed + 500)
        milp = build_relaxation(ir)
        pos = {v.id: i for i, v in enumerate(ir.variables)}
        pts = 1000
        for _ in range(pts // 100):  # batched: 100 lifted points per batch
            for _ in range(100):
                z = np.zeros(milp.ncols)
                for v in ir.variables:
                    if v.kind == BINARY:
                        z[milp.ir.var_pos[v.id]] = 1.0
                for blk, itp in zip(milp.blocks, ir.interpolants):
                    x = [
                        rng.uniform(a[0], a[-1]) for a in itp.table.grid.axes
                    ]
                    for j, vid in enumerate(itp.inputs):
                        z[milp.ir.var_pos[vid]] = x[j]
                        xi = weights_1d(blk.grid.axes[j], x[j])
                        for k, c in enumerate(blk.xi_cols[j]):
                            z[c] = xi[k]
                        z[blk.seg_cols[j][find_segment(blk.grid.axes[j], x[j])]] = 1.0
                    for kidx, w in lambda_weights(blk.grid, x).items():
                        z[blk.lam_cols[blk.grid.flat_index(kidx)]] = w
                    z[milp.ir.var_pos[itp.output]] = interpolate(itp.table, x)
                n_user = len(ir.constraints)
                for row in milp.rows[: milp.nrows - n_user]:
                    lhs = sum(coef * z[c] for c, coef in row.terms)
                    viol = {
                        "<=": lhs - row.rhs,
                        ">=": row.rhs - lhs,
                        "=": abs(lhs - row.rhs),
                    }[row.sense]
                    if viol > 1e-9:
                        ok = False
    # bound validity: the MILP optimum never exceeds the true optimum
    for seed, ir, rfe, oracle, _ in crit1_runs:
        if oracle.status != "Optimal":
            continue
        milp = build_relaxation(ir)
        res = solve_milp(milp.to_lp(), milp.binary_cols())
        sign = -1.0 if ir.maximize else 1.0
        if res.status == "Optimal" and res.objective > sign * oracle.objective + 1e-6:
            ok = False
    _report(2, "relaxation rows hold to 1e-9; MILP bounds the optimum", ok)


def test_criterion_3_mccormick_coincidence():
    ok = True
    g = make_grid([[0.0, 1.0], [0.0, 1.0]])
    tab = product_table(g, (0, 1))
    variables = [
        VarRef(0, CONTINUOUS, 0, 1),
        VarRef(1, CONTINUOUS, 0, 1),
        VarRef(2, CONTINUOUS, -5, 5),
    ]
    ir = build_problem(
        variables, [], [InterpolantDef(tab, (0, 1), 2)], objective=[(1.0, 2)]
    )
    milp = build_relaxation(ir)
    rng = np.random.default_rng(42)
    for _ in range(20):
        xv, yv = rng.uniform(0, 1, 2)
        lo = np.array(milp.lo)
        hi = np.array(milp.hi)
        lo[milp.ir.var_pos[0]] = hi[milp.ir.var_pos[0]] = xv
        lo[milp.ir.var_pos[1]] = hi[milp.ir.var_pos[1]] = yv
        lp_min = milp.to_lp()
        res_min = solve_lp(dataclasses.replace(lp_min, lo=lo, hi=hi))
        lp_max = milp.to_lp()
        lp_max.obj = -lp_max.obj
        res_max = solve_lp(dataclasses.replace(lp_max, lo=lo, hi=hi))
        if abs(res_min.objective - max(0.0, xv + yv - 1.0)) > 1e-8:
            ok = False
        if abs(-res_max.objective - min(xv, yv)) > 1e-8:
            ok = False
    _report(3, "single-cell bilinear LP extremes equal McCormick envelopes", ok)


def test_criterion_4_trace_invariants(crit1_runs):
    ok = True
    for seed, ir, rfe, _, _ in crit1_runs:
        sign = -1.0 if ir.maximize else 1.0
        bounds = [sign * e["bound"] for e in rfe.log]
        if any(b2 < b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:])):
            ok = False
        incs = [sign * e["incumbent"] for e in rfe.log if e["incumbent"] is not None]
        if any(c2 > c1 + 1e-9 for c1, c2 in zip(incs, incs[1:])):
            ok = False
        fixings = [(e["fixing_segments"], e["fixing_y"]) for e in rfe.log]
        if len(fixings) != len(set(fixings)):
            ok = False
        total = 2 ** ir.num_binaries
        for itp in ir.interpolants:
            total *= itp.table.grid.num_cells
        if rfe.iterations > total:
            ok = False
    _report(4, "bounds monotone, incumbents monotone, fixings unique", ok)


def test_criterion_5_structural_sizes():
    variables = [VarRef(i, CONTINUOUS, 0.0, 1.0) for i in range(3)]
    variables += [
        VarRef(3, CONTINUOUS, -1e9, 1e9),
        VarRef(4, BINARY, 0.0, 1.0),
        VarRef(5, BINARY, 0.0, 1.0),
    ]
    grid = make_grid([np.linspace(0, 1, k) for k in (10, 20, 20)])
    tab = make_table(grid, np.zeros(grid.num_corners))
    ir = build_problem(
        variables,
        [],
        [InterpolantDef(tab, (0, 1, 2), 3, activation=4)],
        objective=[(1.0, 3)],
    )
    sz = problem_size(ir)
    ok = sz.n_xi == 50 and sz.n_lambda == 4000 and sz.n_y == 2
    ok = ok and [s.n_binaries for s in scenario_catalog()] == [
        2, 4, 6, 9, 11, 13, 16, 18, 20,
    ]
    _report(5, "grids (10,20,20): |xi|=50, |lambda|=4000, |y|=2; catalog |y| column", ok)


def test_criterion_6_interpolation_correctness():
    ok = True
    rng = np.random.default_rng(7)
    for t in range(20):
        n = int(rng.integers(1, 5))
        axes = []
        for _ in range(n):
            k = int(rng.integers(2, 5))
            a = np.sort(rng.uniform(-5, 5, k))
            while np.min(np.diff(a)) < 1e-3:
                a = np.sort(rng.uniform(-5, 5, k))
            axes.append(a)
        grid = make_grid(axes)
        table = make_table(grid, rng.normal(size=grid.num_corners))
        for _ in range(100):
            x = [rng.uniform(a[0], a[-1]) for a in grid.axes]
            a_val = interpolate(table, x)
            b_val = interpolate_recursive(table, x)
            if abs(a_val - b_val) > 1e-12 * max(1.0, abs(a_val)):
                ok = False
        # exact reproduction at every breakpoint
        for flat in range(grid.num_corners):
            k = np.unravel_index(flat, grid.shape)
            if interpolate(table, grid.corner(k)) != table.value_at(k):
                ok = False
    _report(6, "recursive vs product-sum agree to 1e-12; breakpoints exact", ok)


def test_criterion_7_exclusion_semantics():
    ok = True
    g = make_grid([[0.0, 0.5, 1.0]])  # two cells
    tab = make_table(g, [0.0, 1.0, 0.0])
    variables = [VarRef(0, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, -5, 5)]
    ir = build_problem(
        variables, [], [InterpolantDef(tab, (0,), 1)], objective=[(1.0, 1)]
    )
    milp = build_relaxation(ir)
    res1 = solve_milp(milp.to_lp(), milp.binary_cols())
    fix1 = extract_fixing(milp, res1.x)
    add_no_good_cut(milp, fix1)
    res2 = solve_milp(milp.to_lp(), milp.binary_cols())
    fix2 = extract_fixing(milp, res2.x)
    if res2.status != OPTIMAL or fix2.segments == fix1.segments:
        ok = False
    add_no_good_cut(milp, fix2)
    res3 = solve_milp(milp.to_lp(), milp.binary_cols())
    if res3.status != INFEASIBLE:
        ok = False
    # the driver turns MILP exhaustion into Optimal with the incumbent...
    if solve_rfe(ir).status != "Optimal":
        ok = False
    # ...and into Infeasible when no incumbent can exist
    from gridopt.model import LinConstraint

    ir_inf = build_problem(
        variables,
        [LinConstraint(((1.0, 1),), "<=", -1.0)],
        [InterpolantDef(tab, (0,), 1)],
        objective=[(1.0, 1)],
    )
    if solve_rfe(ir_inf).status != "Infeasible":
        ok = False
    _report(7, "two-cell exclude sequence; exhausted MILP certifies the result", ok)


def test_criterion_8_opo_end_to_end():
    inst = build_opo_instance(get_scenario("S1"), seed=3)
    t0 = time.monotonic()
    rfe = solve_rfe(inst.ir)
    oracle = solve_by_enumeration(inst.ir)
    elapsed = time.monotonic() - t0
    ok = (
        rfe.status == "Optimal"
        and oracle.status == "Optimal"
        and abs(rfe.objective - oracle.objective) <= 1e-6
        and elapsed < 60.0
    )
    # the all-closed point is feasible with objective zero
    x = {v.id: 0.0 for v in inst.ir.variables}
    for c in inst.ir.constraints:
        lhs = sum(coef * x[vid] for coef, vid in c.terms)
        feas = {
            "<=": lhs <= c.rhs + 1e-9,
            ">=": lhs >= c.rhs - 1e-9,
            "=": abs(lhs - c.rhs) <= 1e-9,
        }[c.sense]
        if not feas:
            ok = False
    if sum(coef * x[vid] for coef, vid in inst.ir.objective) != 0.0:
        ok = False
    _report(8, "desk-scale production instance: both engines agree in <60 s", ok)
