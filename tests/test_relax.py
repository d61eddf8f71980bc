"""The MILP relaxation: validity, tightness, fixing, and cuts."""

import dataclasses

import numpy as np
import pytest

from gridopt import rfe
from gridopt.bnb import solve_milp
from gridopt.gridtab import find_segment, make_grid, make_table
from gridopt.model import (
    BINARY,
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.relax import (
    add_no_good_cut,
    build_relaxation,
    build_subproblem,
    extract_fixing,
)
from gridopt.simplex import INFEASIBLE, OPTIMAL, solve_lp

from _oracles import lambda_weights, problem_size, weights_1d
from _random_instances import random_instance


def lift_point(milp, ir, x_by_pos):
    """Embed a feasible point of the original problem into relaxation space."""
    pos = {v.id: i for i, v in enumerate(ir.variables)}
    z = np.zeros(milp.ncols)
    for v in ir.variables:
        z[milp.ir.var_pos[v.id]] = x_by_pos[pos[v.id]]
    for blk, itp in zip(milp.blocks, ir.interpolants):
        if blk.activation_col is not None and z[blk.activation_col] < 0.5:
            continue
        pt = [x_by_pos[pos[v]] for v in itp.inputs]
        for j in range(blk.grid.n):
            xi = weights_1d(blk.grid.axes[j], pt[j])
            for k, c in enumerate(blk.xi_cols[j]):
                z[c] = xi[k]
            z[blk.seg_cols[j][find_segment(blk.grid.axes[j], pt[j])]] = 1.0
        for kidx, w in lambda_weights(blk.grid, pt).items():
            z[blk.lam_cols[blk.grid.flat_index(kidx)]] = w
    return z


def row_violation(row, z):
    lhs = sum(coef * z[c] for c, coef in row.terms)
    if row.sense == "<=":
        return lhs - row.rhs
    if row.sense == ">=":
        return row.rhs - lhs
    return abs(lhs - row.rhs)


class TestRelaxationValidity:
    @pytest.mark.parametrize("seed", range(10))
    def test_lifted_feasible_points_satisfy_all_rows(self, seed):
        """Every in-hull point of the original problem satisfies the lifted rows."""
        rng = np.random.default_rng(seed + 1000)
        ir = random_instance(seed)
        milp = build_relaxation(ir)
        pos = {v.id: i for i, v in enumerate(ir.variables)}
        for _ in range(100):
            x = np.zeros(len(ir.variables))
            for v in ir.variables:
                if v.kind == BINARY:
                    x[pos[v.id]] = 1.0
            from gridopt.gridtab import interpolate

            for itp in ir.interpolants:
                pt = []
                for j, vid in enumerate(itp.inputs):
                    a = itp.table.grid.axes[j]
                    pt.append(rng.uniform(a[0], a[-1]))
                    x[pos[vid]] = pt[-1]
                x[pos[itp.output]] = interpolate(itp.table, pt)
            z = lift_point(milp, ir, x)
            # interpolation-block rows only; the instance's own linear rows
            # transfer unchanged and are not part of the lifting claim
            n_user = len(ir.constraints)
            for row in milp.rows[: milp.nrows - n_user]:
                assert row_violation(row, z) <= 1e-9


class TestEnvelopeTightness:
    def test_bilinear_lp_extremes_match_mccormick(self):
        """Single-cell bilinear tables: the weight polytope is the McCormick hull."""
        g = make_grid([[0.0, 1.0], [0.0, 1.0]])
        from gridopt.gridtab import product_table

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
        rng = np.random.default_rng(9)
        x_col = milp.ir.var_pos[0]
        y_col = milp.ir.var_pos[1]
        for _ in range(20):
            xv, yv = rng.uniform(0, 1, 2)
            lo = np.array(milp.lo)
            hi = np.array(milp.hi)
            lo[x_col] = hi[x_col] = xv
            lo[y_col] = hi[y_col] = yv
            lp = milp.to_lp()
            for sign, mccormick in (
                (1.0, max(0.0, xv + yv - 1.0)),  # envelope floor
                (-1.0, min(xv, yv)),  # envelope ceiling
            ):
                lp2 = milp.to_lp()
                lp2.obj = sign * lp2.obj
                res = solve_lp(dataclasses.replace(lp2, lo=lo, hi=hi))
                assert res.status == OPTIMAL
                assert sign * res.objective == pytest.approx(mccormick, abs=1e-8)


class TestFixingAndSubproblem:
    def _toy(self):
        g = make_grid([[0.0, 0.5, 1.0]])
        tab = make_table(g, [0.0, -1.0, 3.0])
        variables = [
            VarRef(0, CONTINUOUS, 0, 1),
            VarRef(1, CONTINUOUS, -5, 5),
            VarRef(2, BINARY, 0, 1),
        ]
        ir = build_problem(
            variables,
            [LinConstraint(((1.0, 1), (1.0, 2)), ">=", -2.0)],
            [InterpolantDef(tab, (0,), 1)],
            objective=[(1.0, 1), (0.5, 2)],
        )
        return ir

    def test_extract_and_subproblem_bounds(self):
        ir = self._toy()
        milp = build_relaxation(ir)
        res = solve_milp(milp.to_lp(), milp.binary_cols())
        assert res.status == OPTIMAL
        fixing = extract_fixing(milp, res.x)
        assert fixing.segments == ((0,),)  # minimum at the x = 0.5 breakpoint
        sub = build_subproblem(ir, fixing)
        pos = {v.id: i for i, v in enumerate(ir.variables)}
        assert sub.var_lo[pos[0]] == 0.0 and sub.var_hi[pos[0]] == 0.5
        # output clipped to cell corner range
        assert sub.var_lo[pos[1]] == -1.0 and sub.var_hi[pos[1]] == 0.0
        # binary pinned
        assert sub.var_lo[pos[2]] == sub.var_hi[pos[2]] == fixing.y[0]

    def test_inactive_interpolant_zeroed(self):
        g = make_grid([[0.5, 1.0]])
        tab = make_table(g, [1.0, 2.0])
        variables = [
            VarRef(0, CONTINUOUS, 0, 1),
            VarRef(1, CONTINUOUS, -5, 5),
            VarRef(2, BINARY, 0, 1),
        ]
        ir = build_problem(
            variables, [], [InterpolantDef(tab, (0,), 1, 2)], objective=[(1.0, 1)]
        )
        milp = build_relaxation(ir)
        res = solve_milp(milp.to_lp(), milp.binary_cols())
        fixing = extract_fixing(milp, res.x)
        if fixing.segments[0] is None:
            sub = build_subproblem(ir, fixing)
            assert sub.var_lo[0] == sub.var_hi[0] == 0.0
            assert sub.var_lo[1] == sub.var_hi[1] == 0.0


class TestNoGoodCut:
    def test_two_cell_exclusion_sequence(self):
        """Excluding each cell in turn drains the MILP to infeasibility."""
        g = make_grid([[0.0, 0.5, 1.0]])
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
        assert res2.status == OPTIMAL
        fix2 = extract_fixing(milp, res2.x)
        assert fix2.segments[0] != fix1.segments[0]
        assert {fix1.segments[0], fix2.segments[0]} == {(0,), (1,)}
        add_no_good_cut(milp, fix2)
        res3 = solve_milp(milp.to_lp(), milp.binary_cols())
        assert res3.status == INFEASIBLE
        assert len(milp.cuts) == 2

    def test_cut_excludes_point_within_row_tolerance(self):
        """The fixing follows the segment binaries, which the cut is written on.

        The point sets the binary of segment 1 and puts weight 5e-8 on the
        breakpoint outside it, within the simplex's 1e-7 row tolerance. A
        fixing read from the weights' support would be segment 0, and its cut
        would leave the point feasible.
        """
        g = make_grid([[0.0, 0.5, 1.0]])
        tab = make_table(g, [0.0, 1.0, 0.0])
        variables = [VarRef(0, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, -5, 5)]
        ir = build_problem(
            variables, [], [InterpolantDef(tab, (0,), 1)], objective=[(1.0, 1)]
        )
        milp = build_relaxation(ir)
        (blk,) = milp.blocks
        xi = np.array([5e-8, 1.0 - 5e-8, 0.0])
        z = np.zeros(milp.ncols)
        z[blk.xi_cols[0]] = xi
        z[blk.lam_cols] = xi
        z[blk.seg_cols[0][1]] = 1.0
        z[milp.ir.var_pos[0]] = xi @ g.axes[0]
        z[milp.ir.var_pos[1]] = xi @ tab.values
        assert max(row_violation(row, z) for row in milp.rows) <= 1e-7
        fixing = extract_fixing(milp, z)
        assert fixing.segments == ((1,),)
        cut = milp.rows[add_no_good_cut(milp, fixing)]
        assert row_violation(cut, z) >= 1.0 - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_every_rfe_cut_excludes_its_milp_point(self, seed, monkeypatch):
        """Each RFE round's cut excludes that round's MILP point.

        The cut is built on a copy of the model, so a round that closes the
        search without adding its cut is checked too.
        """
        violations = []

        def extract(milp, x):
            fixing = extract_fixing(milp, x)
            trial = dataclasses.replace(milp, rows=list(milp.rows), cuts=[])
            violations.append(row_violation(trial.rows[add_no_good_cut(trial, fixing)], x))
            return fixing

        monkeypatch.setattr(rfe, "extract_fixing", extract)
        assert rfe.solve_rfe(random_instance(seed)).status == OPTIMAL
        assert violations and min(violations) >= 1.0 - 1e-9

    def test_cut_preserves_other_assignments(self):
        ir = random_instance(3)
        milp = build_relaxation(ir)
        res = solve_milp(milp.to_lp(), milp.binary_cols())
        if res.status != OPTIMAL:
            pytest.skip("instance infeasible")
        fixing = extract_fixing(milp, res.x)
        add_no_good_cut(milp, fixing)
        res2 = solve_milp(milp.to_lp(), milp.binary_cols())
        if res2.status == OPTIMAL:
            assert extract_fixing(milp, res2.x) != fixing
            # bound can only move toward the true optimum (here: minimum)
            assert res2.objective >= res.objective - 1e-9


class TestSizeAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_built_model_matches_size_record(self, seed):
        ir = random_instance(seed)
        sz = problem_size(ir)
        milp = build_relaxation(ir)
        assert (milp.ncols, milp.nrows, milp.nonzeros) == (sz.cols, sz.rows, sz.nonzeros)


def _shuffled_ids_ir():
    """Variable ids out of declaration order, so an id is not its position."""
    g = make_grid([[0.0, 0.5, 1.0]])
    return build_problem(
        [
            VarRef(7, CONTINUOUS, 0.0, 1.0, "x"),
            VarRef(3, BINARY, 0.0, 1.0),
            VarRef(5, CONTINUOUS, -5.0, 5.0, "y"),
        ],
        [
            LinConstraint(((1.0, 5), (2.0, 3)), "<=", 4.0, "cap"),
            LinConstraint(((-1.0, 7), (0.5, 5)), ">=", -3.0),
        ],
        [InterpolantDef(make_table(g, [0.0, -1.0, 3.0]), (7,), 5, 3)],
        objective=[(1.0, 5), (0.5, 3)],
    )


class TestIrColumnsAndRows:
    """The relaxation's IR columns and rows are the IR's, by variable position."""

    @pytest.mark.parametrize("make", [_shuffled_ids_ir, lambda: random_instance(4)])
    def test_ir_columns_and_rows_are_the_irs(self, make):
        ir = make()
        milp = build_relaxation(ir)
        for v in ir.variables:
            j = ir.var_pos[v.id]
            assert milp.names[j] == (v.name or f"v{v.id}")
            assert (milp.lo[j], milp.hi[j]) == (v.lo, v.hi)
            assert milp.is_binary[j] == (v.kind == BINARY)
        m = len(ir.rows)
        assert m == len(ir.constraints) > 0
        tail = milp.rows[milp.nrows - m :]  # after the interpolant rows
        for row, (terms, sense, rhs), c in zip(tail, ir.rows, ir.constraints):
            assert row.terms == list(terms)
            assert (row.sense, row.rhs, row.name) == (sense, rhs, c.name)
        assert all(r.name.startswith(("link", "conv", "marg", "seg", "sos", "out"))
                   for r in milp.rows[: milp.nrows - m])
