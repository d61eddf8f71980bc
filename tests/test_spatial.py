"""Global cell-restricted solver against sampling and closed-form oracles."""

import numpy as np
import pytest

from gridopt import rfe, spatial
from gridopt.gridtab import CellIndex, interpolate, make_grid, make_table, product_table
from gridopt.model import (
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.relax import BoxNlp, build_subproblem
from gridopt.simplex import INFEASIBLE, OPTIMAL
from gridopt.spatial import _Block, _prepare_blocks, solve_box_nlp

from _random_instances import random_instance


def _single_cell_nlp(table, constraints=(), objective=None, out_bounds=(-100, 100)):
    n = table.grid.n
    variables = [
        VarRef(j, CONTINUOUS, float(table.grid.axes[j][0]), float(table.grid.axes[j][-1]))
        for j in range(n)
    ]
    variables.append(VarRef(n, CONTINUOUS, *map(float, out_bounds)))
    ir = build_problem(
        variables,
        constraints,
        [InterpolantDef(table, tuple(range(n)), n)],
        objective=objective or [(1.0, n)],
    )
    lo = np.array([v.lo for v in ir.variables])
    hi = np.array([v.hi for v in ir.variables])
    return BoxNlp(ir, lo, hi, (CellIndex((0,) * n),))


def _unit_block(corners):
    """A block on the unit cell whose f is the multilinear form of the corners."""
    n = int(np.log2(len(corners)))
    return _Block(0, list(range(n)), n, np.zeros(n), np.ones(n), np.asarray(corners), 0, n)


def _monomials(corners, n):
    """Moebius inversion: the coefficient of prod_{j in S} theta_j per subset S."""
    return {
        S: sum((-1) ** bin(S & ~T).count("1") * corners[T] for T in range(1 << n) if T & ~S == 0)
        for S in range(1 << n)
    }


class TestMonomialExpansion:
    """The corner-weight evaluator equals the monomial form of the multilinear f."""

    def test_bilinear_expansion(self):
        # corners ordered by bitmask, bit j = axis j: v00, v10, v01, v11
        blk = _unit_block([1.0, 2.0, 3.0, 5.0])
        # f = 1 + (2-1)t0 + (3-1)t1 + (5-3-2+1) t0 t1
        rng = np.random.default_rng(3)
        for t0, t1 in np.vstack([[[0, 0], [1, 0], [0, 1], [1, 1]], rng.uniform(size=(10, 2))]):
            want = 1.0 + t0 + 2.0 * t1 + t0 * t1
            assert blk.f(np.array([t0, t1])) == pytest.approx(want, abs=1e-12)

    def test_expansion_reproduces_values(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            corners = rng.normal(size=1 << n)
            blk = _unit_block(corners)
            coef = _monomials(corners, n)
            for b in range(1 << n):
                theta = np.array([(b >> j) & 1 for j in range(n)], dtype=float)
                assert blk.f(theta) == pytest.approx(corners[b], abs=1e-12)
            thetas = rng.uniform(size=(10, n))
            want = [
                sum(c * np.prod([t[j] for j in range(n) if S >> j & 1]) for S, c in coef.items())
                for t in thetas
            ]
            np.testing.assert_allclose(blk.f(thetas), want, atol=1e-12)


class TestCornerEvaluator:
    def test_matches_interpolate(self):
        """f at theta equals the table's interpolant at the mapped point."""
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            g = make_grid([np.sort(rng.uniform(-5, 5, size=3)) for _ in range(n)])
            tab = make_table(g, rng.normal(size=g.num_corners))
            cell = CellIndex(tuple(int(t) for t in rng.integers(0, 2, size=n)))
            nlp = _single_cell_nlp(tab)
            (blk,), _ = _prepare_blocks(BoxNlp(nlp.ir, nlp.var_lo, nlp.var_hi, (cell,)))
            box_corners = [[(b >> j) & 1 for j in range(n)] for b in range(1 << n)]
            for theta in np.vstack([box_corners, rng.uniform(0, 1, size=(20, n))]):
                x = blk.a_lo + theta * blk.width
                assert blk.f(theta) == pytest.approx(interpolate(tab, x), abs=1e-12)
            # and many points at once
            thetas = rng.uniform(0, 1, size=(5, n))
            want = [interpolate(tab, blk.a_lo + t * blk.width) for t in thetas]
            np.testing.assert_allclose(blk.f(thetas), want, atol=1e-12)


class TestKnownOptima:
    def test_neg_bilinear_on_simplex(self):
        # min -x*y s.t. x + y <= 1 over the unit square: -1/4 at (1/2, 1/2)
        g = make_grid([[0.0, 1.0], [0.0, 1.0]])
        tab = make_table(g, -product_table(g, (0, 1)).values)
        nlp = _single_cell_nlp(
            tab, [LinConstraint(((1.0, 0), (1.0, 1)), "<=", 1.0)]
        )
        res = solve_box_nlp(nlp)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-0.25, abs=1e-7)
        assert res.x[0] == pytest.approx(0.5, abs=1e-4)

    def test_unconstrained_multilinear_attains_corner(self):
        # without linear rows, a multilinear minimum sits at a box corner
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            g = make_grid([[0.0, 1.0]] * n)
            vals = rng.normal(size=1 << n)
            tab = make_table(g, vals)
            res = solve_box_nlp(_single_cell_nlp(tab))
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(vals.min(), abs=1e-8)

    def test_pure_multilinear_cell_closes_at_root(self):
        """The node LP is the hull of f, so the root closes a cell with no rows."""
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            g = make_grid([[0.0, 1.0]] * n)
            for _ in range(20):
                vals = rng.normal(size=1 << n)
                res = solve_box_nlp(_single_cell_nlp(make_table(g, vals)))
                assert res.status == OPTIMAL
                assert res.nodes == 1
                assert res.objective == vals.min()

    def test_trilinear_constrained_vs_sampling(self):
        rng = np.random.default_rng(21)
        g = make_grid([[0.0, 1.0]] * 3)
        vals = rng.normal(size=8)
        tab = make_table(g, vals)
        nlp = _single_cell_nlp(
            tab, [LinConstraint(((1.0, 0), (1.0, 1), (1.0, 2)), "=", 1.5)]
        )
        res = solve_box_nlp(nlp)
        assert res.status == OPTIMAL
        best = np.inf
        N = 50
        for i in range(N + 1):
            for j in range(N + 1):
                x, y = i / N, j / N
                z = 1.5 - x - y
                if 0.0 <= z <= 1.0:
                    best = min(best, interpolate(tab, [x, y, z]))
        assert res.objective <= best + 1e-6  # true optimum below every sample
        assert res.objective >= best - 5e-3  # and near the finest sample


class TestMcCormickBound:
    def test_node_bound_below_sampled_values(self):
        """The root LP bound underestimates the function everywhere in the box."""
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            g = make_grid([[0.0, 1.0]] * n)
            tab = make_table(g, rng.normal(size=1 << n))
            res = solve_box_nlp(_single_cell_nlp(tab))
            pts = rng.uniform(0, 1, size=(200, n))
            vals = [interpolate(tab, p) for p in pts]
            assert res.objective <= min(vals) + 1e-8
            assert res.bound <= res.objective + 1e-6


class TestEdgeCases:
    def test_infeasible_bounds(self):
        g = make_grid([[0.0, 1.0]])
        tab = make_table(g, [0.0, 1.0])
        nlp = _single_cell_nlp(tab)
        nlp.var_lo[0], nlp.var_hi[0] = 0.8, 0.2
        assert solve_box_nlp(nlp).status == INFEASIBLE

    def test_infeasible_linear_rows(self):
        g = make_grid([[0.0, 1.0]])
        tab = make_table(g, [0.0, 1.0])
        nlp = _single_cell_nlp(tab, [LinConstraint(((1.0, 0),), ">=", 2.0)])
        assert solve_box_nlp(nlp).status == INFEASIBLE

    def test_output_bound_restricts(self):
        # forcing the output below the cell range is infeasible
        g = make_grid([[0.0, 1.0]])
        tab = make_table(g, [1.0, 2.0])
        nlp = _single_cell_nlp(tab, out_bounds=(-100.0, 0.5))
        nlp.var_lo[1], nlp.var_hi[1] = -100.0, 0.5
        assert solve_box_nlp(nlp).status == INFEASIBLE

    def test_inactive_interpolant_fixed_at_zero(self):
        g = make_grid([[0.0, 1.0]])
        tab = make_table(g, [5.0, 6.0])
        variables = [VarRef(0, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, -10, 10)]
        ir = build_problem(
            variables, [], [InterpolantDef(tab, (0,), 1)], objective=[(1.0, 1)]
        )
        lo = np.array([0.0, 0.0])
        hi = np.array([0.0, 0.0])
        nlp = BoxNlp(ir, lo, hi, (None,))
        res = solve_box_nlp(nlp)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_candidate_respects_output_bounds(self):
        # f reaches 2.5 and -3.9 at two corners, outside y's range [-0.5, 0.5];
        # pinning y to f(theta) regardless of that range once returned an
        # "optimal" y = 1.086 with objective -0.4106
        g = make_grid([[0.0, 1.0], [0.0, 1.0]])
        tab = make_table(g, [1.0, 2.5, 1.0, -3.9])
        nlp = _single_cell_nlp(
            tab, objective=[(0.9, 0), (0.4, 1), (-0.5, 2)], out_bounds=(-0.5, 0.5)
        )
        for res in (solve_box_nlp(nlp), rfe.solve_rfe(nlp.ir)):
            assert res.status == OPTIMAL
            x = res.x
            assert np.all(x >= nlp.var_lo - 1e-9) and np.all(x <= nlp.var_hi + 1e-9)
            assert x[2] == pytest.approx(interpolate(tab, x[:2]), abs=1e-9)
            assert res.objective == pytest.approx(0.9 * x[0] + 0.4 * x[1] - 0.5 * x[2])
            # the best point of a 401 x 401 grid of feasible inputs
            assert res.objective <= 0.2966 + 1e-6


class TestWarmNodeLps:
    def test_warm_nodes_match_cold_with_fewer_pivots(self, monkeypatch):
        """Every cell of the first random-pool instances, root LP cold in both runs.

        Only child node LPs, the ones the warm run starts from a parent basis,
        count towards the pivots: the cold roots would otherwise dominate the
        sum, since most cells close at the root.
        """
        solve_lp = spatial.solve_lp
        cold = [False]
        node_lps = [0]  # node LPs of the current solve; the first is the root
        pivots = {False: 0, True: 0}  # child node LPs only, by cold

        def counted(lp, *args, **kwargs):
            node_lp = "basis" in kwargs
            child_lp = node_lp and node_lps[0] > 0
            node_lps[0] += node_lp
            if cold[0]:
                kwargs.pop("basis", None)
            res = solve_lp(lp, *args, **kwargs)
            if child_lp:
                pivots[cold[0]] += res.iterations
            return res

        def solve(nlp, as_cold):
            cold[0] = as_cold
            node_lps[0] = 0
            return solve_box_nlp(nlp)

        monkeypatch.setattr(spatial, "solve_lp", counted)
        cells = 0
        for seed in range(12):
            ir = random_instance(seed)
            for fixing in rfe._enumerate_fixings(ir, rfe.ENUM_LIMIT):
                nlp = build_subproblem(ir, fixing)
                ref = solve(nlp, True)
                got = solve(nlp, False)
                assert got.status == ref.status
                if ref.status == OPTIMAL:
                    assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
                cells += 1
        assert cells > 100
        assert pivots[False] < 0.7 * pivots[True], pivots
