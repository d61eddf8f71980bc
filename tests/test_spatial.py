"""Global cell-restricted solver against sampling and closed-form oracles."""

import time

import numpy as np
import pytest

from gridopt import rfe, spatial
from gridopt.bnb import TIME_LIMIT, prune_level, solve_milp
from gridopt.gridtab import interpolate, make_grid, make_table, product_table
from gridopt.model import (
    CONTINUOUS,
    EQ,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.relax import CellBlock, Fixing, build_relaxation, build_subproblem, extract_fixing
from gridopt.simplex import (
    FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpBasis, LpProblem, dual_bound, solve_lp,
)
from gridopt.spatial import (
    GAP,
    NODE_LIMIT,
    _node_lp,
    _pinned_step,
    _rows_exclude_box,
    _split,
    _write_box,
    solve_box_nlp,
)

from _clock import Clock
from _random_instances import cut_instance, random_instance


def _fixing(*segments):
    """A fixing of the given per-interpolant segments on an IR without binaries."""
    return Fixing(segments=segments, y=())


def _single_cell_nlp(table, constraints=(), objective=None, out_bounds=(-100, 100), cell=None):
    """One interpolant over all of its table, confined to ``cell`` (default the first)."""
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
    return build_subproblem(ir, _fixing(cell or (0,) * n))


def _unit_block(corners):
    """A block on the unit cell whose f is the multilinear form of the corners."""
    n = int(np.log2(len(corners)))
    return CellBlock(list(range(n)), n, np.zeros(n), np.ones(n), np.asarray(corners), n)


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
        """f at the inputs equals the table's interpolant there."""
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            g = make_grid([np.sort(rng.uniform(-5, 5, size=3)) for _ in range(n)])
            tab = make_table(g, rng.normal(size=g.num_corners))
            cell = tuple(int(t) for t in rng.integers(0, 2, size=n))
            (blk,) = _single_cell_nlp(tab, cell=cell).blocks
            box_corners = [[(b >> j) & 1 for j in range(n)] for b in range(1 << n)]
            for theta in np.vstack([box_corners, rng.uniform(0, 1, size=(20, n))]):
                x = blk.a_lo + theta * blk.width
                assert blk.f(x) == pytest.approx(interpolate(tab, x), abs=1e-12)
            # and many points at once
            xs = blk.a_lo + rng.uniform(0, 1, size=(5, n)) * blk.width
            want = [interpolate(tab, x) for x in xs]
            np.testing.assert_allclose(blk.f(xs), want, atol=1e-12)


def _two_blocks():
    """Two blocks with f = x0 * x1 on unit cells; x = (a0, a1, ya, b0, b1, yb)."""
    corners = np.array([0.0, 0.0, 0.0, 1.0])
    return [
        CellBlock([0, 1], 2, np.zeros(2), np.ones(2), corners, 2),
        CellBlock([3, 4], 5, np.zeros(2), np.ones(2), corners, 2),
    ]


def _box(inputs_lo, inputs_hi):
    """The variable box with the four inputs (a0, a1, b0, b1) bounded as given."""
    return np.insert(inputs_lo, [2, 4], 0.0), np.insert(inputs_hi, [2, 4], 1.0)


def _node_point(ta, va, tb, vb):
    """LP point with inputs ta, tb and outputs f(ta) + va, f(tb) + vb."""
    return np.array([*ta, ta[0] * ta[1] + va, *tb, tb[0] * tb[1] + vb])


class TestBranchingRule:
    def test_largest_violation_widest_coordinate_at_lp_theta(self):
        blocks = _two_blocks()
        x = _node_point((0.5, 0.5), 0.1, (0.3, 0.6), -0.3)
        lo, hi = _box(np.zeros(4), np.array([1.0, 1.0, 0.5, 1.0]))
        assert _split(blocks, x, [None, None], lo, hi) == (4, pytest.approx(0.6))
        # the other block once its violation is the larger one
        x = _node_point((0.5, 0.4), -0.4, (0.3, 0.6), 0.3)
        assert _split(blocks, x, [None, None], lo, hi) == (0, pytest.approx(0.5))

    def test_widest_in_cell_units(self):
        """An input's interval counts in widths of its cell axis."""
        blocks = _two_blocks()
        blocks[1].width = np.array([1.0, 4.0])
        blocks[1].corners = np.array([0.0, 0.0, 0.0, 4.0])  # still f = b0 * b1
        x = _node_point((0.5, 0.5), 0.0, (0.3, 0.6), 0.2)
        # b1's interval is the wider in x, b0's in cell widths
        lo, hi = _box(np.zeros(4), np.array([1.0, 1.0, 0.8, 2.0]))
        assert _split(blocks, x, [None, None], lo, hi) == (3, pytest.approx(0.3))

    def test_split_clamped_to_middle_of_interval(self):
        blocks = _two_blocks()
        lo, hi = _box(np.array([0.0, 0.0, 0.2, 0.2]), np.array([1.0, 1.0, 0.5, 0.7]))
        # interval [0.2, 0.7]: the split stays in [0.3, 0.6]
        for tb1, want in ((0.68, 0.6), (0.21, 0.3), (0.45, 0.45)):
            x = _node_point((0.5, 0.5), 0.0, (0.3, tb1), 0.2)
            assert _split(blocks, x, [None, None], lo, hi) == (4, pytest.approx(want))

    def test_ties_go_to_lowest_block_and_coordinate(self):
        blocks = _two_blocks()
        lo, hi = _box(np.zeros(4), np.ones(4))
        x = _node_point((0.3, 0.6), 0.2, (0.3, 0.6), 0.2)
        assert _split(blocks, x, [None, None], lo, hi) == (0, pytest.approx(0.3))
        x = _node_point((0.3, 0.6), 0.0, (0.3, 0.6), 0.2)
        assert _split(blocks, x, [None, None], lo, hi) == (3, pytest.approx(0.3))

    def test_narrow_block_passed_over(self):
        blocks = _two_blocks()
        x = _node_point((0.3, 0.6), 0.1, (0.3, 0.6), 0.2)
        lo, hi = _box(
            np.array([0.0, 0.0, 0.3, 0.6]),
            np.array([1.0, 1.0, 0.3, 0.6]) + 0.5 * spatial.MIN_BOX_WIDTH,
        )
        assert _split(blocks, x, [None, None], lo, hi) == (0, pytest.approx(0.3))
        hi[:2] = lo[:2] = (0.3, 0.6)
        assert _split(blocks, x, [None, None], lo, hi) is None


def _shared_input_nlp():
    """x0 feeds both f_a = x0 * x1 and f_b = x0 * x2 on the unit cube; max f_a + f_b."""
    g = make_grid([[0.0, 1.0], [0.0, 1.0]])
    tab = product_table(g, (0, 1))
    ir = build_problem(
        [VarRef(j, CONTINUOUS, 0.0, 1.0) for j in range(5)],
        [],
        [InterpolantDef(tab, (0, 1), 3), InterpolantDef(tab, (0, 2), 4)],
        objective=[(-1.0, 3), (-1.0, 4)],
    )
    return build_subproblem(ir, _fixing((0, 0), (0, 0)))


class TestSharedInput:
    def test_one_split_narrows_every_hull_reading_the_input(self):
        nlp = _shared_input_nlp()
        blocks = nlp.blocks
        lp = _write_box(_node_lp(nlp), blocks, nlp.var_lo, nlp.var_hi)
        assert solve_lp(lp).objective == pytest.approx(-2.0)
        hi = nlp.var_hi.copy()
        hi[0] = 0.5  # the lower child of a split on x0
        child = solve_lp(_write_box(lp, blocks, nlp.var_lo, hi))
        # both hulls see x0 <= 0.5; narrowing one interpolant's copy of x0
        # alone would leave the bound at -1.5
        assert child.objective == pytest.approx(-1.0)
        assert max(child.x[3], child.x[4]) <= 0.5 + 1e-9


class TestOneFCallPerBlock:
    """The exact check and the split read each block's f at the node LP
    point from one evaluation, where the exact check's clipping moved
    nothing."""

    def _root(self):
        nlp = _shared_input_nlp()
        lp = _write_box(_node_lp(nlp), nlp.blocks, nlp.var_lo, nlp.var_hi)
        return nlp, lp, solve_lp(lp).x

    def test_each_block_is_evaluated_once(self, monkeypatch):
        nlp, lp, x = self._root()
        f = CellBlock.f
        calls = []
        monkeypatch.setattr(CellBlock, "f", lambda blk, at: calls.append(1) or f(blk, at))
        fx = [None, None]
        assert spatial._exact_candidate(nlp, lp, x, fx) is not None
        _split(nlp.blocks, x, fx, nlp.var_lo, nlp.var_hi)
        assert len(calls) == 2

    def test_a_clipped_input_is_evaluated_apart(self):
        nlp, lp, x = self._root()
        x[0] += 1e-12  # above its bound 1: the exact check clips it back
        fx = [None, None]
        cand, _ = spatial._exact_candidate(nlp, lp, x, fx)
        assert cand[3] == cand[4] == 1.0  # f at the clipped inputs (1, 1)
        _split(nlp.blocks, x, fx, nlp.var_lo, nlp.var_hi)
        assert fx == [float(blk.f(x[blk.input_pos])) for blk in nlp.blocks]
        assert fx[0] > 1.0  # f at x's own inputs


    def test_the_repair_reads_them_too(self, desk_s2_first_cell, monkeypatch):
        # a root LP point that is no candidate: the repair pins every block at
        # f there, and the split reads the same evaluations
        nlp = desk_s2_first_cell
        lp = _write_box(_node_lp(nlp), nlp.blocks, nlp.var_lo, nlp.var_hi)
        x = solve_lp(lp).x
        f = CellBlock.f
        points = []
        monkeypatch.setattr(CellBlock, "f", lambda blk, at: points.append(at.ndim) or f(blk, at))
        fx = [None] * len(nlp.blocks)
        assert spatial._exact_candidate(nlp, lp, x, fx) is None
        spatial._repair(nlp, lp, x, nlp.var_lo, nlp.var_hi, fx, np.inf)
        _split(nlp.blocks, x, fx, nlp.var_lo, nlp.var_hi)
        assert points == [1] * len(nlp.blocks)


DESK_S2_FIRST_CELL_OPT = -219.02002935708694  # minimization sense


@pytest.fixture(scope="module")
def desk_s2_first_cell():
    """The subproblem of the first RFE round on desk S2 seed 0."""
    ir = build_opo_instance(get_scenario("S2", "desk"), 0).ir
    milp = build_relaxation(ir)
    mres = solve_milp(milp.to_lp(), milp.binary_cols())
    return build_subproblem(ir, extract_fixing(milp, mres.x))


class TestDeskCell:
    def test_closes_in_few_nodes(self, desk_s2_first_cell):
        res = solve_box_nlp(desk_s2_first_cell)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(DESK_S2_FIRST_CELL_OPT, rel=1e-8)
        # 375 nodes when the widest theta interval was split at its midpoint
        assert res.nodes <= 100

    @pytest.mark.parametrize("limit", [1, 3, 5])
    def test_node_limit_keeps_bound(self, desk_s2_first_cell, limit, monkeypatch):
        monkeypatch.setattr(spatial, "MAX_NODES", limit)
        res = solve_box_nlp(desk_s2_first_cell)
        assert res.status == NODE_LIMIT
        assert res.bound <= DESK_S2_FIRST_CELL_OPT + 1e-6
        assert res.x is None or res.objective >= res.bound

    @pytest.mark.parametrize("limit", [0, 1, 3, 5])
    def test_deadline_keeps_bound(self, desk_s2_first_cell, limit, monkeypatch):
        # the clock moves one second as each box is written, just before its
        # node LP, so a deadline of limit + 0.5 lets exactly ``limit`` node
        # LPs run; the whole subproblem once ran past it
        Clock(monkeypatch).tick_on(spatial, "_write_box")
        res = solve_box_nlp(desk_s2_first_cell, deadline=limit + 0.5)
        assert res.status == TIME_LIMIT
        assert res.nodes == limit
        assert res.bound <= DESK_S2_FIRST_CELL_OPT + 1e-6
        assert np.isfinite(res.bound) == (limit > 0)  # the root LP bounds every box
        assert res.x is None or res.objective >= res.bound

    def test_exhausted_box_keeps_bound(self, desk_s2_first_cell, monkeypatch):
        monkeypatch.setattr(spatial, "MIN_BOX_WIDTH", 2.0)  # no box can be split
        res = solve_box_nlp(desk_s2_first_cell)
        assert res.status == NODE_LIMIT
        assert res.nodes == 1
        assert res.bound <= DESK_S2_FIRST_CELL_OPT + 1e-6


class TestCutoff:
    """``cutoff`` is the caller's incumbent: ``Infeasible`` means that
    nothing in the cell beats it."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(spatial, "solve_lp", counted)
        return calls

    @pytest.mark.parametrize("limit", ["MAX_NODES", "MIN_BOX_WIDTH"])
    def test_a_floor_at_the_cutoff_level_is_no_limit(self, desk_s2_first_cell, limit, monkeypatch):
        # one node LP, or no box that can be split: the root's bound is the
        # floor, and without a cutoff the cell is NodeLimit
        monkeypatch.setattr(spatial, limit, {"MAX_NODES": 1, "MIN_BOX_WIDTH": 2.0}[limit])
        alone = solve_box_nlp(desk_s2_first_cell)
        assert alone.status == NODE_LIMIT and alone.bound < DESK_S2_FIRST_CELL_OPT
        res = solve_box_nlp(desk_s2_first_cell, cutoff=alone.bound)  # the floor is above its level
        assert res.status == INFEASIBLE and res.x is None and res.nodes == 1
        res = solve_box_nlp(desk_s2_first_cell, cutoff=alone.bound + 1.0)
        assert res.status == NODE_LIMIT and res.bound == alone.bound

    def test_candidates_at_or_above_the_cutoff_are_not_taken(self, desk_s2_first_cell):
        alone = solve_box_nlp(desk_s2_first_cell)
        res = solve_box_nlp(desk_s2_first_cell, cutoff=alone.objective)
        assert res.status == INFEASIBLE and res.x is None and res.objective == np.inf
        assert 0 < res.nodes <= alone.nodes
        res = solve_box_nlp(desk_s2_first_cell, cutoff=alone.objective + 1.0)
        assert res.status == OPTIMAL and res.objective == alone.objective

    def test_the_dual_screen_closes_a_root_with_no_lp(self, desk_s2_first_cell, lp_calls):
        nlp = desk_s2_first_cell
        basis = solve_box_nlp(nlp).root_basis
        root_lp = _write_box(_node_lp(nlp), nlp.blocks, nlp.var_lo, nlp.var_hi)
        bound = dual_bound(root_lp, basis.duals)
        assert bound <= DESK_S2_FIRST_CELL_OPT
        lp_calls.clear()
        res = solve_box_nlp(nlp, basis=basis, cutoff=bound)
        assert (res.status, res.nodes, res.root_basis, len(lp_calls)) == (INFEASIBLE, 0, None, 0)
        # a cutoff whose level the bound misses, no cutoff, and duals over
        # other rows: the root LP runs
        no_duals = LpBasis(basis.basis, basis.vstat, basis.duals[:-1])
        for start, cutoff in ((basis, bound + 1.0), (basis, np.inf), (no_duals, bound)):
            lp_calls.clear()
            res = solve_box_nlp(nlp, basis=start, cutoff=cutoff)
            assert res.nodes > 0 and len(lp_calls) >= res.nodes

    def test_closed_cells_hold_nothing_below_the_cutoff(self, monkeypatch):
        """Every cell that enumerating desk S1-0 and pool seeds 0-19 closes
        ``Infeasible`` under a finite cutoff, by the dual screen or by the
        search, solved alone with no cutoff and no basis, is infeasible or
        has its optimum at or above the cutoff's prune level."""
        closed = []  # (subproblem, cutoff, nodes) of each such cell

        def spy(nlp, *args, cutoff=np.inf, **kwargs):
            res = solve_box_nlp(nlp, *args, cutoff=cutoff, **kwargs)
            if res.status == INFEASIBLE and np.isfinite(cutoff):
                closed.append((nlp, cutoff, res.nodes))
            return res

        monkeypatch.setattr(rfe, "solve_box_nlp", spy)
        irs = [build_opo_instance(get_scenario("S1", "desk"), 0).ir]
        irs += [random_instance(s) for s in range(20)]
        for ir in irs:
            rfe.solve_by_enumeration(ir)
        by_dual_screen = by_search = 0
        for nlp, cutoff, nodes in closed:
            rows_closed = _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi)
            by_dual_screen += nodes == 0 and not rows_closed
            by_search += nodes > 0
            alone = solve_box_nlp(nlp)
            assert alone.status == INFEASIBLE or alone.objective >= prune_level(cutoff, GAP)
        assert by_dual_screen > 0 and by_search > 0


def _node_lp_from_rows(nlp):
    """``spatial._node_lp`` through ``LpProblem.from_rows``: the IR's rows,
    then per block one row per input, the weights' sum and the output row."""
    ir = nlp.ir
    n = len(ir.variables)
    rows = list(ir.rows)
    col = n
    for blk in nlp.blocks:
        lam = range(col, col + (1 << blk.n))
        rows += [([(p, 1.0)], EQ, 0.0) for p in blk.input_pos]
        rows.append(([(c, 1.0) for c in lam], EQ, 1.0))
        rows.append(([(blk.output_pos, 1.0)], EQ, 0.0))
        col += len(lam)
    obj = np.zeros(col)
    for cf, v in ir.objective:
        obj[ir.var_pos[v]] += cf
    lo = np.append(np.full(n, np.nan), np.zeros(col - n))
    hi = np.append(np.full(n, np.nan), np.ones(col - n))
    return LpProblem.from_rows(col, obj, lo, hi, rows)


class TestNodeLp:
    """One node LP per subproblem, with each popped box written into it."""

    def test_box_written_over_another_equals_a_fresh_write(self):
        nlp = _shared_input_nlp()
        lo_a, hi_a = nlp.var_lo.copy(), nlp.var_hi.copy()
        hi_a[0] = 0.5
        lo_b, hi_b = nlp.var_lo.copy(), nlp.var_hi.copy()
        lo_b[0], hi_b[1], lo_b[2] = 0.25, 0.75, 0.4
        reused = _write_box(_node_lp(nlp), nlp.blocks, lo_a, hi_a)
        assert solve_lp(reused).status == OPTIMAL
        reused = _write_box(reused, nlp.blocks, lo_b, hi_b)
        fresh = _write_box(_node_lp(nlp), nlp.blocks, lo_b, hi_b)
        for name in ("A", "lo", "hi"):
            np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name))
        assert np.any(reused.A != _node_lp(nlp).A)  # the corners were written

    def test_box_writes_leave_the_ir_rows_as_built(self, desk_s2_first_cell):
        # the exact check and every pinned step read the IR's rows and
        # objective from the node LP's first rows and columns
        nlp = desk_s2_first_cell
        ir = nlp.ir
        n, m = len(ir.variables), len(ir.rows)
        obj = np.zeros(n)
        for cf, v in ir.objective:
            obj[ir.var_pos[v]] += cf
        want = LpProblem.from_rows(n, obj, nlp.var_lo, nlp.var_hi, ir.rows)
        lp = _node_lp(nlp)
        hi = nlp.var_hi.copy()
        p = nlp.blocks[0].input_pos[0]
        hi[p] = 0.5 * (nlp.var_lo[p] + hi[p])
        written = []
        for box_hi in (nlp.var_hi, hi):
            lp = _write_box(lp, nlp.blocks, nlp.var_lo, box_hi)
            written.append(lp.A)
            np.testing.assert_array_equal(lp.A[:m, :n], want.A)
            np.testing.assert_array_equal(lp.A[:m, n:], 0.0)
            np.testing.assert_array_equal(lp.rhs[:m], want.rhs)
            assert lp.senses[:m] == want.senses
            np.testing.assert_array_equal(lp.obj[:n], want.obj)
        assert m > 0 and np.any(written[0] != written[1])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_opo_instance(get_scenario("S1", "desk"), 0).ir,
            lambda: build_opo_instance(get_scenario("S2", "desk"), 2).ir,
            lambda: cut_instance(0),
        ]
        + [lambda s=s: random_instance(s) for s in range(20)],
        ids=["desk-S1-0", "desk-S2-2", "cut-0"] + [f"pool-{s}" for s in range(20)],
    )
    def test_equals_a_build_from_rows(self, make):
        """The node LP, written with index writes, is the LP that
        ``LpProblem.from_rows`` makes of its rows, on about 40 cells spread
        over the instance's enumeration."""
        ir = make()
        fixings = rfe._enumerate_fixings(ir)
        for fixing in fixings[:: max(1, len(fixings) // 40)]:
            nlp = build_subproblem(ir, fixing)
            got, want = _node_lp(nlp), _node_lp_from_rows(nlp)
            for name in ("A", "rhs", "obj", "lo", "hi"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.senses == want.senses

    def test_built_once_per_subproblem_that_reaches_an_lp(self, desk_s2_first_cell, monkeypatch):
        built = []
        node_lp = spatial._node_lp

        def counted(*args):
            built.append(1)
            return node_lp(*args)

        monkeypatch.setattr(spatial, "_node_lp", counted)
        res = solve_box_nlp(desk_s2_first_cell)
        assert res.nodes > 1 and len(built) == 1
        g = make_grid([[0.0, 1.0]])
        screened = _single_cell_nlp(
            make_table(g, [0.0, 1.0]), [LinConstraint(((1.0, 0),), "<=", -1.0)]
        )
        assert solve_box_nlp(screened).nodes == 0 and len(built) == 1

    def test_subproblem_bounds_are_left_as_they_were(self, desk_s2_first_cell):
        # the root box is the subproblem's own bound arrays
        nlp = desk_s2_first_cell
        lo, hi = nlp.var_lo.copy(), nlp.var_hi.copy()
        assert solve_box_nlp(nlp).nodes > 1
        np.testing.assert_array_equal(nlp.var_lo, lo)
        np.testing.assert_array_equal(nlp.var_hi, hi)


DESK_S4_FIRST_CELL = (
    (0, 0, 1), (0, 1), (1, 0, 1), (1, 1), (0, 0, 1), (0, 1), (0, 0, 1), (0, 1),
    (0, 1, 0, 1), (0, 1), (0, 1), (0, 0), (0, 0, 1),
)  # segments of the first RFE round on desk S4 seed 0, every binary 1


def test_desk_s4_first_cell_closes_in_few_nodes():
    """A manifold's q_liq feeds five tables: one split narrows all five hulls."""
    ir = build_opo_instance(get_scenario("S4", "desk"), 0).ir
    fixing = Fixing(segments=DESK_S4_FIRST_CELL, y=(1,) * ir.num_binaries)
    res = solve_box_nlp(build_subproblem(ir, fixing))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-381.3807236619, rel=1e-8)
    # 203 nodes when each interpolant was split on its own copy of its inputs
    assert res.nodes <= 60


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


def test_child_pruned_before_it_is_popped_gets_no_lp(monkeypatch):
    """min x1 s.t. x1 * x2 >= 1/2 on the unit square: 1/2 at (1/2, 1).

    The root LP bound is the optimum, but its point (1/2, 1/2) gives no
    candidate, so the root is split at x1 = 1/2. The lower child's LP point is
    the optimum, which prunes the upper child: it waits under the root's bound
    and closes with no LP.
    """
    boxes = []
    solve_lp = spatial.solve_lp

    def counted(lp, *args, **kwargs):
        if "basis" in kwargs:  # a node LP: the candidate search passes no basis
            boxes.append((lp.lo[:2].tolist(), lp.hi[:2].tolist()))
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(spatial, "solve_lp", counted)
    g = make_grid([[0.0, 1.0], [0.0, 1.0]])
    nlp = _single_cell_nlp(
        product_table(g, (0, 1)), [LinConstraint(((1.0, 2),), ">=", 0.5)], objective=[(1.0, 0)]
    )
    res = solve_box_nlp(nlp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.nodes == 2
    assert boxes == [([0.0, 0.0], [1.0, 1.0]), ([0.0, 0.0], [0.5, 1.0])]


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
        nlp = build_subproblem(ir, _fixing(None))
        assert not nlp.blocks
        assert nlp.var_lo.tolist() == nlp.var_hi.tolist() == [0.0, 0.0]
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


class TestScreen:
    """A linear row that misses its right-hand side over the box closes the
    cell with no LP."""

    def test_rows_that_exclude_the_box_only_together_reach_one_lp(self, monkeypatch):
        """The screen reads each row alone over the cell's own bounds and
        propagates no bound, so the root LP proves this cell empty. Bound
        propagation is left out because, on every cell of the desk, cut and
        pool instances (24,051 cells), its rounds rejected exactly the cells
        that one pass rejects."""
        # y - x >= 0.6 lifts y to 0.6, and then x + y <= 0.5 cannot hold;
        # neither row alone excludes the box
        g = make_grid([[0.0, 1.0]])
        nlp = _single_cell_nlp(
            make_table(g, [0.0, 1.0]),
            [
                LinConstraint(((1.0, 1), (-1.0, 0)), ">=", 0.6),
                LinConstraint(((1.0, 0), (1.0, 1)), "<=", 0.5),
            ],
        )
        assert not _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(spatial, "solve_lp", counted)
        res = solve_box_nlp(nlp)
        assert res.status == INFEASIBLE
        assert res.nodes == 1 and len(calls) == 1

    @pytest.mark.parametrize("miss, screened", [(5e-8, False), (1e-5, True)])
    @pytest.mark.parametrize(
        "row",
        [
            lambda miss: LinConstraint(((1.0, 0),), "<=", -miss),
            lambda miss: LinConstraint(((-1.0, 0),), ">=", miss),
            lambda miss: LinConstraint(((1.0, 0),), "=", -miss),
            lambda miss: LinConstraint(((1.0, 0),), "=", 1.0 + miss),
        ],
        ids=["le", "ge", "eq-below", "eq-above"],
    )
    def test_rows_missed_within_the_lp_tolerance_reach_the_lp(
        self, monkeypatch, row, miss, screened
    ):
        # x in [0, 1] and a row that x misses by ``miss``: within FEAS_TOL
        # the simplex decides
        assert 5e-8 < FEAS_TOL < 1e-5
        g = make_grid([[0.0, 1.0]])
        nlp = _single_cell_nlp(make_table(g, [0.0, 1.0]), [row(miss)])
        assert _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi) == screened
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(spatial, "solve_lp", counted)
        res = solve_box_nlp(nlp)
        assert (res.nodes == 0) == (not calls) == screened
        if screened:
            assert res.status == INFEASIBLE

    def test_zero_coefficient_on_a_free_variable_is_skipped(self):
        # x + 0 w <= -1 misses for x in [0, 1]; 0 * inf would make it NaN
        g = make_grid([[0.0, 1.0]])
        ir = build_problem(
            [
                VarRef(0, CONTINUOUS, 0.0, 1.0),
                VarRef(1, CONTINUOUS, -10.0, 10.0),
                VarRef(2, CONTINUOUS, -np.inf, np.inf),
            ],
            [LinConstraint(((1.0, 0), (0.0, 2)), "<=", -1.0)],
            [InterpolantDef(make_table(g, [0.0, 1.0]), (0,), 1)],
            objective=[(1.0, 1), (1.0, 2)],
        )
        nlp = build_subproblem(ir, _fixing((0,)))
        assert nlp.var_lo[2] == -np.inf and nlp.var_hi[2] == np.inf
        assert _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi)

    @pytest.mark.parametrize("instance", ["pool", "desk-S1-0"])
    def test_screened_cells_have_infeasible_cold_roots(self, instance):
        if instance == "pool":
            irs = [random_instance(seed) for seed in range(50)]
        else:
            irs = [build_opo_instance(get_scenario("S1", "desk"), 0).ir]
        screened = cells = 0
        for ir in irs:
            for fixing in rfe._enumerate_fixings(ir):
                nlp = build_subproblem(ir, fixing)
                cells += 1
                if _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi):
                    screened += 1
                    root = _write_box(_node_lp(nlp), nlp.blocks, nlp.var_lo, nlp.var_hi)
                    assert solve_lp(root).status == INFEASIBLE
        assert (screened, cells) == {"pool": (111, 1509), "desk-S1-0": (50, 66)}[instance]

    def test_unbounded_root_is_unbounded(self):
        # w is free and only w + z <= 5 holds it: z + w has no lower bound
        g = make_grid([[0.0, 0.5, 1.0]])
        ir = build_problem(
            [
                VarRef(0, CONTINUOUS, 0.0, 1.0),
                VarRef(1, CONTINUOUS, -10.0, 10.0),
                VarRef(2, CONTINUOUS, -np.inf, np.inf),
            ],
            [LinConstraint(((1.0, 2), (1.0, 1)), "<=", 5.0)],
            [InterpolantDef(make_table(g, [0.0, 1.0, 0.0]), (0,), 1)],
            objective=[(1.0, 1), (1.0, 2)],
        )
        res = solve_box_nlp(build_subproblem(ir, _fixing((0,))))
        assert res.status == UNBOUNDED
        assert res.x is None and res.nodes == 1


class TestPinnedStepScreen:
    """A pinned step runs the cell's row screen over its pinned bounds first."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(spatial, "solve_lp", counted)
        return calls

    @pytest.mark.parametrize("cap, screened", [(0.5, True), (1.5, False)])
    def test_row_missed_over_the_pinned_bounds_takes_no_lp(self, lp_calls, cap, screened):
        # f(x) = 2x on [0, 1] and y <= cap: pinning x at 0.5 pins y at f = 1
        g = make_grid([[0.0, 1.0]])
        nlp = _single_cell_nlp(make_table(g, [0.0, 2.0]), [LinConstraint(((1.0, 1),), "<=", cap)])
        assert not _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi)
        got = _pinned_step(nlp, _node_lp(nlp), np.array([0.5, 0.0]), set(), np.inf)
        assert len(lp_calls) == (0 if screened else 1)
        if screened:
            assert got is None
        else:
            np.testing.assert_allclose(got[0], [0.5, 1.0])

    def test_step_past_the_deadline_gives_no_candidate(self, lp_calls):
        # the step of the test above that finds [0.5, 1.0]: its LP stops at
        # a deadline already passed
        g = make_grid([[0.0, 1.0]])
        nlp = _single_cell_nlp(make_table(g, [0.0, 2.0]), [LinConstraint(((1.0, 1),), "<=", 1.5)])
        x = np.array([0.5, 0.0])
        assert _pinned_step(nlp, _node_lp(nlp), x, set(), time.monotonic()) is None
        assert len(lp_calls) == 1

    def test_screened_steps_are_infeasible_lps(self, monkeypatch):
        """Every pinned step the screen rejects, on enumerating desk S1 seeds
        0-3 and pool seeds 0-9, is an infeasible LP when solved anyway."""
        screen = spatial._rows_exclude_box
        in_step = [False]
        statuses = []  # of the LPs of steps the screen rejects

        def step(*args):
            in_step[0] = True
            try:
                return pinned_step(*args)
            finally:
                in_step[0] = False

        def spy_screen(*args):
            rejects = screen(*args)
            if in_step[0] and rejects:
                statuses.append(None)  # filled in by the LP that follows
                return False
            return rejects

        def spy_solve(*args, **kwargs):
            res = solve_lp(*args, **kwargs)
            if in_step[0] and statuses and statuses[-1] is None:
                statuses[-1] = res.status
            return res

        pinned_step = spatial._pinned_step
        monkeypatch.setattr(spatial, "_pinned_step", step)
        monkeypatch.setattr(spatial, "_rows_exclude_box", spy_screen)
        monkeypatch.setattr(spatial, "solve_lp", spy_solve)
        irs = [build_opo_instance(get_scenario("S1", "desk"), s).ir for s in range(4)]
        irs += [random_instance(s) for s in range(10)]
        for ir in irs:
            rfe.solve_by_enumeration(ir)
        assert len(statuses) == 28  # 36 before cells closed against the incumbent
        assert set(statuses) == {INFEASIBLE}


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
            for fixing in rfe._enumerate_fixings(ir):
                nlp = build_subproblem(ir, fixing)
                ref = solve(nlp, True)
                got = solve(nlp, False)
                assert got.status == ref.status
                if ref.status == OPTIMAL:
                    assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
                cells += 1
        assert cells > 100
        assert pivots[False] < 0.7 * pivots[True], pivots
