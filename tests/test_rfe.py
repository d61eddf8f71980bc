"""The fix-and-exclude driver: oracle equivalence and trace invariants."""

import numpy as np
import pytest

from gridopt import bnb, rfe, spatial
from gridopt.cli import _status_exit
from gridopt.errors import EnumerationTooLarge
from gridopt.gridtab import interpolate, make_grid, make_table, product_table
from gridopt.model import (
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.rfe import solve_by_enumeration, solve_rfe

from _clock import Clock
from _random_instances import cut_instance, random_instance


def _affine_table(n=2, k=3):
    grid = make_grid([np.linspace(0, 1, k)] * n)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    vals = 0.5 + sum((j + 1) * m for j, m in enumerate(mesh))
    return make_table(grid, vals.reshape(-1))


class TestTrivialOutcomes:
    def test_infeasible_by_output_cap(self):
        tab = _affine_table()
        # output forced strictly below the table minimum
        cap = float(tab.values.min()) - 1.0
        variables = [
            VarRef(0, CONTINUOUS, 0, 1),
            VarRef(1, CONTINUOUS, 0, 1),
            VarRef(2, CONTINUOUS, -100, 100),
        ]
        ir = build_problem(
            variables,
            [LinConstraint(((1.0, 2),), "<=", cap)],
            [InterpolantDef(tab, (0, 1), 2)],
            objective=[(1.0, 2)],
        )
        assert solve_rfe(ir).status == "Infeasible"
        assert solve_by_enumeration(ir).status == "Infeasible"

    def test_unbounded_cell(self):
        # w is free and only w + z <= 5 holds it: z + w has no lower bound in
        # either cell; enumeration used to skip such cells and say Infeasible
        tab = make_table(make_grid([[0.0, 0.5, 1.0]]), [0.0, 1.0, 0.0])
        variables = [
            VarRef(0, CONTINUOUS, 0, 1),
            VarRef(1, CONTINUOUS, -10, 10),
            VarRef(2, CONTINUOUS, -np.inf, np.inf),
        ]
        ir = build_problem(
            variables,
            [LinConstraint(((1.0, 2), (1.0, 1)), "<=", 5.0)],
            [InterpolantDef(tab, (0,), 1)],
            objective=[(1.0, 1), (1.0, 2)],
        )
        assert solve_rfe(ir).status == "Unbounded"
        assert solve_by_enumeration(ir).status == "Unbounded"

    def test_affine_table_converges_in_one_iteration(self):
        # the relaxation is exact for affine data: first candidate closes the gap
        tab = _affine_table()
        variables = [
            VarRef(0, CONTINUOUS, 0, 1),
            VarRef(1, CONTINUOUS, 0, 1),
            VarRef(2, CONTINUOUS, -100, 100),
        ]
        ir = build_problem(
            variables, [], [InterpolantDef(tab, (0, 1), 2)], objective=[(1.0, 2)]
        )
        res = solve_rfe(ir)
        assert res.status == "Optimal"
        assert res.iterations <= 1
        assert res.objective == pytest.approx(0.5, abs=1e-8)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances_match_enumeration(self, seed):
        ir = random_instance(seed)
        rfe = solve_rfe(ir)
        oracle = solve_by_enumeration(ir)
        assert rfe.status == oracle.status
        if rfe.status == "Optimal":
            assert rfe.objective == pytest.approx(oracle.objective, abs=1e-6)


class TestTraceInvariants:
    @pytest.mark.parametrize("seed", [2, 5, 9, 14])
    def test_bounds_monotone_and_fixings_unique(self, seed):
        ir = random_instance(seed)
        res = solve_rfe(ir)
        sign = -1.0 if ir.maximize else 1.0
        # relaxation bounds tighten monotonically (minimization sense)
        bounds = [sign * e["bound"] for e in res.log]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        incs = [
            sign * e["incumbent"] for e in res.log if e["incumbent"] is not None
        ]
        assert all(c2 <= c1 + 1e-9 for c1, c2 in zip(incs, incs[1:]))
        fixings = [(e["fixing_segments"], e["fixing_y"]) for e in res.log]
        assert len(fixings) == len(set(fixings))

    def test_iteration_count_bounded_by_fixing_count(self):
        ir = random_instance(4)
        total = 2 ** ir.num_binaries
        for itp in ir.interpolants:
            total *= itp.table.grid.num_cells
        res = solve_rfe(ir)
        assert res.iterations <= total

    def test_incumbent_feasible(self):
        for seed in (1, 6, 11):
            ir = random_instance(seed)
            res = solve_rfe(ir)
            if res.x is None:
                continue
            pos = {v.id: i for i, v in enumerate(ir.variables)}
            x = res.x
            for v in ir.variables:
                assert v.lo - 1e-7 <= x[pos[v.id]] <= v.hi + 1e-7
            for c in ir.constraints:
                lhs = sum(coef * x[pos[vid]] for coef, vid in c.terms)
                if c.sense == "<=":
                    assert lhs <= c.rhs + 1e-7
                elif c.sense == ">=":
                    assert lhs >= c.rhs - 1e-7
                else:
                    assert lhs == pytest.approx(c.rhs, abs=1e-7)
            for itp in ir.interpolants:
                act = 1.0 if itp.activation is None else x[pos[itp.activation]]
                out = x[pos[itp.output]]
                if act > 0.5:
                    val = interpolate(itp.table, [x[pos[v]] for v in itp.inputs])
                    assert out == pytest.approx(val, abs=1e-7)
                else:
                    assert out == pytest.approx(0.0, abs=1e-7)


class TestUnclosedSubproblems:
    """A subproblem stopped by its node limit keeps its bound under the global one."""

    @pytest.mark.parametrize(
        "engine, scenario, optimum",
        [(solve_rfe, "S2", 219.02002935708694), (solve_by_enumeration, "S1", 86.14053596595552)],
    )
    @pytest.mark.parametrize("limit", [1, 5])
    def test_limit_status_with_valid_bound(self, monkeypatch, engine, scenario, optimum, limit):
        ir = build_opo_instance(get_scenario(scenario, "desk"), 0).ir
        assert ir.maximize
        monkeypatch.setattr(spatial, "MAX_NODES", limit)
        res = engine(ir)
        assert res.status == "NodeLimit"
        assert res.bound >= optimum - 1e-6
        assert res.x is None or res.objective <= optimum + 1e-6


class TestEnumerationGuard:
    def test_enumeration_too_large(self):
        grid = make_grid([np.linspace(0, 1, 25)] * 3)  # 24^3 cells > 10^4
        tab = make_table(grid, np.zeros(grid.num_corners))
        variables = [VarRef(j, CONTINUOUS, 0, 1) for j in range(3)]
        variables.append(VarRef(3, CONTINUOUS, -1, 1))
        ir = build_problem(
            variables, [], [InterpolantDef(tab, (0, 1, 2), 3)], objective=[(1.0, 3)]
        )
        with pytest.raises(EnumerationTooLarge):
            solve_by_enumeration(ir)


class TestExcludeLoop:
    """One MILP tree serves every round, cut off at the incumbent."""

    def test_cut_family_rounds(self):
        # the rounds of solving each cut LP from its root; a prune level that
        # turns NaN at an infinite cutoff closes cut-1 in one round instead
        results = [solve_rfe(cut_instance(seed)) for seed in range(12)]
        assert [r.iterations for r in results] == [2, 16, 1, 1, 5, 1, 1, 4, 1, 1, 1, 1]
        # the whole search, pinned: every round's MILP nodes, re-solves included;
        # cut-4's rounds tie at one bound up to round-off, which picks their order.
        # A root LP's optimal face holds more than one vertex here, and which one
        # the cold start ends on sets the branching (cut-3: 1 node from one, 4 from
        # another of the same bound)
        assert [r.milp_nodes for r in results] == [15, 39, 1, 4, 31, 7, 5, 27, 11, 11, 5, 25]

    @pytest.mark.parametrize("seed", [0, 1, 4, 7])
    def test_log_carries_milp_nodes_and_frontier(self, seed):
        res = solve_rfe(cut_instance(seed))
        assert res.status == "Optimal"
        assert len(res.log) == res.iterations
        assert res.log[0]["milp_nodes"] >= 1  # the root
        # a round's MILP optimum is an integral leaf, handed on in the frontier
        assert all(e["milp_nodes"] >= 0 and e["frontier"] >= 1 for e in res.log)
        # the rest is the MILP that found nothing below the incumbent
        assert sum(e["milp_nodes"] for e in res.log) <= res.milp_nodes


def test_desk_s1_enumeration_spatial_nodes(monkeypatch):
    """The spatial search of every desk S1-0 cell, pinned by its node counts.

    The screens close 57 of the 66 cells with no LP: the row screen 50 empty
    ones, each of which would be one infeasible root LP without it, and the
    dual screen 7 whose root the previous root's duals already bound at the
    incumbent. A child waits on the heap unsolved, so
    it gets no LP when the incumbent prunes its parent's bound first. In the
    optimal cell, the last branched box's first child finds a candidate within
    ``spatial.GAP`` of their parent's bound, and the second child closes with
    no LP: that cell takes 22 nodes, where solving both children at branching
    took 23.
    """
    nodes = []

    def counted(*args, **kwargs):
        res = spatial.solve_box_nlp(*args, **kwargs)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(rfe, "solve_box_nlp", counted)
    res = solve_by_enumeration(build_opo_instance(get_scenario("S1", "desk"), 0).ir)
    assert res.status == "Optimal"
    assert len(nodes) == res.subproblems_solved == 66
    assert nodes.count(0) == res.cells_screened == 57
    assert sum(n > 0 for n in nodes) == 9
    assert sum(nodes) == res.spatial_nodes == 36


def test_rfe_screens_no_cell():
    """The MILP point meets every linear row inside its cell's box."""
    irs = [random_instance(seed) for seed in range(50)] + [cut_instance(s) for s in range(12)]
    for ir in irs:
        res = solve_rfe(ir)
        assert res.cells_screened == 0
        assert res.spatial_nodes >= res.subproblems_solved


class TestTimeLimit:
    def test_zero_time_limit(self):
        ir = random_instance(0)
        res = solve_rfe(ir, time_limit=0.0)
        assert res.status == "TimeLimit"

    @pytest.mark.parametrize("limit", [np.nan, -5.0, -np.inf])
    def test_time_limit_must_be_a_number_at_least_zero(self, limit):
        # a NaN limit was ignored (Optimal after a full solve), a negative one
        # gave TimeLimit with no round
        ir = build_opo_instance(get_scenario("S1", "desk"), 0).ir
        with pytest.raises(ValueError, match="time_limit"):
            solve_rfe(ir, time_limit=limit)

    @pytest.mark.parametrize("limit", [np.nan, -5.0, -np.inf])
    def test_the_one_conversion_rejects_nan_and_negative_limits(self, limit):
        # a NaN limit compares false with every reading and never stops a
        # search; a negative one stops it before the root
        with pytest.raises(ValueError, match="time_limit"):
            rfe._deadline(limit)

    @pytest.mark.parametrize("limit", [None, 0.0, 7.5, np.inf])
    def test_the_one_conversion_takes_none_and_numbers_at_least_zero(self, limit, monkeypatch):
        Clock(monkeypatch).now = 100.0
        assert rfe._deadline(limit) == (np.inf if limit is None else 100.0 + limit)

    def test_enumeration_stops_before_its_first_cell(self):
        ir = build_opo_instance(get_scenario("S1", "desk"), 0).ir
        res = solve_by_enumeration(ir, time_limit=0.0)
        assert res.status == "TimeLimit"
        assert res.subproblems_solved == 0
        assert res.x is None and not np.isfinite(res.bound)

    @pytest.mark.parametrize("limit", [np.nan, -5.0])
    def test_enumeration_time_limit_must_be_a_number_at_least_zero(self, limit):
        ir = build_opo_instance(get_scenario("S1", "desk"), 0).ir
        with pytest.raises(ValueError, match="time_limit"):
            solve_by_enumeration(ir, time_limit=limit)

    @staticmethod
    def _node_lp_clock(monkeypatch) -> Clock:
        """A clock that moves one second at each MILP and spatial node LP."""
        clock = Clock(monkeypatch)
        clock.tick_on(bnb, "solve_lp")
        clock.tick_on(spatial, "_write_box")  # just before each spatial node LP
        return clock

    def test_limit_inside_a_subproblem(self, monkeypatch):
        # desk S2-0 closes in one round: 19 MILP node LPs, then 48 spatial
        # ones. With one second per node LP, a limit of 60 falls inside the
        # subproblem, which once ran on to its end and gave Optimal
        ir = build_opo_instance(get_scenario("S2", "desk"), 0).ir
        self._node_lp_clock(monkeypatch)
        res = solve_rfe(ir, time_limit=60)
        assert res.status == "TimeLimit"
        assert [entry["subproblem_status"] for entry in res.log] == ["TimeLimit"]
        assert 0 < res.spatial_nodes < 48
        assert res.bound >= 219.02002935708694 - 1e-6  # the optimum, a maximum
        assert res.objective <= 219.02002935708694 + 1e-6

    def test_limit_at_the_root_of_a_subproblem_screens_no_cell(self, monkeypatch):
        # desk S2-0: the deadline stops the subproblem's root LP, after the
        # first MILP's 19 node LPs. That cell was closed by no screen: it is
        # not Infeasible, and it once counted in cells_screened
        ir = build_opo_instance(get_scenario("S2", "desk"), 0).ir
        self._node_lp_clock(monkeypatch)
        res = solve_rfe(ir, time_limit=19.5)
        assert res.status == "TimeLimit"
        assert [entry["subproblem_status"] for entry in res.log] == ["TimeLimit"]
        assert res.subproblems_solved == 1
        assert res.spatial_nodes == 0
        assert res.cells_screened == 0

    def test_cells_screened_counts_screen_closures_only(self):
        # desk S1-0 has cells its row screen closes; at a passed deadline
        # they still close Infeasible with no LP, and the others stop unsolved
        ir = build_opo_instance(get_scenario("S1", "desk"), 0).ir
        cells = rfe._Subproblems(ir, deadline=-np.inf)
        statuses = [cells.solve(fixing) for fixing in rfe._enumerate_fixings(ir)]
        assert cells.nodes == 0
        assert statuses.count("TimeLimit") == 16
        assert statuses.count("Infeasible") == cells.screened == 50

    def test_enumeration_limit_inside_its_last_cell(self, monkeypatch):
        # min -x0 * x1 s.t. x0 + x1 <= 1 on one cell: -1/4, and the root LP
        # bound is -1/2. The clock moves as each box is written, before its
        # node LP: the deadline at 1.5 lets the root LP run and stops the
        # split boxes
        g = make_grid([[0.0, 1.0], [0.0, 1.0]])
        tab = make_table(g, -product_table(g, (0, 1)).values)
        variables = [VarRef(0, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, 0, 1)]
        variables.append(VarRef(2, CONTINUOUS, -1, 1))
        ir = build_problem(
            variables,
            [LinConstraint(((1.0, 0), (1.0, 1)), "<=", 1.0)],
            [InterpolantDef(tab, (0, 1), 2)],
            objective=[(1.0, 2)],
        )
        assert solve_by_enumeration(ir).objective == pytest.approx(-0.25, abs=1e-7)
        Clock(monkeypatch).tick_on(spatial, "_write_box")
        res = solve_by_enumeration(ir, time_limit=1.5)
        assert res.status == "TimeLimit"  # not NodeLimit
        assert res.subproblems_solved == 1 and res.spatial_nodes == 1
        assert res.bound == pytest.approx(-0.5, abs=1e-9)

    def test_milp_bound_survives_the_limit(self, monkeypatch):
        # the deadline stops desk S4-0's MILP right after its root LP; the
        # root's bound must reach the result
        ir = build_opo_instance(get_scenario("S4", "desk"), 0).ir
        assert ir.maximize
        self._node_lp_clock(monkeypatch)
        res = solve_rfe(ir, time_limit=1.5)
        assert res.milp_nodes == 1
        assert res.status == "TimeLimit"
        assert np.isfinite(res.bound)
        assert res.bound >= 381.3807236612488 - 1e-6  # the optimum


class TestIterationLimit:
    def test_stops_after_max_iterations_with_a_valid_bound(self, monkeypatch):
        # cut seed 1 closes in 16 rounds; stopped after 3, its incumbent and
        # bound must still bracket the optimum (a maximization)
        ir = cut_instance(1)
        assert ir.maximize
        full = solve_rfe(ir)
        assert full.status == "Optimal" and full.iterations == 16
        monkeypatch.setattr(rfe, "MAX_ITERATIONS", 3)
        res = solve_rfe(ir)
        assert res.status == "IterationLimit"
        assert res.iterations == 3
        assert res.objective <= full.objective
        assert res.bound >= full.objective
        assert _status_exit(res.status) == 4
