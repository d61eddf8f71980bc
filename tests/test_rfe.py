"""The fix-and-exclude driver: oracle equivalence and trace invariants."""

import functools

import numpy as np
import pytest

from gridopt import rfe, spatial
from gridopt.errors import EnumerationTooLarge
from gridopt.gridtab import interpolate, make_grid, make_table
from gridopt.model import (
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.rfe import solve_by_enumeration, solve_rfe

from _random_instances import random_instance


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
        limited = functools.partial(spatial.solve_box_nlp, node_limit=limit)
        monkeypatch.setattr(rfe, "solve_box_nlp", limited)
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


class TestTimeLimit:
    def test_zero_time_limit(self):
        ir = random_instance(0)
        res = solve_rfe(ir, time_limit=0.0)
        assert res.status == "TimeLimit"
