"""Production-allocation instance builder."""

import numpy as np
import pytest

from gridopt.errors import InvalidScenario
from gridopt.gridtab import make_grid
from gridopt.opo import (
    IGLR_MAX,
    SEP_PRESSURE,
    Scenario,
    build_opo_instance,
    get_scenario,
    scenario_catalog,
    synth_vlp,
)

from _oracles import problem_size


class TestCatalog:
    def test_nine_entries_with_counts(self):
        cat = scenario_catalog()
        assert len(cat) == 9
        assert (cat[0].n_wells, cat[0].n_manifolds) == (1, 0)
        assert (cat[8].n_wells, cat[8].n_manifolds) == (9, 2)
        assert [s.n_manifolds for s in cat] == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_binary_counts_column(self):
        # one activation per component plus a gas-lift binary per well
        assert [s.n_binaries for s in scenario_catalog()] == [
            2, 4, 6, 9, 11, 13, 16, 18, 20,
        ]

    def test_presets(self):
        desk = get_scenario("S1", "desk")
        full = get_scenario("S1", "full")
        assert all(k <= 4 for k in desk.well_grid)
        assert full.well_grid == (10, 20, 20)
        with pytest.raises(InvalidScenario):
            get_scenario("S42")
        with pytest.raises(InvalidScenario):
            scenario_catalog("huge")


class TestSynthVlp:
    def _well_grid(self):
        return make_grid(
            [np.linspace(0, 300, 4), np.linspace(20, 200, 3), np.linspace(0, IGLR_MAX, 3)]
        )

    def test_deterministic(self):
        g = self._well_grid()
        a = synth_vlp(123, g, "well")
        b = synth_vlp(123, g, "well")
        np.testing.assert_array_equal(a.values, b.values)

    def test_monotone_in_downstream_pressure(self):
        g = self._well_grid()
        t = synth_vlp(5, g, "well")
        vals = t.values.reshape(t.grid.shape)
        assert np.all(np.diff(vals, axis=1) >= 0)

    def test_gas_injection_relieves_pressure(self):
        g = self._well_grid()
        t = synth_vlp(5, g, "well")
        vals = t.values.reshape(t.grid.shape)
        assert np.all(vals[:, :, -1] <= vals[:, :, 0])

    def test_manifold_kind_and_bad_kind(self):
        g = make_grid(
            [
                np.linspace(0, 600, 3),
                np.linspace(0, IGLR_MAX, 3),
                np.linspace(76, 126, 3),
                np.linspace(0.095, 0.42, 3),
            ]
        )
        t = synth_vlp(9, g, "manifold")
        assert np.all(t.values > SEP_PRESSURE)
        with pytest.raises(InvalidScenario):
            synth_vlp(9, g, "riser")


def _assert_outputs_used(ir):
    """Every interpolant output appears in a constraint or in the objective."""
    used = {vid for c in ir.constraints for _, vid in c.terms}
    used |= {vid for _, vid in ir.objective}
    for itp in ir.interpolants:
        assert itp.output in used, f"interpolant output {itp.output} unused"


class TestBuildInstance:
    def test_invalid_scenarios(self):
        with pytest.raises(InvalidScenario):
            build_opo_instance(Scenario("X", 0, 0, (3, 3, 3), (3, 3, 3, 3)), 0)
        with pytest.raises(InvalidScenario):
            build_opo_instance(Scenario("X", 1, 0, (1, 3, 3), (3, 3, 3, 3)), 0)
        for manifolds in (2, -1):  # more manifolds than wells, or fewer than none
            with pytest.raises(InvalidScenario):
                build_opo_instance(Scenario("X", 1, manifolds, (3, 3, 3), (3, 3, 3, 3)), 0)

    def test_s1_shape(self):
        inst = build_opo_instance(get_scenario("S1"), 0)
        assert inst.ir.num_binaries == 2  # activation + gas-lift binary
        assert len(inst.wells) == 1 and not inst.manifolds
        _assert_outputs_used(inst.ir)
        assert inst.ir.maximize

    def test_manifold_scenario_structure(self):
        inst = build_opo_instance(get_scenario("S4"), 1)
        assert len(inst.wells) == 4 and len(inst.manifolds) == 1
        assert inst.ir.num_binaries == 9
        # every manifold connects at least one well; each well appears once
        connected = [w for m in inst.manifolds for w in m.wells]
        assert len(connected) == len(set(connected))
        assert all(m.wells for m in inst.manifolds)
        _assert_outputs_used(inst.ir)

    def test_determinism(self):
        a = build_opo_instance(get_scenario("S2"), 11)
        b = build_opo_instance(get_scenario("S2"), 11)
        for ta, tb in zip(a.ir.interpolants, b.ir.interpolants):
            np.testing.assert_array_equal(ta.table.values, tb.table.values)
        assert a.ir.constraints == b.ir.constraints

    def test_size_identities(self):
        inst = build_opo_instance(get_scenario("S1"), 0)
        sz = problem_size(inst.ir)
        n_xi = sum(
            sum(itp.table.grid.shape) for itp in inst.ir.interpolants
        )
        n_lam = sum(itp.table.grid.num_corners for itp in inst.ir.interpolants)
        assert sz.n_xi == n_xi
        assert sz.n_lambda == n_lam

    def test_platform_limits_reach_the_rows(self):
        inst = build_opo_instance(get_scenario("S4"), 2)
        plat = inst.platform
        rhs = {c.name: c.rhs for c in inst.ir.constraints}
        assert rhs["cap_liq"] == plat.q_liq_cap
        assert rhs["cap_inj"] == plat.q_inj_cap
        # the pressure big-M exceeds every lift-curve value
        tables = [w.vlp for w in inst.wells] + [m.vlp for m in inst.manifolds]
        assert all(plat.big_m >= t.values.max() for t in tables)

    def test_all_closed_solution_feasible(self):
        """y = 0 everywhere with all flows zero satisfies every row."""
        inst = build_opo_instance(get_scenario("S5"), 3)
        x = {v.id: 0.0 for v in inst.ir.variables}
        for c in inst.ir.constraints:
            lhs = sum(coef * x[vid] for coef, vid in c.terms)
            ok = {
                "<=": lhs <= c.rhs + 1e-9,
                ">=": lhs >= c.rhs - 1e-9,
                "=": abs(lhs - c.rhs) <= 1e-9,
            }[c.sense]
            assert ok, f"row {c.name} violated at the all-closed point"
        # objective at the all-closed point is zero
        assert sum(coef * x[vid] for coef, vid in inst.ir.objective) == 0.0
