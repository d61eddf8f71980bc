"""IR construction, validation, and relaxation size accounting."""

import numpy as np
import pytest

from gridopt.errors import BoundsOutsideHull, DanglingVariable, DimensionMismatch
from gridopt.gridtab import make_grid, make_table
from gridopt.model import (
    BINARY,
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.relax import build_relaxation

from _oracles import problem_size


def _table(shape):
    grid = make_grid([np.linspace(0, 1, k) for k in shape])
    return make_table(grid, np.arange(grid.num_corners, dtype=float))


def _simple_ir(shape=(3, 4), activation=False, extra_binaries=0):
    variables = [
        VarRef(i, CONTINUOUS, 0.0, 1.0) for i in range(len(shape))
    ] + [VarRef(len(shape), CONTINUOUS, -50.0, 50.0)]
    nxt = len(shape) + 1
    act = None
    if activation:
        variables.append(VarRef(nxt, BINARY, 0.0, 1.0))
        act = nxt
        nxt += 1
    for _ in range(extra_binaries):
        variables.append(VarRef(nxt, BINARY, 0.0, 1.0))
        nxt += 1
    itp = InterpolantDef(_table(shape), tuple(range(len(shape))), len(shape), act)
    return build_problem(variables, [], [itp], objective=[(1.0, len(shape))])


class TestBuildProblem:
    def test_dangling_constraint_variable(self):
        with pytest.raises(DanglingVariable):
            build_problem(
                [VarRef(0, CONTINUOUS, 0, 1)],
                [LinConstraint(((1.0, 5),), "<=", 0.0)],
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_problem(
                [VarRef(0, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, 0, 1)],
                interpolants=[InterpolantDef(_table((3, 3)), (0,), 1)],
            )

    def test_bounds_outside_hull_without_activation(self):
        with pytest.raises(BoundsOutsideHull):
            build_problem(
                [VarRef(0, CONTINUOUS, -1.0, 2.0), VarRef(1, CONTINUOUS, -9, 9)],
                interpolants=[InterpolantDef(_table((3,)), (0,), 1)],
            )

    def test_activation_skips_hull_check(self):
        ir = build_problem(
            [
                VarRef(0, CONTINUOUS, 0.0, 1.0),
                VarRef(1, CONTINUOUS, -9, 9),
                VarRef(2, BINARY, 0.0, 1.0),
            ],
            interpolants=[InterpolantDef(_table((3,)), (0,), 1, 2)],
            objective=[(1.0, 1)],
        )
        assert ir.interpolants[0].activation == 2

    def test_binary_bounds_enforced(self):
        with pytest.raises(ValueError):
            VarRef(0, BINARY, 0.0, 2.0)

    def test_maximize_negates_objective(self):
        ir = build_problem(
            [VarRef(0, CONTINUOUS, 0, 1)],
            objective=[(2.0, 0)],
            maximize=True,
        )
        assert ir.objective == ((-2.0, 0),)
        assert ir.maximize

    def test_duplicate_variable_id(self):
        with pytest.raises(ValueError):
            build_problem([VarRef(0, CONTINUOUS, 0, 1), VarRef(0, CONTINUOUS, 0, 1)])

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_bound_rejected(self, lo, hi):
        # NaN > x is false, so lo > hi let it through, and a solve never returned
        with pytest.raises(ValueError, match="NaN"):
            VarRef(0, CONTINUOUS, lo, hi)

    def test_nan_rhs_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            LinConstraint(((1.0, 0),), "<=", np.nan)

    def test_nan_objective_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            build_problem([VarRef(0, CONTINUOUS, 0, 1)], objective=[(np.nan, 0)])

    def test_infinite_values_keep_their_meaning(self):
        ir = build_problem(
            [VarRef(0, CONTINUOUS, -np.inf, np.inf)],
            [LinConstraint(((1.0, 0),), "<=", np.inf)],
            objective=[(1.0, 0)],
        )
        assert ir.variables[0].lo == -np.inf and ir.constraints[0].rhs == np.inf

    def test_rows_are_the_constraints_by_position(self):
        ir = build_problem(
            [VarRef(4, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, 0, 1), VarRef(9, BINARY, 0, 1)],
            [
                LinConstraint(((2.0, 9), (-1.0, 4)), "<=", 3.0, "a"),
                LinConstraint(((1.0, 1),), ">=", -1.0),
            ],
        )
        assert ir.rows == (
            (((2, 2.0), (0, -1.0)), "<=", 3.0),
            (((1, 1.0),), ">=", -1.0),
        )
        assert ir.rows is ir.rows  # translated once per IR


class TestProblemSize:
    @pytest.mark.parametrize("shape", [(2,), (3, 4), (2, 3, 4)])
    @pytest.mark.parametrize("activation", [False, True])
    def test_size_matches_built_relaxation(self, shape, activation):
        ir = _simple_ir(shape, activation)
        sz = problem_size(ir)
        milp = build_relaxation(ir)
        assert milp.ncols == sz.cols
        assert milp.nrows == sz.rows
        assert milp.nonzeros == sz.nonzeros

    def test_sum_product_identities(self):
        # |xi| is the sum and |lambda| the product of the axis sizes
        ir = _simple_ir((3, 4))
        sz = problem_size(ir)
        assert sz.n_xi == 3 + 4
        assert sz.n_lambda == 3 * 4
        assert sz.n_segment == 2 + 3

    def test_full_scale_single_interpolant(self):
        # grids (10, 20, 20) with 2 binaries: 50 weights, 4000 corner weights
        variables = [VarRef(i, CONTINUOUS, 0.0, 1.0) for i in range(3)]
        variables.append(VarRef(3, CONTINUOUS, -1e6, 1e6))
        variables.append(VarRef(4, BINARY, 0.0, 1.0))
        variables.append(VarRef(5, BINARY, 0.0, 1.0))
        itp = InterpolantDef(_table((10, 20, 20)), (0, 1, 2), 3, activation=4)
        ir = build_problem(variables, [], [itp], objective=[(1.0, 3)])
        sz = problem_size(ir)
        assert sz.n_xi == 50
        assert sz.n_lambda == 4000
        assert sz.n_y == 2
