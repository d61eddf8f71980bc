"""Grids, tables, and multilinear interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridopt.errors import AxisTooShort, NotStrictlyIncreasing, OutOfHull
from gridopt.gridtab import (
    HULL_SLACK,
    corner_bits,
    find_segment,
    interpolate,
    locate,
    make_grid,
    make_table,
    multilinear,
    product_table,
)

from _oracles import (
    cell_corners_sliced,
    interpolate_recursive,
    lambda_weights,
    multilinear_concat,
    weights_1d,
)
from _random_instances import random_table


def axis_strategy(max_size=5):
    return (
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=max_size,
            unique=True,
        )
        .map(sorted)
        .filter(lambda a: min(np.diff(a)) > 1e-6 * max(1.0, max(map(abs, a))))
    )


def grid_strategy(max_dims=3):
    return st.lists(axis_strategy(), min_size=1, max_size=max_dims).map(make_grid)


@st.composite
def table_and_point(draw, max_dims=3):
    grid = draw(grid_strategy(max_dims))
    values = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=grid.num_corners,
            max_size=grid.num_corners,
        )
    )
    point = [
        draw(st.floats(min_value=float(a[0]), max_value=float(a[-1])))
        for a in grid.axes
    ]
    return make_table(grid, values), np.array(point)


class TestValidation:
    def test_axis_too_short(self):
        with pytest.raises(AxisTooShort):
            make_grid([[1.0]])
        with pytest.raises(AxisTooShort):
            make_grid([])

    def test_not_increasing(self):
        with pytest.raises(NotStrictlyIncreasing):
            make_grid([[0.0, 1.0, 1.0]])
        with pytest.raises(NotStrictlyIncreasing):
            make_grid([[0.0, 2.0, 1.0]])

    @pytest.mark.parametrize(
        "axis", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]]
    )
    def test_nonfinite_breakpoints_rejected(self, axis):
        # a NaN breakpoint once passed the strictly increasing check, and an
        # infinite one failed it only because its gap is not finite either
        with pytest.raises(ValueError, match="axis 1 has a NaN or infinite breakpoint"):
            make_grid([[0.0, 1.0], axis])

    def test_nonfinite_values_rejected(self):
        g = make_grid([[0.0, 1.0]])
        with pytest.raises(ValueError):
            make_table(g, [0.0, np.nan])

    def test_value_count_mismatch(self):
        g = make_grid([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            make_table(g, [1.0, 2.0, 3.0])

    def test_out_of_hull(self):
        g = make_grid([[0.0, 1.0]])
        t = make_table(g, [0.0, 1.0])
        with pytest.raises(OutOfHull):
            interpolate(t, [1.5])
        # round-off-level overshoot is clamped instead
        assert interpolate(t, [1.0 + 1e-13]) == pytest.approx(1.0)

    def test_below_hull(self):
        g = make_grid([[2.0, 4.0]])
        t = make_table(g, [1.0, 3.0])
        # within the slack (relative to the span 2) a point is clamped to the hull
        assert find_segment(g.axes[0], 2.0 - HULL_SLACK) == 0
        assert interpolate(t, [2.0 - HULL_SLACK]) == 1.0
        with pytest.raises(OutOfHull, match="below hull"):
            interpolate(t, [2.0 - 4 * HULL_SLACK])
        with pytest.raises(OutOfHull, match="below hull"):
            find_segment(g.axes[0], 2.0 - 4 * HULL_SLACK)

    def test_wrong_arity(self):
        t = make_table(make_grid([[0.0, 1.0], [0.0, 1.0]]), [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            interpolate(t, [0.5])


class TestSegments:
    def test_left_closed_cells(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        assert find_segment(a, 0.0) == 0
        assert find_segment(a, 1.0) == 1  # breakpoint belongs to the right cell
        assert find_segment(a, 2.5) == 2
        assert find_segment(a, 3.0) == 2  # last breakpoint stays in the last cell

    def test_weights_sum_and_support(self):
        a = np.array([0.0, 0.5, 2.0])
        xi = weights_1d(a, 0.25)
        np.testing.assert_allclose(xi, [0.5, 0.5, 0.0])
        xi = weights_1d(a, 2.0)
        np.testing.assert_allclose(xi, [0.0, 0.0, 1.0])


class TestInterpolation:
    @settings(max_examples=150, deadline=None)
    @given(table_and_point())
    def test_recursive_matches_product_sum(self, tp):
        table, x = tp
        a = interpolate(table, x)
        b = interpolate_recursive(table, x)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @settings(max_examples=100, deadline=None)
    @given(table_and_point())
    def test_lambda_weights_are_convex(self, tp):
        table, x = tp
        lw = lambda_weights(table.grid, x)
        w = np.array(list(lw.values()))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert len(lw) <= 2 ** table.grid.n
        # weighted corner values reproduce the interpolant
        val = sum(wk * table.value_at(k) for k, wk in lw.items())
        assert abs(val - interpolate(table, x)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(grid_strategy())
    def test_breakpoints_reproduced_exactly(self, grid):
        rng = np.random.default_rng(0)
        table = make_table(grid, rng.normal(size=grid.num_corners))
        for _ in range(10):
            k = tuple(int(rng.integers(a.size)) for a in grid.axes)
            x = grid.corner(k)
            assert interpolate(table, x) == table.value_at(k)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_affine_table_reproduced(self, n):
        # a table sampled from an affine function is reproduced to round-off
        rng = np.random.default_rng(1234 + n)
        axes = [np.sort(rng.uniform(0, 1, size=rng.integers(2, 5))) for _ in range(n)]
        for a in axes:
            a[0], a[-1] = 0.0, 1.0
        coef = rng.normal(size=n)
        g = make_grid(axes)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        t = make_table(g, (sum(c * m for c, m in zip(coef, mesh)) + 0.5).reshape(-1))
        for x in rng.uniform(0, 1, size=(40, n)):
            assert interpolate(t, x) == pytest.approx(coef @ x + 0.5, abs=1e-12)

    def test_affine_in_each_variable(self):
        # multilinearity: along any single axis the interpolant is affine
        rng = np.random.default_rng(5)
        g = make_grid([np.linspace(0, 1, 3)] * 3)
        t = make_table(g, rng.normal(size=27))
        base = rng.uniform(0, 1, 3)
        for j in range(3):
            # stay inside one cell so the function is a single affine piece
            lo, hi = 0.55, 0.95
            f = lambda s: interpolate(  # noqa: E731
                t, [s if k == j else base[k] for k in range(3)]
            )
            mid = 0.5 * (lo + hi)
            assert f(mid) == pytest.approx(0.5 * (f(lo) + f(hi)), abs=1e-10)


class TestProductTable:
    def test_product_exact(self):
        g = make_grid([np.linspace(0, 2, 4), np.linspace(-1, 1, 3)])
        t = product_table(g, (0, 1))
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = [rng.uniform(0, 2), rng.uniform(-1, 1)]
            assert interpolate(t, x) == pytest.approx(x[0] * x[1], abs=1e-12)

    def test_monomial_subset(self):
        g = make_grid([np.linspace(0, 1, 3)] * 3)
        t = product_table(g, (0, 2))
        assert interpolate(t, [0.3, 0.9, 0.5]) == pytest.approx(0.15, abs=1e-12)

    def test_bad_monomial(self):
        g = make_grid([[0.0, 1.0]])
        with pytest.raises(ValueError):
            product_table(g, (1,))
        with pytest.raises(ValueError):
            product_table(g, ())


class TestLocate:
    def test_locate_and_cell(self):
        g = make_grid([[0.0, 1.0, 2.0], [0.0, 10.0]])
        cell, frac = locate(g, [1.5, 5.0])
        assert cell == (1, 0)
        np.testing.assert_allclose(frac, [0.5, 0.5])

    def test_cell_corner_values_orientation(self):
        g = make_grid([[0.0, 1.0], [0.0, 1.0]])
        t = make_table(g, [0.0, 1.0, 2.0, 3.0])  # value = 2*i + j (last axis fastest)
        corners = t.cell_corner_values((0, 0))
        # corner bit j indexes axis j: bit0 -> axis0 (+2), bit1 -> axis1 (+1)
        np.testing.assert_allclose(corners, [0.0, 2.0, 1.0, 3.0])

    @pytest.mark.parametrize(
        "cell, match",
        [
            ((0,), "1 segments, grid has 2 axes"),
            ((0, 0, 0), "3 segments, grid has 2 axes"),
            ((2, 0), "segment 2 out of range on axis 0"),
            ((-1, 0), "segment -1 out of range on axis 0"),
            ((1, 1), "segment 1 out of range on axis 1"),
        ],
    )
    def test_cell_corner_values_rejects_a_cell_off_the_grid(self, cell, match):
        t = make_table(make_grid([[0.0, 1.0, 2.0], [0.0, 10.0]]), np.arange(6.0))
        with pytest.raises(ValueError, match=match):
            t.cell_corner_values(cell)


class TestProductForm:
    """The product-form evaluator equals the concatenation form bit for bit."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_concatenation_form(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            corners = rng.normal(size=1 << n)
            for shape in ((n,), (7, n), (2, 3, n)):
                theta = rng.uniform(size=shape)
                got = multilinear(corners, theta)
                assert got.shape == shape[:-1]
                assert np.array_equal(got, multilinear_concat(corners, theta))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_cell_corner_gets_all_the_weight(self, n):
        corners = np.arange(1.0, (1 << n) + 1.0)
        thetas = corner_bits(n).astype(float)
        assert np.array_equal(multilinear(corners, thetas), corners)

    def test_corner_bits_row_b_holds_the_bits_of_b(self):
        bits = corner_bits(3)
        assert bits.shape == (8, 3) and bits.dtype == bool and not bits.flags.writeable
        for b in range(8):
            assert bits[b].tolist() == [bool(b & 1), bool(b & 2), bool(b & 4)]
        assert corner_bits(3) is bits  # built once per n


class TestCellTabulation:
    """Every cell's corners and bounds are tabulated once, read-only."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tabulated_corners_equal_the_sliced_block(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(5):
            table = random_table(rng, n, max_bp=5)
            segs = [K - 1 for K in table.grid.shape]
            assert table.cell_corners.shape == (*segs, 1 << n)
            for cell in np.ndindex(*segs):
                want = cell_corners_sliced(table, cell)
                assert np.array_equal(table.cell_corners[cell], want)
                assert np.array_equal(table.cell_corner_values(cell), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tabulated_bounds_are_the_cells_breakpoints(self, n):
        grid = random_table(np.random.default_rng(20 + n), n, max_bp=5).grid
        segs = [K - 1 for K in grid.shape]
        assert grid.cell_bounds.shape == (*segs, 2, n)
        for cell in np.ndindex(*segs):
            lo = [grid.axes[j][t] for j, t in enumerate(cell)]
            hi = [grid.axes[j][t + 1] for j, t in enumerate(cell)]
            assert np.array_equal(grid.cell_bounds[cell], [lo, hi])

    def test_tabulations_are_built_once_and_read_only(self):
        table = random_table(np.random.default_rng(3), 2)
        for owner, name in ((table, "cell_corners"), (table.grid, "cell_bounds")):
            tab = getattr(owner, name)
            assert getattr(owner, name) is tab and not tab.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.cell_corner_values((0, 0))[0] = 1.0
