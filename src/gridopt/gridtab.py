"""Rectangular breakpoint grids, look-up tables, and exact multilinear interpolation.

A table stores one value per grid corner, flattened in lexicographic order with
the *last* axis varying fastest (C order). Grids and tables are immutable after
construction and safe to share across threads.

There is one evaluator, :func:`multilinear`: inside a cell the interpolant is
the cell's corner values weighted by the product over axes of theta_j or
1 - theta_j. It computes the weights in product form,
``np.where(bits, theta, 1 - theta).prod(-1)``, where ``bits`` is
:func:`corner_bits`, the one table of which corner bit is set on which axis:
corner b of a cell or a box is bit j of b on axis j. :func:`interpolate`
locates the cell of a point and applies it; the spatial solver applies it to
a cell's corner values directly, and reads the same bit table to place a
box's corners.

Per-cell data is tabulated once per grid or table, on first use, and kept
read-only: :attr:`LookupTable.cell_corners` holds every cell's corner values
(at most 2^n times the table's size) and :attr:`Grid.cell_bounds` every
cell's lower and upper corner, so a cell's data is one index away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import AxisTooShort, NotStrictlyIncreasing, OutOfHull

#: points this far (relative to axis span) outside the hull are clamped,
#: absorbing solver round-off; anything farther raises OutOfHull.
HULL_SLACK = 1e-9


@dataclass(frozen=True)
class Grid:
    """Rectangular grid of per-axis breakpoints."""

    axes: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @property
    def num_corners(self) -> int:
        return int(np.prod([a.size for a in self.axes]))

    @property
    def num_cells(self) -> int:
        return int(np.prod([a.size - 1 for a in self.axes]))

    def flat_index(self, k: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(k), self.shape))

    def corner(self, k: Sequence[int]) -> np.ndarray:
        return np.array([self.axes[j][k[j]] for j in range(self.n)])

    @cached_property
    def cell_bounds(self) -> np.ndarray:
        """Every cell's lower and upper corner, read-only, of shape
        (segments per axis..., 2, n): ``cell_bounds[cell]`` is the lower
        corner of the cell given by one segment index per axis, then its
        upper corner."""
        ends = [
            np.stack(np.meshgrid(*(a[b : a.size - 1 + b] for a in self.axes), indexing="ij"), -1)
            for b in (0, 1)
        ]
        out = np.stack(ends, axis=-2)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class LookupTable:
    """Grid plus one finite value per corner (flat, last axis fastest)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.size != self.grid.num_corners:
            raise ValueError(
                f"table has {self.values.size} values, grid has "
                f"{self.grid.num_corners} corners"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("table values must be finite")

    def value_at(self, k: Sequence[int]) -> float:
        return float(self.values[self.grid.flat_index(k)])

    @cached_property
    def cell_corners(self) -> np.ndarray:
        """Every cell's 2^n corner values, read-only, of shape (segments per
        axis..., 2^n), in :func:`corner_bits` order."""
        v = self.values.reshape(self.grid.shape)
        segs = [K - 1 for K in self.grid.shape]
        bits = corner_bits(self.grid.n)
        out = np.stack([v[tuple(map(slice, row, row + segs))] for row in bits.astype(int)], -1)
        out.setflags(write=False)
        return out

    def cell_corner_values(self, cell: Sequence[int]) -> np.ndarray:
        """Values at the 2^n corners of a cell, given as one segment index per
        axis; corner bit j indexes axis j. The cell's row of
        :attr:`cell_corners`, once every segment is checked to be on the grid
        (a negative index would wrap)."""
        if len(cell) != self.grid.n:
            raise ValueError(f"cell has {len(cell)} segments, grid has {self.grid.n} axes")
        for j, t in enumerate(cell):
            if not 0 <= t <= self.grid.axes[j].size - 2:
                raise ValueError(f"segment {t} out of range on axis {j}")
        return self.cell_corners[tuple(cell)]


def make_grid(axes: Iterable[Sequence[float]]) -> Grid:
    """Validate per-axis breakpoints and build a Grid."""
    arrs = []
    for j, raw in enumerate(axes):
        a = np.asarray(raw, dtype=float).copy()
        if a.ndim != 1 or a.size < 2:
            raise AxisTooShort(f"axis {j} needs at least 2 breakpoints")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"axis {j} has a NaN or infinite breakpoint")
        diffs = np.diff(a)
        scale = np.maximum(1.0, np.maximum(np.abs(a[:-1]), np.abs(a[1:])))
        if np.any(diffs <= 1e-12 * scale):
            raise NotStrictlyIncreasing(f"axis {j} is not strictly increasing")
        a.setflags(write=False)
        arrs.append(a)
    if not arrs:
        raise AxisTooShort("grid needs at least one axis")
    return Grid(axes=tuple(arrs))


def make_table(grid: Grid, values: Sequence[float]) -> LookupTable:
    v = np.asarray(values, dtype=float).copy()
    v.setflags(write=False)
    return LookupTable(grid=grid, values=v)


def _clamp(axis: np.ndarray, x: float, what: str) -> float:
    span = float(axis[-1] - axis[0])
    slack = HULL_SLACK * span
    if x < axis[0]:
        if axis[0] - x > slack:
            raise OutOfHull(f"{what}={x} below hull [{axis[0]}, {axis[-1]}]")
        return float(axis[0])
    if x > axis[-1]:
        if x - axis[-1] > slack:
            raise OutOfHull(f"{what}={x} above hull [{axis[0]}, {axis[-1]}]")
        return float(axis[-1])
    return float(x)


def find_segment(axis: np.ndarray, x: float) -> int:
    """Left-closed cell containing x: ties at a breakpoint go left-closed."""
    x = _clamp(axis, x, "x")
    k = int(np.searchsorted(axis, x, side="right")) - 1
    return min(max(k, 0), axis.size - 2)


def locate(grid: Grid, x: Sequence[float]) -> tuple[tuple[int, ...], np.ndarray]:
    """Cell containing x, one segment index per axis, and the per-axis
    fractional coordinates in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if x.size != grid.n:
        raise ValueError(f"point has {x.size} coordinates, grid has {grid.n} axes")
    t = []
    frac = np.empty(grid.n)
    for j in range(grid.n):
        a = grid.axes[j]
        xj = _clamp(a, float(x[j]), f"x[{j}]")
        k = find_segment(a, xj)
        t.append(k)
        frac[j] = (xj - a[k]) / (a[k + 1] - a[k])
    return tuple(t), frac


@cache
def corner_bits(n: int) -> np.ndarray:
    """The (2^n, n) read-only boolean table whose row b holds bit j of b in
    column j: whether corner b of a cell or box is at its upper end on axis j."""
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    bits.setflags(write=False)
    return bits


def multilinear(corners: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Interpolant at theta of shape (..., n) from a cell's 2^n corner values.

    ``corners`` is ordered as :meth:`LookupTable.cell_corner_values` returns
    it (corner bit j indexes axis j); theta holds the fractional coordinates
    in the cell. The corner weights, each the product over axes of theta_j
    or 1 - theta_j, dotted with the values.
    """
    t = theta[..., None, :]
    return np.where(corner_bits(theta.shape[-1]), t, 1.0 - t).prod(-1) @ corners


def interpolate(table: LookupTable, x: Sequence[float]) -> float:
    """Multilinear interpolant value at x: the cell's corners, weighted."""
    cell, frac = locate(table.grid, x)
    return float(multilinear(table.cell_corner_values(cell), frac))


def product_table(grid: Grid, monomial: Iterable[int]) -> LookupTable:
    """Table whose value at each corner is the product of the selected coordinates.

    ``monomial`` holds distinct 0-based axis indices. Coordinate products are
    multilinear, so interpolating this table reproduces the exact product
    anywhere inside the hull.
    """
    dims = sorted(set(int(d) for d in monomial))
    if not dims:
        raise ValueError("monomial must name at least one axis")
    for d in dims:
        if not 0 <= d < grid.n:
            raise ValueError(f"monomial axis {d} out of range")
    factors = [grid.axes[j] if j in dims else np.ones(grid.axes[j].size) for j in range(grid.n)]
    mesh = np.meshgrid(*factors, indexing="ij")
    vals = np.ones(grid.shape)
    for j in dims:
        vals = vals * mesh[j]
    flat = vals.reshape(-1).copy()
    flat.setflags(write=False)
    return LookupTable(grid=grid, values=flat)
