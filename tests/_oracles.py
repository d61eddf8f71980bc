"""Independent oracles for tests: interpolation weights, cell corners,
relaxation sizes and row violations.

None of these is on the solve path. They compute the interpolant, a cell's
corner values and the relaxation's size by other routes than
``gridtab.multilinear``, ``LookupTable.cell_corners`` and
``relax.build_relaxation``, so the tests can check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gridopt.gridtab import Grid, LookupTable, find_segment, locate
from gridopt.model import ProblemIR


def _inside(axis: np.ndarray, x: float) -> tuple[int, float]:
    """Segment of x and x clamped to the axis (OutOfHull beyond the slack)."""
    k = find_segment(axis, x)
    return k, min(max(float(x), float(axis[0])), float(axis[-1]))


def weights_1d(axis: Sequence[float], x: float) -> np.ndarray:
    """Convex-combination weights of x over one axis (two consecutive nonzeros)."""
    a = np.asarray(axis, dtype=float)
    k, x = _inside(a, x)
    xi = np.zeros(a.size)
    frac = (x - a[k]) / (a[k + 1] - a[k])
    xi[k] = 1.0 - frac
    xi[k + 1] = frac
    return xi


def lambda_weights(grid: Grid, x: Sequence[float]) -> dict[tuple[int, ...], float]:
    """Corner weights of x: products of the per-axis 1-D weights.

    Returns the nonzero weights only, keyed by corner multi-index; the support
    lies on the corners of a single cell, so there are at most 2^n entries.
    """
    cell, frac = locate(grid, x)
    out: dict[tuple[int, ...], float] = {}
    n = grid.n
    for corner in range(1 << n):
        lam = 1.0
        k = []
        for j in range(n):
            bit = (corner >> j) & 1
            lam *= frac[j] if bit else 1.0 - frac[j]
            k.append(cell[j] + bit)
        if lam > 0.0:
            out[tuple(k)] = lam
    return out


def interpolate_recursive(table: LookupTable, x: Sequence[float]) -> float:
    """Interpolant value via per-axis recursive reduction.

    Independent of the product-sum path in ``gridtab.interpolate``; the two
    must agree to machine precision on any in-hull point.
    """
    grid = table.grid
    x = np.asarray(x, dtype=float)
    block = np.asarray(table.values).reshape(grid.shape)
    for j in range(grid.n):
        a = grid.axes[j]
        k, xj = _inside(a, x[j])
        w = (xj - a[k]) / (a[k + 1] - a[k])
        block = (1.0 - w) * block[k] + w * block[k + 1]
    return float(block)


def multilinear_concat(corners: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``gridtab.multilinear`` with the corner weights built axis by axis:
    the weights of axes 0..j-1 times 1 - theta_j, then times theta_j. The
    same products in the same order as the product form, so the two agree
    bit for bit."""
    w = np.ones(theta.shape[:-1] + (1,))
    for j in range(theta.shape[-1]):
        t = theta[..., j : j + 1]
        w = np.concatenate([w * (1.0 - t), w * t], axis=-1)
    return w @ corners


def cell_corners_sliced(table: LookupTable, cell: Sequence[int]) -> np.ndarray:
    """A cell's corner values cut from the table: the 2 x ... x 2 block at
    the cell, flattened with axis 0 fastest, so corner bit j indexes axis j."""
    block = np.asarray(table.values).reshape(table.grid.shape)[tuple(slice(t, t + 2) for t in cell)]
    return block.flatten(order="F")


@dataclass(frozen=True)
class SizeRecord:
    """Column/row accounting of the relaxation induced by an IR."""

    n_xi: int
    n_lambda: int
    n_y: int
    n_segment: int
    n_vars: int
    rows: int
    cols: int
    nonzeros: int
    zero_terms: int  # of the nonzeros, those whose coefficient is exactly 0


def problem_size(ir: ProblemIR) -> SizeRecord:
    """Closed-form size of the relaxation that build_relaxation creates.

    Nonzeros are structural: one per stored coefficient, table zeros included.
    Of these, ``zero_terms`` count a coefficient that is exactly 0: a
    constraint's, a breakpoint at 0 in a linking row, a table value of 0 in
    an output row. A dense matrix holds none of them.
    """
    n_xi = n_lambda = n_seg = 0
    rows = len(ir.constraints)
    nnz = sum(len(c.terms) for c in ir.constraints)
    zeros = sum(cf == 0.0 for c in ir.constraints for cf, _ in c.terms)
    for itp in ir.interpolants:
        sizes = itp.table.grid.shape
        prod = int(np.prod(sizes))
        act = 1 if itp.activation is not None else 0
        zeros += int(np.sum(itp.table.values == 0.0))
        for K, axis in zip(sizes, itp.table.grid.axes):
            zeros += int(np.sum(np.asarray(axis) == 0.0))
            n_xi += K
            n_seg += K - 1
            rows += 3 + 2 * K
            nnz += (1 + K)  # linking row
            nnz += K + act  # convexity row
            nnz += K + prod  # marginalization rows
            nnz += (K - 1) + act  # segment-sum row
            nnz += 3 * K - 2  # xi <= s rows
        n_lambda += prod
        rows += 1  # output row
        nnz += 1 + prod
    n_vars = len(ir.variables)
    return SizeRecord(
        n_xi=n_xi, n_lambda=n_lambda, n_y=ir.num_binaries, n_segment=n_seg,
        n_vars=n_vars, rows=rows, cols=n_vars + n_xi + n_lambda + n_seg, nonzeros=nnz,
        zero_terms=zeros,
    )


def row_violations(lp, z: np.ndarray) -> np.ndarray:
    """How far z misses each row of ``lp``: above a ``<=`` right-hand side,
    below a ``>=`` one, off an ``=`` one; at most 0 where the row holds."""
    excess = lp.A @ z - lp.rhs
    senses = np.array(lp.senses)
    return np.where(senses == "<=", excess, np.where(senses == ">=", -excess, np.abs(excess)))
