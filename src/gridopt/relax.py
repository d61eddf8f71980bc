"""MILP relaxation of the interpolation problem, fixing, and exclusion cuts.

The relaxation replaces each interpolant's weight products by their convex
envelope: per-axis convex-combination weights, corner weights coupled through
marginalization rows, and one binary per consecutive-breakpoint segment
realizing the SOS2 condition. Cuts are plain linear rows appended to the model;
the model is otherwise immutable once built.

This module is the only one that turns a MILP point into a cell and a cell
into a subproblem. A fixing reads each axis's segment from the segment
binaries (Beale & Tomlin 1970), the columns its no-good cut is written on.
The subproblem confines each active interpolant to its cell and hands the
spatial solver one ``CellBlock`` per active interpolant: the cell's lower
corner and widths, and the function values at its corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gridtab import Grid, multilinear
from .model import BINARY, EQ, GE, LE, ProblemIR
from .simplex import LpProblem


@dataclass
class Row:
    terms: list[tuple[int, float]]  # (column, coefficient)
    sense: str
    rhs: float
    name: str = ""


@dataclass
class InterpBlock:
    """Column bookkeeping for one interpolant inside the relaxation."""

    grid: Grid
    activation_col: Optional[int]
    xi_cols: list[list[int]]  # per axis, per breakpoint
    seg_cols: list[list[int]]  # per axis, per segment
    lam_cols: np.ndarray  # flat, same ordering as the table values


@dataclass
class MilpModel:
    """The relaxation's columns and rows. Its first columns are the IR
    variables, each at its position ``ir.var_pos``."""

    names: list[str]
    lo: list[float]
    hi: list[float]
    is_binary: list[bool]
    obj: dict[int, float]
    rows: list[Row]  # the interpolant rows, the IR's rows, then the cuts
    blocks: list[InterpBlock]
    ir: ProblemIR
    cuts: list[int] = field(default_factory=list)  # row indices

    @property
    def ncols(self) -> int:
        return len(self.names)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def nonzeros(self) -> int:
        return sum(len(r.terms) for r in self.rows)

    def binary_cols(self) -> list[int]:
        return [j for j, b in enumerate(self.is_binary) if b]

    def to_lp(self) -> LpProblem:
        obj = np.zeros(self.ncols)
        for col, coef in self.obj.items():
            obj[col] += coef
        return LpProblem.from_rows(
            self.ncols,
            obj,
            self.lo,
            self.hi,
            [(r.terms, r.sense, r.rhs) for r in self.rows],
        )


@dataclass(frozen=True)
class Fixing:
    """One segment per axis of each active interpolant plus a full binary assignment."""

    segments: tuple[Optional[tuple[int, ...]], ...]  # None marks an inactive interpolant
    y: tuple[int, ...]  # one per ProblemIR.binary_ids, in that order


@dataclass
class CellBlock:
    """One active interpolant of a subproblem: its cell and the corner values there."""

    input_pos: np.ndarray  # positions in ir.variables
    output_pos: int
    a_lo: np.ndarray  # cell lower corner per axis
    width: np.ndarray  # cell edge length per axis
    corners: np.ndarray  # f at the 2^n cell corners; corner bit j indexes axis j
    n: int

    def f(self, x: np.ndarray) -> np.ndarray:
        """f at input values x of shape (..., n): the cell's corner weights
        dotted with its corner values."""
        return multilinear(self.corners, (x - self.a_lo) / self.width)


@dataclass
class BoxNlp:
    """Cell-restricted NLP subproblem: every interpolant confined to one cell.

    The bounds of each active interpolant's inputs lie within its cell.
    """

    ir: ProblemIR
    var_lo: np.ndarray  # by position in ir.variables
    var_hi: np.ndarray
    blocks: list[CellBlock]  # the active interpolants, in IR order


def build_relaxation(ir: ProblemIR) -> MilpModel:
    """Assemble the MILP relaxation of the IR in extended weight space."""
    names: list[str] = []
    lo: list[float] = []
    hi: list[float] = []
    isbin: list[bool] = []

    def add_col(name, l, h, binary=False) -> int:
        names.append(name)
        lo.append(float(l))
        hi.append(float(h))
        isbin.append(binary)
        return len(names) - 1

    pos = ir.var_pos
    for v in ir.variables:
        add_col(v.name or f"v{v.id}", v.lo, v.hi, v.kind == BINARY)

    rows: list[Row] = []
    blocks: list[InterpBlock] = []
    for i, itp in enumerate(ir.interpolants):
        grid = itp.table.grid
        sizes = grid.shape
        act = pos[itp.activation] if itp.activation is not None else None
        xi_cols = [
            [add_col(f"xi{i}_{j}_{k}", 0.0, 1.0) for k in range(K)]
            for j, K in enumerate(sizes)
        ]
        lam_cols = np.array(
            [add_col(f"lam{i}_{k}", 0.0, 1.0) for k in range(grid.num_corners)],
            dtype=np.int64,
        )
        seg_cols = [
            [add_col(f"s{i}_{j}_{t}", 0.0, 1.0, binary=True) for t in range(K - 1)]
            for j, K in enumerate(sizes)
        ]
        lam_grid = lam_cols.reshape(sizes)
        for j, K in enumerate(sizes):
            axis = grid.axes[j]
            rows.append(
                Row(
                    [(pos[itp.inputs[j]], 1.0)]
                    + [(xi_cols[j][k], -float(axis[k])) for k in range(K)],
                    EQ,
                    0.0,
                    f"link{i}_{j}",
                )
            )
            conv = [(xi_cols[j][k], 1.0) for k in range(K)]
            if act is None:
                rows.append(Row(conv, EQ, 1.0, f"conv{i}_{j}"))
            else:
                rows.append(Row(conv + [(act, -1.0)], EQ, 0.0, f"conv{i}_{j}"))
            for k in range(K):
                margin = [(xi_cols[j][k], 1.0)] + [
                    (int(c), -1.0) for c in np.take(lam_grid, k, axis=j).ravel()
                ]
                rows.append(Row(margin, EQ, 0.0, f"marg{i}_{j}_{k}"))
            segsum = [(seg_cols[j][t], 1.0) for t in range(K - 1)]
            if act is None:
                rows.append(Row(segsum, EQ, 1.0, f"seg{i}_{j}"))
            else:
                rows.append(Row(segsum + [(act, -1.0)], EQ, 0.0, f"seg{i}_{j}"))
            for k in range(K):
                terms = [(xi_cols[j][k], 1.0)]
                if k - 1 >= 0:
                    terms.append((seg_cols[j][k - 1], -1.0))
                if k <= K - 2:
                    terms.append((seg_cols[j][k], -1.0))
                rows.append(Row(terms, LE, 0.0, f"sos{i}_{j}_{k}"))
        rows.append(
            Row(
                [(pos[itp.output], 1.0)]
                + [
                    (int(lam_cols[k]), -float(itp.table.values[k]))
                    for k in range(grid.num_corners)
                ],
                EQ,
                0.0,
                f"out{i}",
            )
        )
        blocks.append(
            InterpBlock(
                grid=grid,
                activation_col=act,
                xi_cols=xi_cols,
                seg_cols=seg_cols,
                lam_cols=lam_cols,
            )
        )

    for (terms, sense, rhs), c in zip(ir.rows, ir.constraints):
        rows.append(Row(list(terms), sense, rhs, c.name))

    obj: dict[int, float] = {}
    for coef, v in ir.objective:
        obj[pos[v]] = obj.get(pos[v], 0.0) + coef

    return MilpModel(
        names=names,
        lo=lo,
        hi=hi,
        is_binary=isbin,
        obj=obj,
        rows=rows,
        blocks=blocks,
        ir=ir,
    )


def extract_fixing(milp: MilpModel, solution: np.ndarray) -> Fixing:
    """Read the discrete decisions out of an integral relaxation solution.

    Each axis's segment is the one whose binary is set, the same binaries
    the no-good cut is written on; an interpolant whose activation binary is
    0 gives None.
    """
    solution = np.asarray(solution, dtype=float)
    segments: list[Optional[tuple[int, ...]]] = []
    for blk in milp.blocks:
        if blk.activation_col is not None and solution[blk.activation_col] < 0.5:
            segments.append(None)
        else:
            segments.append(tuple(int(np.argmax(solution[cols])) for cols in blk.seg_cols))
    y = tuple(int(round(solution[milp.ir.var_pos[b]])) for b in milp.ir.binary_ids)
    return Fixing(segments=tuple(segments), y=y)


def add_no_good_cut(milp: MilpModel, fixing: Fixing) -> int:
    """Append a row excluding the fixing's discrete assignment; returns row index.

    The row requires at least one chosen segment or binary to change. Segments
    of inactive interpolants are omitted; their exclusion rides on the
    activation binary's term.
    """
    terms: list[tuple[int, float]] = []
    ones = 0
    for blk, segs in zip(milp.blocks, fixing.segments):
        if segs is None:
            continue
        for j, t in enumerate(segs):
            terms.append((blk.seg_cols[j][t], -1.0))
            ones += 1
    for vid, val in zip(milp.ir.binary_ids, fixing.y):
        col = milp.ir.var_pos[vid]
        if val == 1:
            terms.append((col, -1.0))
            ones += 1
        else:
            terms.append((col, 1.0))
    row = Row(terms, GE, 1.0 - ones, f"cut{len(milp.cuts)}")
    milp.rows.append(row)
    idx = len(milp.rows) - 1
    milp.cuts.append(idx)
    return idx


def build_subproblem(ir: ProblemIR, fixing: Fixing) -> BoxNlp:
    """Confine every interpolant input to its fixed cell and pin the binaries.

    Each active interpolant's output is bounded by its cell's corner values,
    and becomes one of the subproblem's blocks. An inactive interpolant's
    inputs and output are 0, as in the relaxation: each of their bounds is
    intersected with 0, so one that excludes 0 leaves a crossed box, which
    ``spatial.solve_box_nlp`` closes ``Infeasible``. The bounds start from
    the IR's (``ProblemIR.bounds``) and a cell's data is read from its
    grid's and table's tabulation.
    """
    var_lo, var_hi = (b.copy() for b in ir.bounds)
    var_lo[ir.binary_pos] = var_hi[ir.binary_pos] = fixing.y
    blocks: list[CellBlock] = []
    for itp, inputs, segs in zip(ir.interpolants, ir.input_pos, fixing.segments):
        out = ir.var_pos[itp.output]
        if segs is None:
            zeroed = [*inputs, out]
            var_lo[zeroed] = np.maximum(var_lo[zeroed], 0.0)
            var_hi[zeroed] = np.minimum(var_hi[zeroed], 0.0)
            continue
        corners = itp.table.cell_corner_values(segs)
        a_lo, a_hi = itp.table.grid.cell_bounds[segs]
        var_lo[inputs] = np.maximum(var_lo[inputs], a_lo)  # inputs are distinct (build_problem)
        var_hi[inputs] = np.minimum(var_hi[inputs], a_hi)
        values = corners.tolist()
        var_lo[out] = max(var_lo[out], min(values))
        var_hi[out] = min(var_hi[out], max(values))
        blocks.append(CellBlock(inputs, out, a_lo, a_hi - a_lo, corners, inputs.size))
    return BoxNlp(ir=ir, var_lo=var_lo, var_hi=var_hi, blocks=blocks)
