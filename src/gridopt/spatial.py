"""Deterministic global solver for cell-restricted multilinear subproblems.

Inside one grid cell each interpolant is a multilinear function of the
normalized cell coordinates theta in [0, 1]^n. A multilinear function is
vertex-polyhedral, so over any theta box the convex hull of its graph is the
set of convex combinations of its 2^n box corners (Rikun 1997). The node LP
relaxes each interpolant by exactly that hull: one weight per box corner,
with the inputs and the output the weighted sums of the corners and of the
function values there.

Spatial branch-and-bound branches where the hull is wrong: it picks the
interpolant whose output is furthest from f at the node LP point's theta and
splits that interpolant's widest theta interval at the LP's theta, clamped to
the middle 60 % of the interval (Belotti et al. 2009; Tawarmalani & Sahinidis
2005). A node LP point whose outputs already equal f(theta) within
``EXACT_TOL`` is itself the candidate when it meets the linear rows; otherwise
a candidate is recovered by fixing theta and repairing the remaining linear
part, then improved by coordinate descent (each step frees one theta
coordinate per interpolant and is an LP). A child whose bound cannot beat the
incumbent is pruned before any heuristic runs.

A node limit, or a box too narrow to split whose bound is below the
incumbent, ends the search unproven: the result is ``NodeLimit`` with the
least bound of every open or exhausted box.

Every node LP of one subproblem has the same rows and columns; a child box
changes only the coefficients of the corner-weight columns. So each child LP
is warm-started from its parent's final basis by the dual simplex, and the
root LP from the caller's ``basis`` (in RFE, the previous subproblem's root).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import EQ, GE, LE
from .relax import BoxNlp
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpBasis, LpProblem, solve_lp

MIN_BOX_WIDTH = 1e-9
ABS_TOL = 1e-8
REL_TOL = 1e-8
SPLIT_CLAMP = 0.2  # the split point stays this fraction of the width inside
EXACT_TOL = 1e-9  # |y - f(theta)| and row slack for an LP point to be a candidate

NODE_LIMIT = "NodeLimit"


@dataclass
class NlpResult:
    status: str  # Optimal | Infeasible | NodeLimit (x: best found, if any)
    x: Optional[np.ndarray] = None  # by position in ir.variables
    objective: float = np.inf
    bound: float = -np.inf
    nodes: int = 0
    root_basis: Optional[LpBasis] = None  # the root LP's final basis


@dataclass
class _Block:
    """One active interpolant: cell geometry and cell corner values."""

    itp_index: int
    input_pos: list[int]  # positions in ir.variables
    output_pos: int
    a_lo: np.ndarray  # cell lower corner per axis
    width: np.ndarray  # cell edge length per axis
    corners: np.ndarray  # f at the 2^n cell corners; corner bit j indexes axis j
    theta_off: int  # first theta index of this block
    n: int

    def f(self, theta: np.ndarray) -> np.ndarray:
        """f at theta of shape (..., n): corner weights dotted with the values."""
        w = np.ones(theta.shape[:-1] + (1,))
        for j in range(self.n):
            t = theta[..., j : j + 1]
            w = np.concatenate([w * (1.0 - t), w * t], axis=-1)
        return w @ self.corners


def _prepare_blocks(nlp: BoxNlp) -> tuple[list[_Block], int]:
    pos = nlp.ir.var_pos
    blocks: list[_Block] = []
    off = 0
    for i, (itp, cell) in enumerate(zip(nlp.ir.interpolants, nlp.cells)):
        if cell is None:
            continue
        grid = itp.table.grid
        a_lo = np.array([grid.axes[j][cell.t[j]] for j in range(grid.n)])
        a_hi = np.array([grid.axes[j][cell.t[j] + 1] for j in range(grid.n)])
        blocks.append(
            _Block(
                itp_index=i,
                input_pos=[pos[v] for v in itp.inputs],
                output_pos=pos[itp.output],
                a_lo=a_lo,
                width=a_hi - a_lo,
                corners=itp.table.cell_corner_values(cell),
                theta_off=off,
                n=grid.n,
            )
        )
        off += grid.n
    return blocks, off


def _theta_start(nlp: BoxNlp, blk: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Initial theta box: the cell intersected with the variable bounds."""
    lo = np.maximum(0.0, (nlp.var_lo[blk.input_pos] - blk.a_lo) / blk.width)
    hi = np.minimum(1.0, (nlp.var_hi[blk.input_pos] - blk.a_lo) / blk.width)
    return lo, hi


def _build_node_lp(
    nlp: BoxNlp, blocks: list[_Block], tlo: np.ndarray, thi: np.ndarray
) -> LpProblem:
    """LP relaxation over (ir vars, corner weights) for one theta box.

    Each block gets one weight per corner of its theta box; the inputs and
    the output are the weighted sums of the corners and of f there, which
    is the convex hull of f's graph over the box.
    """
    ir = nlp.ir
    pos = ir.var_pos
    lo = list(nlp.var_lo)
    hi = list(nlp.var_hi)
    rows: list[tuple[list[tuple[int, float]], str, float]] = [
        ([(pos[v], cf) for cf, v in c.terms], c.sense, c.rhs) for c in ir.constraints
    ]
    col = len(ir.variables)
    for blk in blocks:
        k = 1 << blk.n
        bits = (np.arange(k)[:, None] >> np.arange(blk.n)) & 1
        s = slice(blk.theta_off, blk.theta_off + blk.n)
        theta = np.where(bits, thi[s], tlo[s])  # box corners, (2^n, n)
        xs = blk.a_lo + theta * blk.width
        lam = list(range(col, col + k))
        for j, p in enumerate(blk.input_pos):
            rows.append(([(p, 1.0)] + list(zip(lam, -xs[:, j])), EQ, 0.0))
        rows.append(([(c, 1.0) for c in lam], EQ, 1.0))
        rows.append(([(blk.output_pos, 1.0)] + list(zip(lam, -blk.f(theta))), EQ, 0.0))
        lo += [0.0] * k
        hi += [1.0] * k
        col += k
    obj = np.zeros(col)
    for cf, v in ir.objective:
        obj[pos[v]] += cf
    return LpProblem.from_rows(col, obj, lo, hi, rows)


def _theta_of(blocks: list[_Block], x: np.ndarray, nth: int) -> np.ndarray:
    """Every block's theta at the inputs of x."""
    theta = np.empty(nth)
    for blk in blocks:
        s = slice(blk.theta_off, blk.theta_off + blk.n)
        theta[s] = (x[blk.input_pos] - blk.a_lo) / blk.width
    return theta


def _split(
    blocks: list[_Block], x: np.ndarray, tlo: np.ndarray, thi: np.ndarray
) -> Optional[tuple[int, float]]:
    """Theta index and split point of a node, or None if no box can be split.

    Blocks are tried by decreasing |y - f(theta)| at the node LP point x, ties
    to the lowest block; the first one with a theta interval wider than
    MIN_BOX_WIDTH is split along its widest interval (ties to the lowest
    index) at the LP's theta, clamped to the middle of the interval.
    """
    theta = _theta_of(blocks, x, len(tlo))
    viol = [
        abs(x[blk.output_pos] - float(blk.f(theta[blk.theta_off : blk.theta_off + blk.n])))
        for blk in blocks
    ]
    for i in sorted(range(len(blocks)), key=lambda i: -viol[i]):
        blk = blocks[i]
        s = slice(blk.theta_off, blk.theta_off + blk.n)
        widths = thi[s] - tlo[s]
        j = int(np.argmax(widths))
        if widths[j] > MIN_BOX_WIDTH:
            k = blk.theta_off + j
            margin = SPLIT_CLAMP * widths[j]
            return k, float(np.clip(theta[k], tlo[k] + margin, thi[k] - margin))
    return None


def _ir_lp(nlp: BoxNlp) -> LpProblem:
    """The IR's linear part over the IR variables: objective, rows and bounds."""
    ir = nlp.ir
    pos = ir.var_pos
    obj = np.zeros(len(ir.variables))
    for cf, v in ir.objective:
        obj[pos[v]] += cf
    rows = [([(pos[v], cf) for cf, v in c.terms], c.sense, c.rhs) for c in ir.constraints]
    return LpProblem.from_rows(len(obj), obj, nlp.var_lo, nlp.var_hi, rows)


def _exact_candidate(
    ir_lp: LpProblem, blocks: list[_Block], xrel: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """The node LP point as a candidate, if it already satisfies the IR.

    The IR part of xrel is clipped to the variable bounds and each output is
    set to f(theta); the point is taken when no output moved by more than
    EXACT_TOL and the output bounds and linear rows still hold within it.
    The objective is then the IR's at the point, not the LP's.
    """
    x = np.clip(xrel[: ir_lp.ncols], ir_lp.lo, ir_lp.hi)
    for blk in blocks:
        fval = float(blk.f((x[blk.input_pos] - blk.a_lo) / blk.width))
        if abs(x[blk.output_pos] - fval) > EXACT_TOL:
            return None
        x[blk.output_pos] = fval
    senses = np.array(ir_lp.senses)
    excess = ir_lp.A @ x - ir_lp.rhs
    if (
        np.any(x < ir_lp.lo - EXACT_TOL)
        or np.any(x > ir_lp.hi + EXACT_TOL)
        or np.any(excess[senses != GE] > EXACT_TOL)
        or np.any(excess[senses != LE] < -EXACT_TOL)
    ):
        return None
    return x, float(ir_lp.obj @ x)


def _pin_block(lo, hi, blk: _Block, th: np.ndarray) -> None:
    """Fix a block's inputs at theta and its output at f(theta) within its bounds.

    An f(theta) outside the output's bounds leaves lo > hi, so the LP is
    infeasible.
    """
    xin = blk.a_lo + th * blk.width
    for j, p in enumerate(blk.input_pos):
        lo[p] = hi[p] = xin[j]
    fval = float(blk.f(th))
    p = blk.output_pos
    lo[p] = max(lo[p], fval)
    hi[p] = min(hi[p], fval)


def _candidate_from_theta(
    ir_lp: LpProblem, blocks: list[_Block], theta: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """Fix theta, pin the interpolant columns, repair the linear remainder."""
    lo = ir_lp.lo.copy()
    hi = ir_lp.hi.copy()
    for blk in blocks:
        _pin_block(lo, hi, blk, theta[blk.theta_off : blk.theta_off + blk.n])
    res = solve_lp(ir_lp, lo, hi)
    if res.status != OPTIMAL:
        return None
    return res.x.copy(), res.objective


def _coordinate_descent(
    nlp: BoxNlp,
    blocks: list[_Block],
    theta: np.ndarray,
    tlo: np.ndarray,
    thi: np.ndarray,
    best: tuple[np.ndarray, float],
) -> tuple[np.ndarray, tuple[np.ndarray, float]]:
    """Improve a candidate by re-optimizing one theta coordinate per block at a time.

    Step j frees coordinate j of every block that has one, as its own column,
    and fixes the others. Each interpolant output is then affine in its
    block's free coordinate, so the step is an exact LP, and blocks coupled
    by a linear row move together.
    """
    ir = nlp.ir
    nv = len(ir.variables)
    pos = ir.var_pos
    base_rows = [
        ([(pos[v], cf) for cf, v in c.terms], c.sense, c.rhs)
        for c in ir.constraints
    ]
    for _ in range(3):
        improved = False
        for jfree in range(max((blk.n for blk in blocks), default=0)):
            free = [blk.theta_off + jfree for blk in blocks if jfree < blk.n]
            lo = list(nlp.var_lo) + [tlo[k] for k in free]
            hi = list(nlp.var_hi) + [thi[k] for k in free]
            rows = list(base_rows)
            col = nv
            for blk in blocks:
                th = theta[blk.theta_off : blk.theta_off + blk.n]
                if jfree >= blk.n:
                    _pin_block(lo, hi, blk, th)
                    continue
                for j, p in enumerate(blk.input_pos):
                    if j == jfree:
                        rows.append(
                            ([(p, 1.0), (col, -blk.width[j])], EQ, float(blk.a_lo[j]))
                        )
                    else:
                        lo[p] = hi[p] = blk.a_lo[j] + th[j] * blk.width[j]
                ends = np.repeat(th[None, :], 2, axis=0)
                ends[:, jfree] = (0.0, 1.0)
                const, at_one = blk.f(ends)
                slope = at_one - const
                rows.append(([(blk.output_pos, 1.0), (col, -slope)], EQ, const))
                col += 1
            obj = np.zeros(col)
            for cf, v in ir.objective:
                obj[pos[v]] += cf
            res = solve_lp(LpProblem.from_rows(col, obj, lo, hi, rows))
            if res.status == OPTIMAL and res.objective < best[1] - 1e-12:
                theta = theta.copy()
                theta[free] = res.x[nv:]
                best = (res.x[:nv].copy(), res.objective)
                improved = True
        if not improved:
            break
    return theta, best


def solve_box_nlp(
    nlp: BoxNlp,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
    node_limit: int = 100_000,
    basis: Optional[LpBasis] = None,
) -> NlpResult:
    """Globally minimize the IR objective over one cell assignment.

    ``basis`` warm-starts the root LP; it may come from another subproblem
    (``solve_lp`` falls back to a cold start when it does not fit).
    """
    if np.any(nlp.var_lo > nlp.var_hi + 1e-12):
        return NlpResult(status=INFEASIBLE)
    blocks, nth = _prepare_blocks(nlp)
    tlo0 = np.zeros(nth)
    thi0 = np.ones(nth)
    for blk in blocks:
        l, h = _theta_start(nlp, blk)
        tlo0[blk.theta_off : blk.theta_off + blk.n] = l
        thi0[blk.theta_off : blk.theta_off + blk.n] = h
    if np.any(tlo0 > thi0 + 1e-12):
        return NlpResult(status=INFEASIBLE)

    ir_lp = _ir_lp(nlp)
    best: Optional[tuple[np.ndarray, float]] = None
    nodes = 0
    tick = itertools.count()

    def pruned(node_bound: float) -> bool:
        return best is not None and node_bound >= best[1] - max(
            abs_tol, rel_tol * abs(best[1])
        )

    def try_point(xrel: np.ndarray, tlo: np.ndarray, thi: np.ndarray) -> None:
        nonlocal best
        cand = _exact_candidate(ir_lp, blocks, xrel)
        if cand is None:
            theta = np.clip(_theta_of(blocks, xrel, nth), tlo, thi)
            cand = _candidate_from_theta(ir_lp, blocks, theta)
            if cand is None:
                return
            _, cand = _coordinate_descent(nlp, blocks, theta, tlo0, thi0, cand)
        if best is None or cand[1] < best[1] - 1e-15:
            best = cand

    lp = _build_node_lp(nlp, blocks, tlo0, thi0)
    root = solve_lp(lp, basis=basis)
    nodes += 1
    if root.status == INFEASIBLE:
        return NlpResult(status=INFEASIBLE, nodes=nodes)
    if root.status == UNBOUNDED:
        return NlpResult(status=OPTIMAL, objective=-np.inf, bound=-np.inf, nodes=nodes)
    try_point(root.x, tlo0, thi0)

    heap: list = [(root.objective, next(tick), tlo0, thi0, root.x, root.basis)]
    floor = np.inf  # least bound of a box left open: exhausted, or at the node limit
    while heap:
        node_bound, _, tlo, thi, xrel, start = heapq.heappop(heap)
        if pruned(node_bound):
            break  # so is every node still on the heap
        if nodes >= node_limit:
            floor = min(floor, node_bound)  # no node left on the heap is lower
            break
        split = _split(blocks, xrel, tlo, thi)
        if split is None:
            floor = min(floor, node_bound)
            continue
        k, at = split
        for half in (0, 1):
            clo = tlo.copy()
            chi = thi.copy()
            if half == 0:
                chi[k] = at
            else:
                clo[k] = at
            lp = _build_node_lp(nlp, blocks, clo, chi)
            res = solve_lp(lp, basis=start)
            nodes += 1
            if res.status != OPTIMAL or pruned(res.objective):
                continue
            try_point(res.x, clo, chi)
            if pruned(res.objective):
                continue
            heapq.heappush(heap, (res.objective, next(tick), clo, chi, res.x, res.basis))

    x, objective = best if best is not None else (None, np.inf)
    if floor < np.inf and not pruned(floor):
        return NlpResult(
            status=NODE_LIMIT, x=x, objective=objective, bound=floor, nodes=nodes,
            root_basis=root.basis,
        )
    if best is None:
        return NlpResult(status=INFEASIBLE, nodes=nodes, root_basis=root.basis)
    return NlpResult(
        status=OPTIMAL, x=x, objective=objective, bound=objective, nodes=nodes,
        root_basis=root.basis,
    )
