"""Deterministic global solver for cell-restricted multilinear subproblems.

Inside one grid cell each interpolant is a multilinear function of its
inputs. A multilinear function is vertex-polyhedral, so over any box of its
inputs the convex hull of its graph is the set of convex combinations of its
2^n box corners (Rikun 1997).

The subproblem comes from ``relax.build_subproblem``: the IR variables'
bounds, already inside the cells, and one ``relax.CellBlock`` per active
interpolant, which holds its cell and evaluates f there. Spatial reads the
blocks and adds no cell geometry of its own.

Before its root LP, a subproblem is screened by one pass over the IR's
linear rows: a row whose activity range over the subproblem's bounds misses
its right-hand side proves the cell empty, and the result is ``Infeasible``
with 0 nodes and no LP. The screen reads bounds and rows ``FEAS_TOL`` wider,
the simplex's own tolerance, so it never drops a cell that the root LP would
keep. It tightens no bound: on every cell of the desk, cut and pool instances
(24,051 cells), rounds of bound propagation (Ryoo & Sahinidis 1996, Belotti
et al. 2009) rejected exactly the cells that this one pass rejects. Each
pinned step (below) runs the same screen over its pinned bounds and gives no
candidate, with no LP, when a row misses. Pinning every input and output
leaves a row little room: enumerating the eight desk S1 instances of the
benchmark, the screen rejects 50 of 57 pinned steps.

A spatial node's box is the lower and upper bounds of the IR variables; the
root box is the subproblem's bounds. The node LP takes the box as its column
bounds and relaxes each interpolant by the hull over its own inputs' bounds:
one weight per box corner, with the inputs and the output the weighted sums
of the corners and of the function values there.

Spatial branch-and-bound branches where the hull is wrong: it picks the
interpolant whose output is furthest from f at the node LP point and splits
that interpolant's widest input, measured in cell widths, at the LP value
clamped to the middle 60 % of its interval (Belotti et al. 2009; Tawarmalani
& Sahinidis 2005). A child changes that one variable's bound, which narrows
the hull of every interpolant that reads it. A node LP point whose outputs
already equal f within ``EXACT_TOL`` is itself the candidate when it meets the
linear rows. Otherwise candidates come from pinned steps: LPs over the IR's
linear part that fix every input at a point except a free set, at most one
input per interpolant, so every output is affine in a free input or pinned
at f. The repair is the step with no free input at the LP point, clipped to
the box; coordinate descent then improves its point by steps that free some.

Every box takes one path through one heap of ``bnb.Node``, the root
included. A child box is unsolved until it is popped: it waits under its
parent's bound with its parent's final basis. Popping it solves its LP, warm
from that basis by the dual simplex. Unless the LP is infeasible or its bound
cannot beat the incumbent (``bnb.prune_level`` with ``GAP``), the LP point is
tried as a candidate and the box goes back on the heap under its own bound.
Popping a solved box splits it into two unsolved children, so a child whose
parent's bound the incumbent prunes before it is popped gets no LP. The root
is the first unsolved box, warm from the caller's ``basis`` (in RFE, the
previous subproblem's root); an unbounded root LP makes the result
``Unbounded``.
``MAX_NODES`` node LPs, or a box too narrow to split whose bound is below the
incumbent, end the search unproven: the result is ``NodeLimit`` with the least
bound of every open or exhausted box.

A subproblem that reaches an LP builds its node LP once, since every box has
the same rows and columns; a popped box writes its column bounds into it
before its solve, and the corner coefficients, -x and -f(x) at the box
corners, of each interpolant whose inputs' bounds differ from the box written
before. A child box changes one column bound and the corners of the
interpolants that read it, which is why the parent's basis is a good start.
The node LP's first rows are the IR's, ``ProblemIR.rows`` over the IR
columns, and no box write touches them: the exact check and every pinned
step read the IR's rows and objective there.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bnb import Node, prune_level
from .model import EQ, GE, LE, ProblemIR
from .relax import BoxNlp, CellBlock
from .simplex import FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpBasis, LpProblem, solve_lp

MAX_NODES = 100_000  # node LPs before the status "NodeLimit"
MIN_BOX_WIDTH = 1e-9  # in cell widths
GAP = 1e-8  # a box closes within this of the incumbent, relative to max(1, |incumbent|)
SPLIT_CLAMP = 0.2  # the split point stays this fraction of the width inside
EXACT_TOL = 1e-9  # |y - f| and row slack for an LP point to be a candidate
ROUND_OFF = 1e-9  # a screened activity moves this far toward the rhs, relative to max(1, |it|)

NODE_LIMIT = "NodeLimit"


@dataclass
class NlpResult:
    status: str  # Optimal | Infeasible | Unbounded | NodeLimit (x: best found, if any)
    x: Optional[np.ndarray] = None  # by position in ir.variables
    objective: float = np.inf
    bound: float = -np.inf
    nodes: int = 0
    root_basis: Optional[LpBasis] = None  # the root LP's final basis


def _rows_exclude_box(ir: ProblemIR, var_lo: np.ndarray, var_hi: np.ndarray) -> bool:
    """Whether a linear row misses its right-hand side over the whole box
    [var_lo, var_hi] of the IR variables.

    One pass over ``ir.rows`` reads each row's least and greatest
    activity over the box: the box is empty when a ``<=`` or ``=`` row's
    least activity is above its right-hand side, or a ``>=`` or ``=`` row's
    greatest activity is below it. The margins follow the simplex's own
    tolerance, so no box that the root LP would call feasible is rejected:
    the bounds and right-hand sides are read ``FEAS_TOL`` wider, and each
    activity moves ``ROUND_OFF`` (relative) toward its right-hand side. Zero
    coefficients are skipped, since 0 * inf is NaN.
    """
    lo = [v - FEAS_TOL for v in var_lo.tolist()]
    hi = [v + FEAS_TOL for v in var_hi.tolist()]
    for terms, sense, rhs in ir.rows:
        least = greatest = 0.0
        for p, a in terms:
            if a > 0.0:
                least += a * lo[p]
                greatest += a * hi[p]
            elif a < 0.0:
                least += a * hi[p]
                greatest += a * lo[p]
        if sense != GE and least - ROUND_OFF * max(1.0, abs(least)) > rhs + FEAS_TOL:
            return True
        if sense != LE and greatest + ROUND_OFF * max(1.0, abs(greatest)) < rhs - FEAS_TOL:
            return True
    return False


def _node_lp(nlp: BoxNlp) -> LpProblem:
    """The node LP over (ir vars, corner weights), with no box written yet.

    Its first ``len(ir.rows)`` rows are the IR's rows over the IR columns,
    with the IR objective; ``_exact_candidate`` and ``_pinned_step`` read
    them there. Each block then gets one weight in [0, 1] per corner of its
    inputs' box, and rows that make its inputs and output the weighted sums
    of the corners and of f there: the convex hull of f's graph over the box
    ``_write_box`` writes. The IR columns' bounds are NaN until then, so the
    first write, which finds them all changed, writes the corners of every
    block.
    """
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


def _write_box(lp: LpProblem, blocks: list[CellBlock], lo: np.ndarray, hi: np.ndarray) -> None:
    """Write the box [lo, hi] into ``_node_lp``'s LP: the IR columns' bounds
    and, per block whose inputs' bounds differ from the box written before,
    the corner coefficients -x and -f(x) at the box corners."""
    n = lo.size
    moved = (lp.lo[:n] != lo) | (lp.hi[:n] != hi)
    lp.lo[:n] = lo
    lp.hi[:n] = hi
    row = lp.nrows - sum(blk.n + 2 for blk in blocks)  # the first block row
    col = n
    for blk in blocks:
        k = 1 << blk.n
        if moved[blk.input_pos].any():
            bits = (np.arange(k)[:, None] >> np.arange(blk.n)) & 1
            xs = np.where(bits, hi[blk.input_pos], lo[blk.input_pos])  # box corners, (2^n, n)
            lp.A[row : row + blk.n, col : col + k] = -xs.T
            lp.A[row + blk.n + 1, col : col + k] = -blk.f(xs)
        row += blk.n + 2
        col += k


def _split(
    blocks: list[CellBlock], x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Optional[tuple[int, float]]:
    """Variable position and split point of a node, or None if no box can be split.

    Blocks are tried by decreasing |y - f| at the node LP point x, ties to the
    lowest block; the first one with an input interval wider than
    MIN_BOX_WIDTH cell widths is split along its widest input in cell widths
    (ties to the lowest axis) at the LP value, clamped to the middle of the
    interval.
    """
    viol = [abs(x[blk.output_pos] - float(blk.f(x[blk.input_pos]))) for blk in blocks]
    for i in sorted(range(len(blocks)), key=lambda i: -viol[i]):
        blk = blocks[i]
        widths = (hi[blk.input_pos] - lo[blk.input_pos]) / blk.width
        j = int(np.argmax(widths))
        if widths[j] > MIN_BOX_WIDTH:
            p = blk.input_pos[j]
            margin = SPLIT_CLAMP * (hi[p] - lo[p])
            return p, float(np.clip(x[p], lo[p] + margin, hi[p] - margin))
    return None


def _exact_candidate(
    nlp: BoxNlp, lp: LpProblem, xrel: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """The node LP point as a candidate, if it already satisfies the IR.

    The IR part of xrel is clipped to the subproblem's bounds and each output
    is set to f at its inputs; the point is taken when no output moved by
    more than EXACT_TOL and the output bounds and the IR's rows, the node
    LP ``lp``'s first rows over its IR columns, still hold within it. The
    objective is then the IR's at the point, not the LP's.
    """
    n, m = len(nlp.var_lo), len(nlp.ir.rows)
    x = np.clip(xrel[:n], nlp.var_lo, nlp.var_hi)
    for blk in nlp.blocks:
        fval = float(blk.f(x[blk.input_pos]))
        if abs(x[blk.output_pos] - fval) > EXACT_TOL:
            return None
        x[blk.output_pos] = fval
    senses = np.array(lp.senses[:m])
    excess = lp.A[:m, :n] @ x - lp.rhs[:m]
    if (
        np.any(x < nlp.var_lo - EXACT_TOL)
        or np.any(x > nlp.var_hi + EXACT_TOL)
        or np.any(excess[senses != GE] > EXACT_TOL)
        or np.any(excess[senses != LE] < -EXACT_TOL)
    ):
        return None
    return x, float(lp.obj[:n] @ x)


def _pinned_step(
    nlp: BoxNlp, lp: LpProblem, x: np.ndarray, free: set[int]
) -> Optional[tuple[np.ndarray, float]]:
    """Minimize over the IR's linear part with every input fixed at x except
    those in ``free``, at most one per block.

    The LP is the IR's rows and objective, read from the node LP ``lp``'s
    first rows and columns, within the subproblem's bounds. A block with no
    free input has its output pinned at f(x), within the output's bounds
    (else lo > hi and the LP is infeasible); a free input makes f affine
    along it, so a row ties the output to it exactly. None when the LP is
    not optimal, or with no LP when a linear row misses its right-hand side
    over the pinned bounds (``_rows_exclude_box``).
    """
    lo = nlp.var_lo.copy()
    hi = nlp.var_hi.copy()
    rows = list(nlp.ir.rows)
    for blk in nlp.blocks:
        free_axes = [j for j, p in enumerate(blk.input_pos) if p in free]
        fixed = [p for p in blk.input_pos if p not in free]
        lo[fixed] = hi[fixed] = x[fixed]
        if not free_axes:
            fval = float(blk.f(x[blk.input_pos]))
            p = blk.output_pos
            lo[p], hi[p] = max(lo[p], fval), min(hi[p], fval)
            continue
        (j,) = free_axes
        ends = np.repeat(x[blk.input_pos][None, :], 2, axis=0)
        ends[:, j] = (blk.a_lo[j], blk.a_lo[j] + blk.width[j])
        at_lo, at_hi = blk.f(ends)
        slope = (at_hi - at_lo) / blk.width[j]
        const = at_lo - slope * blk.a_lo[j]
        rows.append(([(blk.output_pos, 1.0), (blk.input_pos[j], -slope)], EQ, const))
    if _rows_exclude_box(nlp.ir, lo, hi):
        return None
    res = solve_lp(LpProblem.from_rows(lo.size, lp.obj[: lo.size], lo, hi, rows))
    if res.status != OPTIMAL:
        return None
    return res.x.copy(), res.objective


def _descent_steps(blocks: list[CellBlock]) -> list[set[int]]:
    """The input variables each coordinate-descent step frees.

    Step j frees input j of each block in turn, unless a block that reads it
    already has another free input.
    """
    steps = []
    for j in range(max((blk.n for blk in blocks), default=0)):
        free: set[int] = set()
        for blk in blocks:
            p = blk.input_pos[j] if j < blk.n else None
            if p is not None and all(
                free.isdisjoint(b.input_pos) for b in blocks if p in b.input_pos
            ):
                free.add(p)
        steps.append(free)
    return steps


def _coordinate_descent(
    nlp: BoxNlp, lp: LpProblem, best: tuple[np.ndarray, float]
) -> tuple[np.ndarray, float]:
    """Improve a candidate by re-optimizing a few input variables at a time.

    Each step is a ``_pinned_step`` at the candidate that frees the variables
    of one of ``_descent_steps`` within the subproblem's bounds, so
    interpolants coupled by a linear row move together.
    """
    steps = _descent_steps(nlp.blocks)
    for _ in range(3):
        improved = False
        for free in steps:
            cand = _pinned_step(nlp, lp, best[0], free)
            if cand is not None and cand[1] < best[1] - 1e-12:
                best = cand
                improved = True
        if not improved:
            break
    return best


def solve_box_nlp(nlp: BoxNlp, basis: Optional[LpBasis] = None) -> NlpResult:
    """Globally minimize the IR objective over one cell assignment.

    A box that crosses, or on which a linear row misses its right-hand side
    (``_rows_exclude_box``), is ``Infeasible`` with 0 nodes and no LP.
    ``basis`` warm-starts the root LP; it may come from another subproblem
    (``solve_lp`` falls back to the slack basis when it does not fit). An
    infeasible root LP has no basis to hand on.
    """
    if np.any(nlp.var_lo > nlp.var_hi + 1e-12):
        return NlpResult(status=INFEASIBLE)
    if _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi):
        return NlpResult(status=INFEASIBLE)
    blocks = nlp.blocks
    lp = _node_lp(nlp)
    best: tuple[Optional[np.ndarray], float] = (None, np.inf)  # the incumbent
    nodes = 0
    root_basis = None
    floor = np.inf  # least bound of a box left open: exhausted, or at the node limit
    tick = itertools.count()
    root = Node(-np.inf, nlp.var_lo, nlp.var_hi, None, basis)
    heap: list = [(root.bound, next(tick), root)]  # (bound, tick, node) of every open box

    def pruned(node_bound: float) -> bool:
        return node_bound >= prune_level(best[1], GAP)

    while heap:
        node = heapq.heappop(heap)[2]
        if pruned(node.bound):
            break  # so is every node still on the heap
        if node.x is None:
            if nodes >= MAX_NODES:
                floor = min(floor, node.bound)  # no node left on the heap is lower
                break
            _write_box(lp, blocks, node.lo, node.hi)
            res = solve_lp(lp, basis=node.basis)
            nodes += 1
            if nodes == 1:
                root_basis = res.basis
            if res.status == UNBOUNDED:  # only the root can be: a bounded root's boxes are bounded
                best = (None, -np.inf)
            if res.status != OPTIMAL or pruned(res.objective):
                continue
            cand = _exact_candidate(nlp, lp, res.x)
            if cand is None:
                x = np.clip(res.x[: node.lo.size], node.lo, node.hi)
                cand = _pinned_step(nlp, lp, x, set())
                if cand is not None:
                    cand = _coordinate_descent(nlp, lp, cand)
            if cand is not None and cand[1] < best[1] - 1e-15:
                best = cand
            node = Node(res.objective, node.lo, node.hi, res.x, res.basis)
            heapq.heappush(heap, (node.bound, next(tick), node))
            continue
        split = _split(blocks, node.x, node.lo, node.hi)
        if split is None:
            floor = min(floor, node.bound)
            continue
        p, at = split
        below, above = node.hi.copy(), node.lo.copy()
        below[p] = above[p] = at
        for lo, hi in ((node.lo, below), (above, node.hi)):
            child = Node(node.bound, lo, hi, None, node.basis)
            heapq.heappush(heap, (child.bound, next(tick), child))

    x, objective = best
    if floor < prune_level(objective, GAP):
        status, bound = NODE_LIMIT, floor
    elif objective == -np.inf:
        status, bound = UNBOUNDED, -np.inf
    elif objective < np.inf:
        status, bound = OPTIMAL, objective
    else:
        status, bound = INFEASIBLE, -np.inf
    return NlpResult(status, x, objective, bound, nodes, root_basis)
