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
benchmark, the screen rejects 35 of 43 pinned steps.

The search runs below ``cutoff``, the caller's incumbent, as bnb's does: a
box whose bound is at or above ``bnb.prune_level(min(best, cutoff), GAP)``
is pruned, a candidate counts only below the cutoff, and ``Infeasible``
means that nothing in the cell beats it. A second screen uses the cutoff,
once the row screen has passed and the root box is written: the root's
start basis, in RFE the previous subproblem's root, carries that LP's row
duals, and when ``simplex.dual_bound`` of the root LP under them reaches
the cutoff's prune level, the cell is ``Infeasible`` with 0 nodes and no
LP. Its caller keeps the previous root as the next start. Enumerating the
eight desk S1 instances, this screen closes 126 of the 193 cells that pass
the row screen. Only the root is screened this way: on the three benchmark
workloads and pool seeds 0-49 under enumeration, the same check with the
parent's duals closed none of 496 child boxes.

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
cannot beat the incumbent or the cutoff, the LP point is
tried as a candidate and the box goes back on the heap under its own bound.
Popping a solved box splits it into two unsolved children, so a child whose
parent's bound the incumbent prunes before it is popped gets no LP. The root
is the first unsolved box, its box written before the dual screen, warm from
the caller's ``basis`` (in RFE, the previous subproblem's root); an
unbounded root LP makes the result ``Unbounded``.
``MAX_NODES`` node LPs, or a box too narrow to split whose bound is below the
incumbent and the cutoff, end the search unproven: the result is
``NodeLimit`` with the least bound of every open or exhausted box, unless a
later candidate has brought the prune level down to that bound. The
caller's deadline goes to every LP, the node LPs and the pinned steps', and
spatial reads no clock: a node
LP that returns ``TimeLimit`` stops the search the same way, as
``TimeLimit``, and a pinned step that does gives no candidate.

A subproblem that passes the row screen builds its node LP once, since
every box has the same rows and columns: the IR's rows are copied in as one
block from ``ProblemIR.dense_rows``, and each interpolant's rows are written by index,
with no loop over rows or terms. A popped box's LP is made from the LP of the
box popped before it (``_write_box``): it takes the box as its column bounds,
and it shares that LP's A unless some interpolant's inputs' bounds differ;
then it takes a copy of A with the corner coefficients, -x and -f(x) at the
box corners, of each such interpolant written in, the corners placed by
``gridtab.corner_bits``, the table the evaluator reads. No LP's A is written
after its solve. A child box changes one column bound and the corners of the
interpolants that read it, which is why the parent's basis is a good start.
Every node LP passes the simplex one dict of kept tableaus, so a child whose
parent's tableau is still kept starts from a copy of it, corrected for the
corner columns that changed, instead of refactorizing.
The node LP's first rows are the IR's, ``ProblemIR.rows`` over the IR
columns, and no box write touches them: the exact check, with the IR's
cached row sides (``ProblemIR.row_sides``), and every pinned step read the
IR's rows and objective there. The exact check, the repair and the split
share one evaluation of each block's f at the node LP point.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bnb import TIME_LIMIT, Node, prune_level
from .gridtab import corner_bits
from .model import EQ, GE, LE, ProblemIR
from .relax import BoxNlp, CellBlock
from .simplex import (
    FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpBasis, LpProblem, dual_bound, solve_lp,
)

MAX_NODES = 100_000  # node LPs before the status "NodeLimit"
MIN_BOX_WIDTH = 1e-9  # in cell widths
GAP = 1e-8  # a box closes within this of the incumbent, relative to max(1, |incumbent|)
SPLIT_CLAMP = 0.2  # the split point stays this fraction of the width inside
EXACT_TOL = 1e-9  # |y - f| and row slack for an LP point to be a candidate
ROUND_OFF = 1e-9  # a screened activity moves this far toward the rhs, relative to max(1, |it|)

NODE_LIMIT = "NodeLimit"


@dataclass
class NlpResult:
    status: str  # Optimal | Infeasible | Unbounded | NodeLimit | TimeLimit (x: best found, if any)
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

    Its first ``len(ir.rows)`` rows are the IR's rows over the IR columns
    (``ProblemIR.dense_rows``), with the IR objective; ``_exact_candidate``
    and ``_pinned_step`` read them there. Each block then gets one weight in
    [0, 1] per corner of its inputs' box, and rows that make its inputs and
    output the weighted sums of the corners and of f there: the convex hull
    of f's graph over the box ``_write_box`` writes. The IR columns' bounds
    are NaN until then, so the first write, which finds them all changed,
    writes the corners of every block.
    """
    ir = nlp.ir
    A_ir, senses, rhs_ir = ir.dense_rows
    m, n = A_ir.shape
    nrows = m + sum(blk.n + 2 for blk in nlp.blocks)
    ncols = n + sum(1 << blk.n for blk in nlp.blocks)
    A = np.zeros((nrows, ncols))
    A[:m, :n] = A_ir
    rhs = np.zeros(nrows)
    rhs[:m] = rhs_ir
    rows, cols = [], []  # the 1.0 of each input's and output's row, on its IR column
    row, col = m, n
    for blk in nlp.blocks:
        k = 1 << blk.n
        rows += [*range(row, row + blk.n), row + blk.n + 1]
        cols += [*blk.input_pos.tolist(), blk.output_pos]
        A[row + blk.n, col : col + k] = 1.0  # the weights sum to 1
        rhs[row + blk.n] = 1.0
        row += blk.n + 2
        col += k
    A[rows, cols] = 1.0
    obj = np.zeros(ncols)
    for cf, v in ir.objective:
        obj[ir.var_pos[v]] += cf
    lo, hi = np.zeros(ncols), np.ones(ncols)
    lo[:n] = hi[:n] = np.nan
    return LpProblem(obj, lo, hi, A, list(senses) + [EQ] * (nrows - m), rhs)


def _write_box(
    lp: LpProblem, blocks: list[CellBlock], lo: np.ndarray, hi: np.ndarray
) -> LpProblem:
    """The node LP of the box [lo, hi], made from ``lp``, ``_node_lp``'s LP or
    the node LP of the box written before, which stays as it is.

    The IR columns take the box as their bounds. Each block whose inputs'
    bounds differ from ``lp``'s gets the corner coefficients -x and -f(x) at
    the box corners (corner b at the upper end of axis j where
    ``gridtab.corner_bits`` says so), written into a copy of ``lp.A``; when
    no block's inputs moved, the new LP shares ``lp.A``. So no LP's A is
    written after it is solved, and a tableau kept under its basis stays
    its own.
    """
    n = lo.size
    moved = (lp.lo[:n] != lo) | (lp.hi[:n] != hi)
    A = lp.A
    row = lp.nrows - sum(blk.n + 2 for blk in blocks)  # the first block row
    col = n
    for blk in blocks:
        k = 1 << blk.n
        if moved[blk.input_pos].any():
            if A is lp.A:
                A = lp.A.copy()
            xs = np.where(corner_bits(blk.n), hi[blk.input_pos], lo[blk.input_pos])  # (2^n, n)
            A[row : row + blk.n, col : col + k] = -xs.T
            A[row + blk.n + 1, col : col + k] = -blk.f(xs)
        row += blk.n + 2
        col += k
    box_lo, box_hi = lp.lo.copy(), lp.hi.copy()
    box_lo[:n], box_hi[:n] = lo, hi
    return LpProblem(lp.obj, box_lo, box_hi, A, lp.senses, lp.rhs)


def _f_at(blocks: list[CellBlock], x: np.ndarray, fx: list, i: int) -> float:
    """Block i's f at its inputs' values in x: ``fx[i]``, evaluated on first
    use. ``fx`` starts as one None per block and belongs to this x alone."""
    if fx[i] is None:
        fx[i] = float(blocks[i].f(x[blocks[i].input_pos]))
    return fx[i]


def _split(
    blocks: list[CellBlock], x: np.ndarray, fx: list, lo: np.ndarray, hi: np.ndarray
) -> Optional[tuple[int, float]]:
    """Variable position and split point of a node, or None if no box can be split.

    Blocks are tried by decreasing |y - f| at the node LP point x, f read
    through ``_f_at`` with x's ``fx``, ties to the lowest block; the first one
    with an input interval wider than MIN_BOX_WIDTH cell widths is split
    along its widest input in cell widths (ties to the lowest axis) at the LP
    value, clamped to the middle of the interval.
    """
    viol = [abs(x[blk.output_pos] - _f_at(blocks, x, fx, i)) for i, blk in enumerate(blocks)]
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
    nlp: BoxNlp, lp: LpProblem, xrel: np.ndarray, fx: list
) -> Optional[tuple[np.ndarray, float]]:
    """The node LP point as a candidate, if it already satisfies the IR.

    The IR part of xrel is clipped to the subproblem's bounds and each output
    is set to f at its inputs; the point is taken when no output moved by
    more than EXACT_TOL and the output bounds and the IR's rows, the node
    LP ``lp``'s first rows over its IR columns, still hold within it. The
    objective is then the IR's at the point, not the LP's. A block whose
    inputs are still xrel's reads f through ``_f_at`` with xrel's ``fx``, so
    ``_split`` does not evaluate it again; f is evaluated apart only at
    inputs that the clipping, or an earlier block's output, moved.
    """
    n, m = len(nlp.var_lo), len(nlp.ir.rows)
    x = np.clip(xrel[:n], nlp.var_lo, nlp.var_hi)
    same = x == xrel[:n]
    for i, blk in enumerate(nlp.blocks):
        if same[blk.input_pos].all():
            fval = _f_at(nlp.blocks, xrel, fx, i)
        else:
            fval = float(blk.f(x[blk.input_pos]))
        if abs(x[blk.output_pos] - fval) > EXACT_TOL:
            return None
        x[blk.output_pos] = fval
        same[blk.output_pos] = fval == xrel[blk.output_pos]
    upper, lower = nlp.ir.row_sides
    excess = lp.A[:m, :n] @ x - lp.rhs[:m]
    if (
        (x < nlp.var_lo - EXACT_TOL).any()
        or (x > nlp.var_hi + EXACT_TOL).any()
        or (excess[upper] > EXACT_TOL).any()
        or (excess[lower] < -EXACT_TOL).any()
    ):
        return None
    return x, float(lp.obj[:n] @ x)


def _pinned_step(
    nlp: BoxNlp,
    lp: LpProblem,
    x: np.ndarray,
    free: set[int],
    deadline: float,
    fx: Optional[list] = None,
) -> Optional[tuple[np.ndarray, float]]:
    """Minimize over the IR's linear part with every input fixed at x except
    those in ``free``, at most one per block.

    The LP is the IR's rows and objective, read from the node LP ``lp``'s
    first rows and columns, within the subproblem's bounds. A block with no
    free input has its output pinned at f(x), read through ``_f_at`` with
    ``fx`` (x's, one None per block when not given), within the output's
    bounds (else lo > hi and the LP is infeasible); a free input makes f
    affine along it, so a row ties the output to it exactly. None when the
    LP is not optimal (``TimeLimit`` at ``deadline`` included), or with no LP
    when a linear row misses its right-hand side over the pinned bounds
    (``_rows_exclude_box``).
    """
    if fx is None:
        fx = [None] * len(nlp.blocks)
    lo = nlp.var_lo.copy()
    hi = nlp.var_hi.copy()
    ties = []  # (output, free input, slope, constant) of each affine row
    for i, blk in enumerate(nlp.blocks):
        free_axes = [j for j, p in enumerate(blk.input_pos) if p in free]
        fixed = [p for p in blk.input_pos if p not in free]
        lo[fixed] = hi[fixed] = x[fixed]
        if not free_axes:
            fval = _f_at(nlp.blocks, x, fx, i)
            p = blk.output_pos
            lo[p], hi[p] = max(lo[p], fval), min(hi[p], fval)
            continue
        (j,) = free_axes
        ends = np.repeat(x[blk.input_pos][None, :], 2, axis=0)
        ends[:, j] = (blk.a_lo[j], blk.a_lo[j] + blk.width[j])
        at_lo, at_hi = blk.f(ends)
        slope = (at_hi - at_lo) / blk.width[j]
        ties.append((blk.output_pos, blk.input_pos[j], slope, at_lo - slope * blk.a_lo[j]))
    if _rows_exclude_box(nlp.ir, lo, hi):
        return None
    n, m = lo.size, len(nlp.ir.rows)
    A = np.zeros((m + len(ties), n))
    A[:m] = lp.A[:m, :n]
    for r, (out, p, slope, _) in enumerate(ties, m):
        A[r, out] = 1.0
        A[r, p] -= slope  # a zero slope leaves +0.0
    rhs = np.append(lp.rhs[:m], [t[3] for t in ties])
    step_lp = LpProblem(lp.obj[:n], lo, hi, A, lp.senses[:m] + [EQ] * len(ties), rhs)
    res = solve_lp(step_lp, deadline=deadline)
    if res.status != OPTIMAL:
        return None
    return res.x.copy(), res.objective


def _repair(
    nlp: BoxNlp,
    lp: LpProblem,
    xrel: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fx: list,
    deadline: float,
) -> Optional[tuple[np.ndarray, float]]:
    """The pinned step with no free input at the node LP point xrel, its IR
    part clipped to the node box [lo, hi]. A block whose inputs the clip left
    as they were is pinned at f read through ``_f_at`` with xrel's ``fx``, so
    the exact check and ``_split`` share that evaluation; f is evaluated
    apart only at inputs the clip moved."""
    x = np.clip(xrel[: lo.size], lo, hi)
    same = x == xrel[: lo.size]
    fx_x = [
        _f_at(nlp.blocks, xrel, fx, i) if same[blk.input_pos].all() else None
        for i, blk in enumerate(nlp.blocks)
    ]
    return _pinned_step(nlp, lp, x, set(), deadline, fx_x)


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
    nlp: BoxNlp, lp: LpProblem, best: tuple[np.ndarray, float], deadline: float
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
            cand = _pinned_step(nlp, lp, best[0], free, deadline)
            if cand is not None and cand[1] < best[1] - 1e-12:
                best = cand
                improved = True
        if not improved:
            break
    return best


def solve_box_nlp(
    nlp: BoxNlp,
    basis: Optional[LpBasis] = None,
    deadline: float = np.inf,
    tableaus: Optional[dict] = None,
    cutoff: float = np.inf,
) -> NlpResult:
    """Globally minimize the IR objective over one cell assignment, below
    ``cutoff``.

    ``cutoff`` is the caller's incumbent, as in ``bnb.solve_milp``: the
    search prunes at ``prune_level(min(best, cutoff), GAP)``, takes only
    candidates below it, and ``Infeasible`` means that nothing in the cell
    beats it. A box that crosses, or on which a linear row misses its
    right-hand side (``_rows_exclude_box``), is ``Infeasible`` with 0 nodes
    and no LP, and so is a root whose ``basis`` carries duals over the node
    LP's rows that already bound it at the cutoff's prune level
    (``simplex.dual_bound``).
    ``basis`` warm-starts the root LP; it may come from another subproblem,
    and one of another shape is no start (``solve_lp``): the root starts cold. An
    infeasible root LP, or a root closed with no LP, has no basis to hand on.
    ``deadline`` is a ``time.monotonic()`` reading that every LP of the search
    receives.
    ``tableaus`` is the dict of kept tableaus (``solve_lp``'s) that every node
    LP passes; a caller that passes one dict to a run of subproblems lets a
    root find the previous root's tableau while it is kept. Without one, the
    search keeps its own.
    """
    if np.any(nlp.var_lo > nlp.var_hi + 1e-12):
        return NlpResult(status=INFEASIBLE)
    if _rows_exclude_box(nlp.ir, nlp.var_lo, nlp.var_hi):
        return NlpResult(status=INFEASIBLE)
    blocks = nlp.blocks
    lp = _write_box(_node_lp(nlp), blocks, nlp.var_lo, nlp.var_hi)  # the box written last
    duals = None if basis is None else basis.duals
    if (
        duals is not None
        and duals.size == lp.nrows
        and dual_bound(lp, duals) >= prune_level(cutoff, GAP)  # never, at an infinite cutoff
    ):
        return NlpResult(status=INFEASIBLE)
    if tableaus is None:
        tableaus = {}
    best: tuple[Optional[np.ndarray], float] = (None, np.inf)  # the incumbent
    nodes = 0
    root_basis = None
    floor = np.inf  # least bound of a box left open: exhausted, or at a limit
    limit = NODE_LIMIT  # the status when the floor is below the incumbent
    tick = itertools.count()
    root = Node(-np.inf, nlp.var_lo, nlp.var_hi, None, basis)
    # (bound, tick, node, f at node.x by block, or None unsolved) of every open box
    heap: list = [(root.bound, next(tick), root, None)]

    def level() -> float:  # a bound at or above this cannot beat the incumbent or the cutoff
        return prune_level(min(best[1], cutoff), GAP)

    def pruned(node_bound: float) -> bool:
        return node_bound >= level()

    while heap:
        _, _, node, fx = heapq.heappop(heap)
        if pruned(node.bound):
            break  # so is every node still on the heap
        if node.x is None:
            if nodes >= MAX_NODES:
                floor = min(floor, node.bound)  # no node left on the heap is lower
                break
            if node is not root:  # the root's box is written above
                lp = _write_box(lp, blocks, node.lo, node.hi)
            res = solve_lp(lp, basis=node.basis, tableaus=tableaus, deadline=deadline)
            if res.status == TIME_LIMIT:
                limit, floor = TIME_LIMIT, min(floor, node.bound)
                break
            nodes += 1
            if nodes == 1:
                root_basis = res.basis
            if res.status == UNBOUNDED:  # only the root can be: a bounded root's boxes are bounded
                best = (None, -np.inf)
            if res.status != OPTIMAL or pruned(res.objective):
                continue
            fx = [None] * len(blocks)
            cand = _exact_candidate(nlp, lp, res.x, fx)
            if cand is None:
                cand = _repair(nlp, lp, res.x, node.lo, node.hi, fx, deadline)
                if cand is not None:
                    cand = _coordinate_descent(nlp, lp, cand, deadline)
            if cand is not None and cand[1] < min(best[1], cutoff) - 1e-15:
                best = cand
            node = Node(res.objective, node.lo, node.hi, res.x, res.basis)
            heapq.heappush(heap, (node.bound, next(tick), node, fx))
            continue
        split = _split(blocks, node.x, fx, node.lo, node.hi)
        if split is None:
            floor = min(floor, node.bound)
            continue
        p, at = split
        below, above = node.hi.copy(), node.lo.copy()
        below[p] = above[p] = at
        for lo, hi in ((node.lo, below), (above, node.hi)):
            child = Node(node.bound, lo, hi, None, node.basis)
            heapq.heappush(heap, (child.bound, next(tick), child, None))

    x, objective = best
    if floor < level():
        status, bound = limit, floor
    elif objective == -np.inf:
        status, bound = UNBOUNDED, -np.inf
    elif objective < np.inf:
        status, bound = OPTIMAL, objective
    else:
        status, bound = INFEASIBLE, -np.inf
    return NlpResult(status, x, objective, bound, nodes, root_basis)
