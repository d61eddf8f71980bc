"""Branch-and-bound for linear programs with binary variables, resumable.

Best-first search on the LP bound over the bounded-variable simplex. Branching
fixes the most fractional binary (lowest column index on ties) to 0 and 1 in
the node's column bounds; its LP is ``dataclasses.replace(lp, lo=node.lo,
hi=node.hi)``, which shares the caller's rows and never writes them. One heap
holds every unbranched node, and every node, the root included, takes one
path through it. A node is unsolved until it is popped: it waits under its
parent's bound with its parent's final simplex basis. Popping it solves its
LP, warm from that basis by the dual simplex, and puts it back under its own
bound unless it is infeasible or the cutoff prunes it. Popping a solved node
branches it: its two children go on the heap unsolved. The root is the first
unsolved node, with bound -inf and no basis. The first integral node popped
is optimal: no node left on the heap has a lower bound.

Every LP of one call shares the caller's rows, so the call passes them all one
dict of kept tableaus (``solve_lp``'s ``tableaus``). A node popped soon after
its parent was solved, as both children of a branch usually are, starts from a
copy of the parent's final tableau instead of a refactorization. A frontier
node from an earlier call misses the dict and refactorizes.

One tree serves a sequence of MILPs that differ by appended rows, as RFE's
rounds do. A call returns its frontier, every node it did not branch, solved
or not: the nodes on its heap and the node it stopped at. Appending a row only
raises a node's LP bound and keeps an infeasible node infeasible, so the next
call resumes from that frontier instead of the root. A frontier node whose x
violates an appended row becomes unsolved again, with its bound and basis; its
LP takes the new rows in with their slacks. Every other node keeps its bound
and x. The caller's deadline reaches every node LP, the root's included, and
bnb reads no clock: a node LP that returns ``TimeLimit``, before its first
pivot or during its solve, ends the search, and that node stays in the
frontier unsolved, under its parent's bound and basis.

``cutoff`` is an outside incumbent that only falls between calls (RFE's best
cell). A node whose bound is at or above its ``prune_level`` cannot beat it
and is pruned for good, so ``Infeasible`` means that nothing lies below the
cutoff. ``prune_level`` is the one rule, shared with ``rfe`` and ``spatial``,
for "this bound cannot beat that value".
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import GE, LE
from .simplex import (
    FEAS_TOL, INFEASIBLE, OPTIMAL, TIME_LIMIT, UNBOUNDED, LpBasis, LpProblem, solve_lp,
)

INT_TOL = 1e-6
REL_GAP = 1e-6  # prune_level's gap; rfe closes its loop at it too


class Node(NamedTuple):
    """An unbranched node: LP bound, column bounds, LP solution and final basis.

    A node not solved yet has no x; its bound and basis are its parent's, and
    the root's are -inf and None.
    """

    bound: float
    lo: np.ndarray
    hi: np.ndarray
    x: Optional[np.ndarray]
    basis: Optional[LpBasis]


@dataclass
class MipResult:
    status: str  # Optimal | Infeasible | Unbounded | TimeLimit
    x: Optional[np.ndarray] = None
    objective: float = np.inf
    bound: float = -np.inf
    nodes: int = 0  # LPs solved to their end, re-solved frontier nodes included
    lp_iterations: int = 0  # pivots of every node LP, one the deadline stopped included
    frontier: list[Node] = field(default_factory=list)  # every unbranched node


def prune_level(value: float, gap: float = REL_GAP) -> float:
    """Bounds at or above this cannot beat ``value`` by more than ``gap``, relative
    to ``max(1, |value|)``."""
    if not np.isfinite(value):
        return np.inf  # inf - gap * inf is NaN, and every comparison with NaN is false
    return value - gap * max(1.0, abs(value))


def _violates_new_rows(lp: LpProblem, node: Node) -> bool:
    """Does the node's x violate a row appended after its basis was taken?"""
    m0 = node.basis.basis.size
    if m0 == lp.nrows:
        return False
    excess = lp.A[m0:] @ node.x - lp.rhs[m0:]  # positive: above the right-hand side
    senses = np.asarray(lp.senses[m0:])
    viol = np.where(senses == LE, excess, np.where(senses == GE, -excess, np.abs(excess)))
    return bool(np.any(viol > FEAS_TOL))


def solve_milp(
    lp: LpProblem,
    binary_cols: Sequence[int],
    deadline: float = np.inf,
    cutoff: float = np.inf,
    frontier: Optional[Sequence[Node]] = None,
) -> MipResult:
    """Minimize over ``lp`` with the listed columns restricted to {0, 1}.

    Returns the proven optimum below ``cutoff``, ``Infeasible`` when nothing
    lies below it, or status TimeLimit when a node LP stops at ``deadline``
    (a ``time.monotonic()`` reading, passed to every ``solve_lp``) first;
    then ``bound`` is the least bound over the unbranched nodes.
    ``frontier`` is an earlier call's ``MipResult.frontier`` on ``lp`` with
    fewer rows, or the same ``lp``; without it the search starts at the root.
    Deterministic for identical input and limits (up to wall-clock cutoffs)
    and the same number of BLAS threads, as ``solve_lp`` is: the root MILP
    of desk S4 seed 0 takes 49 nodes with one OpenBLAS thread and 44 with two.
    """
    binary_cols = sorted(int(c) for c in binary_cols)
    cut_level = prune_level(cutoff)
    if frontier is None:
        frontier = [Node(-np.inf, lp.lo, lp.hi, None, None)]

    nodes = 0
    lp_iters = 0
    tick = itertools.count()  # FIFO tie-break keeps the heap deterministic
    heap: list = []  # (bound, tick, node) of every unbranched node
    tableaus: dict = {}  # solve_lp's kept tableaus, shared by every LP of this call

    def out(status: str, *unbranched: tuple, x=None, objective=np.inf) -> MipResult:
        rest = sorted(itertools.chain(heap, unbranched))
        if status == OPTIMAL:
            bound = objective
        elif status == TIME_LIMIT:
            bound = min((b for b, _, _ in rest), default=np.inf)
        else:
            bound = -np.inf
        return MipResult(status, x, objective, bound, nodes, lp_iters, [n for _, _, n in rest])

    for node in frontier:
        if node.bound >= cut_level:
            continue
        if node.x is not None and _violates_new_rows(lp, node):
            node = node._replace(x=None)
        heapq.heappush(heap, (node.bound, next(tick), node))

    while heap:
        entry = heapq.heappop(heap)
        node = entry[2]
        if node.x is None:
            node_lp = replace(lp, lo=node.lo, hi=node.hi)
            res = solve_lp(node_lp, basis=node.basis, tableaus=tableaus, deadline=deadline)
            lp_iters += res.iterations
            if res.status == TIME_LIMIT:
                return out(TIME_LIMIT, entry)
            nodes += 1
            if res.status == UNBOUNDED:  # only the root can be: its children are bounded
                return out(UNBOUNDED, objective=-np.inf)
            # an infeasible node is dropped, and so is one the cutoff prunes
            if res.status == OPTIMAL and res.objective < cut_level:
                node = Node(res.objective, node.lo, node.hi, res.x, res.basis)
                heapq.heappush(heap, (node.bound, next(tick), node))
            continue
        x = node.x
        # most fractional binary; ties go to the lowest column index
        frac_col = -1
        frac_best = INT_TOL
        for c in binary_cols:
            f = abs(x[c] - round(x[c]))
            if f > frac_best + 1e-15:
                frac_best = f
                frac_col = c
        if frac_col < 0:
            x = x.copy()
            x[binary_cols] = np.round(x[binary_cols])
            return out(OPTIMAL, entry, x=x, objective=node.bound)
        for val in (0.0, 1.0):
            clo = node.lo.copy()
            chi = node.hi.copy()
            clo[frac_col] = chi[frac_col] = val
            child = Node(node.bound, clo, chi, None, node.basis)
            heapq.heappush(heap, (child.bound, next(tick), child))

    return out(INFEASIBLE)
