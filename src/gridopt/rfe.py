"""Exact global optimization by relax, fix, and exclude.

Alternates between the MILP relaxation (a valid bound) and globally solved
cell-restricted subproblems (feasible candidates). Each round the relaxation's
discrete assignment is excluded with a no-good cut, so the bound can only
tighten. One branch-and-bound tree serves every round: a round resumes the
previous round's frontier under its cut, cut off at the incumbent. The loop
stops when the bound meets the incumbent within tolerance, or when the MILP
finds nothing below the incumbent, which proves optimality.

Each subproblem is solved below the incumbent, its ``cutoff``, so its
``Infeasible`` (and the trace's ``subproblem_status``) means that nothing in
the cell beats the incumbent it was solved under, not that the cell is
empty; a cell whose root the previous root's duals already bound at the
incumbent closes with no LP (``spatial.solve_box_nlp``).

A subproblem that stops unproven (``NodeLimit``, or ``TimeLimit`` at the
deadline) is still excluded, but its bound stays a floor under the global
bound: while that floor is below the incumbent, the result is that limit
status, never ``Optimal`` or ``Infeasible``.

The time limit has one conversion, ``_deadline``: seconds from now become one
``time.monotonic()`` reading, which every MILP, subproblem and LP receives.
Only the simplex and this module read the clock; this module reads it before
each round and each enumerated cell, work that runs no LP.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bnb import TIME_LIMIT, prune_level, solve_milp
from .errors import EnumerationTooLarge
from .model import ProblemIR
from .relax import Fixing, add_no_good_cut, build_relaxation, build_subproblem, extract_fixing
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from .spatial import NODE_LIMIT, solve_box_nlp

MAX_ITERATIONS = 200  # RFE rounds before the status ITERATION_LIMIT
ITERATION_LIMIT = "IterationLimit"

ENUM_LIMIT = 10_000


@dataclass
class RfeResult:
    status: str  # Optimal | Infeasible | Unbounded | TimeLimit | IterationLimit | NodeLimit
    x: Optional[np.ndarray] = None  # by position in ir.variables
    objective: float = np.inf  # in the problem's original sense
    bound: float = np.inf  # valid bound in the original sense
    iterations: int = 0
    subproblems_solved: int = 0
    milp_nodes: int = 0
    spatial_nodes: int = 0  # node LPs over all subproblems
    cells_screened: int = 0  # subproblems closed Infeasible with no LP, by either screen
    log: list = field(default_factory=list)


def _user_sense(ir: ProblemIR, v: float) -> float:
    return -v if ir.maximize else v


class _Subproblems:
    """Solves cell subproblems one after another and keeps what they prove.

    Each subproblem is solved below the incumbent, ``objective``. Each root
    LP starts from the last root basis a subproblem handed on (none comes
    from a cell closed with no LP or an infeasible root), and every LP
    receives ``deadline`` (a ``time.monotonic()`` reading). Every node LP
    of every subproblem shares one dict of kept tableaus, so a root whose
    predecessor's root tableau is still kept (the dict holds the
    ``simplex.KEEP_TABLEAUS`` most recent) starts from a corrected copy of
    it. Values are in the minimization sense.
    """

    def __init__(self, ir: ProblemIR, deadline: float) -> None:
        self.ir = ir
        self.deadline = deadline
        self.x: Optional[np.ndarray] = None
        self.objective = np.inf
        self.floor = np.inf  # least bound of a subproblem that did not close
        self.limit = NODE_LIMIT  # the status of the last one that did not
        self.solved = 0
        self.nodes = 0  # spatial node LPs
        self.screened = 0  # subproblems closed Infeasible with no LP, by either screen
        self.basis = None  # previous subproblem's root basis
        self.tableaus: dict = {}  # solve_lp's kept tableaus, for every subproblem

    def solve(self, fixing: Fixing) -> str:
        """Solve the fixing's subproblem below the incumbent; returns its
        status, ``Infeasible`` when nothing in the cell beats the incumbent."""
        res = solve_box_nlp(
            build_subproblem(self.ir, fixing), basis=self.basis, deadline=self.deadline,
            tableaus=self.tableaus, cutoff=self.objective,
        )
        if res.root_basis is not None:
            self.basis = res.root_basis
        self.solved += 1
        self.nodes += res.nodes
        self.screened += res.status == INFEASIBLE and res.nodes == 0
        if res.status in (NODE_LIMIT, TIME_LIMIT):
            self.floor = min(self.floor, res.bound)
            self.limit = res.status
        if res.x is not None:  # below the incumbent, its cutoff
            self.objective = res.objective
            self.x = res.x.copy()
        return res.status

    def final(self, bound: float) -> tuple[str, float]:
        """Status and bound once no unexplored assignment can beat the incumbent.

        ``bound`` is the bound proven so far; it only matters when a
        subproblem did not close, and so may hold a better point.
        """
        if self.floor < prune_level(self.objective):
            return self.limit, max(bound, self.floor)
        return (OPTIMAL if self.x is not None else INFEASIBLE), self.objective

    def result(self, status: str, bound: float, **counts) -> RfeResult:
        return RfeResult(
            status=status,
            x=self.x,
            objective=_user_sense(self.ir, self.objective),
            bound=_user_sense(self.ir, bound),
            subproblems_solved=self.solved,
            spatial_nodes=self.nodes,
            cells_screened=self.screened,
            **counts,
        )


def check_time_limit(time_limit: Optional[float]) -> None:
    """Raise ``ValueError`` unless ``time_limit`` is None (no limit) or a
    number >= 0. NaN is rejected too: it would disable the limit."""
    if time_limit is not None and not time_limit >= 0.0:
        raise ValueError(f"time_limit must be a number >= 0, not {time_limit!r}")


def _deadline(time_limit: Optional[float]) -> float:
    """The ``time.monotonic()`` reading at which ``time_limit`` seconds from
    now run out; inf with no limit."""
    check_time_limit(time_limit)
    return np.inf if time_limit is None else time.monotonic() + time_limit


def solve_rfe(ir: ProblemIR, time_limit: Optional[float] = None) -> RfeResult:
    """Solve the IR to proven global optimality.

    Internally minimizes; results are reported in the problem's original sense
    (so for a maximization input, ``objective`` is the maximum found and
    ``bound`` an upper bound).
    """
    deadline = _deadline(time_limit)
    milp = build_relaxation(ir)
    cells = _Subproblems(ir, deadline)
    bound = -np.inf
    nodes = 0
    log: list = []
    frontier = None  # the MILP tree's unbranched nodes, resumed each round

    def out(status: str) -> RfeResult:
        return cells.result(status, bound, iterations=len(log), milp_nodes=nodes, log=log)

    for it in range(MAX_ITERATIONS):
        if time.monotonic() >= deadline:
            return out(TIME_LIMIT)
        mres = solve_milp(
            milp.to_lp(), milp.binary_cols(), deadline=deadline,
            cutoff=cells.objective, frontier=frontier,
        )
        frontier = mres.frontier
        nodes += mres.nodes
        if mres.status == UNBOUNDED:
            return out(UNBOUNDED)
        # no unexplored assignment beats the incumbent
        if mres.status == INFEASIBLE:
            status, bound = cells.final(bound)
            return out(status)
        # the MILP carries all cuts, so it bounds only the unexplored
        # assignments; the incumbent's value bounds the closed explored ones
        # and the floor the others
        bound = max(bound, min(mres.bound, cells.objective, cells.floor))
        if mres.status == TIME_LIMIT:
            return out(TIME_LIMIT)
        fixing = extract_fixing(milp, mres.x)
        sub_status = cells.solve(fixing)
        log.append(
            {
                "iteration": it,
                "bound": _user_sense(ir, bound),
                "incumbent": _user_sense(ir, cells.objective) if cells.x is not None else None,
                "fixing_segments": fixing.segments,
                "fixing_y": fixing.y,
                "subproblem_status": sub_status,
                "milp_nodes": mres.nodes,
                "frontier": len(frontier),
            }
        )
        if bound >= prune_level(cells.objective):
            return out(OPTIMAL)
        add_no_good_cut(milp, fixing)
    return out(ITERATION_LIMIT)


def _enumerate_fixings(ir: ProblemIR):
    """All (binary assignment, cell choice) pairs, inactive interpolants collapsed;
    EnumerationTooLarge before building the cells that would pass ENUM_LIMIT."""
    bin_ids = ir.binary_ids
    fixings: list[Fixing] = []
    for mask in range(1 << len(bin_ids)):
        y = tuple((mask >> b) & 1 for b in range(len(bin_ids)))
        on = dict(zip(bin_ids, y))
        grids = [
            itp.table.grid if itp.activation is None or on[itp.activation] else None
            for itp in ir.interpolants
        ]
        total = len(fixings) + math.prod(g.num_cells for g in grids if g is not None)
        if total > ENUM_LIMIT:
            raise EnumerationTooLarge(
                f"{total}+ subproblems exceeds enumeration limit {ENUM_LIMIT}"
            )
        choices = [
            (None,) if g is None else itertools.product(*(range(K - 1) for K in g.shape))
            for g in grids
        ]
        fixings.extend(Fixing(segments=c, y=y) for c in itertools.product(*choices))
    return fixings


def solve_by_enumeration(ir: ProblemIR, time_limit: Optional[float] = None) -> RfeResult:
    """Reference global solver: solve every cell/binary subproblem outright.

    Exponential in problem size and guarded by ``ENUM_LIMIT`` subproblems;
    intended as an independent check of :func:`solve_rfe` on small instances.
    The first cell whose relaxation is unbounded ends it as ``Unbounded``.
    ``time_limit`` is checked before each cell, and every LP in it stops at
    the same deadline; once it has passed, the result is ``TimeLimit`` with
    the incumbent and no finite bound, unless it stopped the last cell.
    """
    deadline = _deadline(time_limit)
    cells = _Subproblems(ir, deadline)
    for fixing in _enumerate_fixings(ir):
        if time.monotonic() >= deadline:
            return cells.result(TIME_LIMIT, -np.inf)
        if cells.solve(fixing) == UNBOUNDED:
            return cells.result(UNBOUNDED, -np.inf)
    return cells.result(*cells.final(-np.inf))
