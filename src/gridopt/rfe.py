"""Exact global optimization by relax, fix, and exclude.

Alternates between the MILP relaxation (a valid bound) and globally solved
cell-restricted subproblems (feasible candidates). Each round the relaxation's
discrete assignment is excluded with a no-good cut, so the bound can only
tighten; the loop stops when the bound meets the incumbent within tolerance or
the relaxation becomes infeasible, which proves optimality.

A subproblem that stops unproven (``NodeLimit``) is still excluded, but its
bound stays a floor under the global bound: while that floor is below the
incumbent, the result is ``NodeLimit``, never ``Optimal`` or ``Infeasible``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bnb import GAP_LIMIT, TIME_LIMIT, solve_milp
from .errors import EnumerationTooLarge
from .gridtab import CellIndex
from .model import ProblemIR
from .relax import BoxNlp, Fixing, add_no_good_cut, build_relaxation, build_subproblem, extract_fixing
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from .spatial import NODE_LIMIT, solve_box_nlp

ABS_TOL = 1e-6
REL_TOL = 1e-6

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
    log: list = field(default_factory=list)


def _user_sense(ir: ProblemIR, v: float) -> float:
    return -v if ir.maximize else v


def _closed(incumbent: float, bound: float) -> bool:
    """Bound meets incumbent within tolerance; false when either is infinite."""
    if not (np.isfinite(incumbent) and np.isfinite(bound)):
        return False
    return bound >= incumbent - max(ABS_TOL, REL_TOL * abs(incumbent))


def _unclosed(incumbent: float, floor: float) -> bool:
    """An excluded subproblem with bound ``floor`` may hold a better point."""
    return floor < np.inf and not _closed(incumbent, floor)


def solve_rfe(
    ir: ProblemIR,
    max_iterations: int = 200,
    time_limit: Optional[float] = None,
    milp_rel_gap: float = 1e-6,
) -> RfeResult:
    """Solve the IR to proven global optimality.

    Internally minimizes; results are reported in the problem's original sense
    (so for a maximization input, ``objective`` is the maximum found and
    ``bound`` an upper bound).
    """
    t0 = time.monotonic()
    milp = build_relaxation(ir)
    best_x: Optional[np.ndarray] = None
    best_obj = np.inf  # minimization sense
    bound = -np.inf
    floor = np.inf  # least bound of an excluded subproblem that did not close
    subs = 0
    nodes = 0
    log: list = []
    basis = None  # previous round's root basis; this round adds one cut row
    nlp_basis = None  # previous subproblem's root basis

    def out(status: str) -> RfeResult:
        return RfeResult(
            status=status,
            x=best_x,
            objective=_user_sense(ir, best_obj),
            bound=_user_sense(ir, bound),
            iterations=len(log),
            subproblems_solved=subs,
            milp_nodes=nodes,
            log=log,
        )

    for it in range(max_iterations):
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.monotonic() - t0)
            if remaining <= 0:
                return out(TIME_LIMIT)
        mres = solve_milp(
            milp.to_lp(), milp.binary_cols(),
            rel_gap=milp_rel_gap, time_limit=remaining, basis=basis,
        )
        basis = mres.root_basis
        nodes += mres.nodes
        if mres.status == INFEASIBLE:
            # every discrete assignment has been explored
            if _unclosed(best_obj, floor):
                bound = max(bound, floor)
                return out(NODE_LIMIT)
            bound = best_obj
            return out(OPTIMAL if best_x is not None else INFEASIBLE)
        if mres.status == UNBOUNDED:
            return out(UNBOUNDED)
        if mres.status == TIME_LIMIT:
            return out(TIME_LIMIT)
        # the MILP carries all cuts, so it bounds only the unexplored
        # assignments; the incumbent's value bounds the closed explored ones
        # and the floor the others
        milp_bound = mres.bound if mres.status == GAP_LIMIT else mres.objective
        bound = max(bound, min(milp_bound, best_obj, floor))
        if _closed(best_obj, milp_bound):
            if _unclosed(best_obj, floor):
                return out(NODE_LIMIT)
            bound = best_obj
            return out(OPTIMAL)
        fixing = extract_fixing(milp, mres.x)
        sub = build_subproblem(ir, fixing)
        sres = solve_box_nlp(sub, basis=nlp_basis)
        if sres.root_basis is not None:
            nlp_basis = sres.root_basis
        subs += 1
        if sres.status == NODE_LIMIT:
            floor = min(floor, sres.bound)
        if sres.x is not None and sres.objective < best_obj - 1e-15:
            best_obj = sres.objective
            best_x = sres.x.copy()
        log.append(
            {
                "iteration": it,
                "bound": _user_sense(ir, bound),
                "incumbent": _user_sense(ir, best_obj) if best_x is not None else None,
                "fixing_segments": fixing.segments,
                "fixing_y": fixing.y,
                "subproblem_status": sres.status,
            }
        )
        if _closed(best_obj, bound):
            return out(OPTIMAL)
        add_no_good_cut(milp, fixing)
    return out("IterationLimit")


def _enumerate_fixings(ir: ProblemIR, limit: int):
    """All (binary assignment, cell choice) pairs, inactive interpolants collapsed."""
    bin_ids = tuple(sorted(ir.binary_ids))
    act_of = {i: itp.activation for i, itp in enumerate(ir.interpolants)}
    total = 0
    fixings: list[Fixing] = []
    for mask in range(1 << len(bin_ids)):
        y = tuple((mask >> b) & 1 for b in range(len(bin_ids)))
        ymap = dict(zip(bin_ids, y))
        active = [
            i
            for i in range(len(ir.interpolants))
            if act_of[i] is None or ymap[act_of[i]] == 1
        ]
        combos = 1
        for i in active:
            combos *= ir.interpolants[i].table.grid.num_cells
        total += combos
        if total > limit:
            raise EnumerationTooLarge(
                f"{total}+ subproblems exceeds enumeration limit {limit}"
            )
        cell_ranges = []
        for i in range(len(ir.interpolants)):
            if i in active:
                shape = ir.interpolants[i].table.grid.shape
                cell_ranges.append(_all_cells(shape))
            else:
                cell_ranges.append([None])
        fixings.extend(
            Fixing(segments=choice, y=y, binary_ids=bin_ids)
            for choice in itertools.product(*cell_ranges)
        )
    return fixings


def _all_cells(shape):
    return list(itertools.product(*(range(K - 1) for K in shape)))


def solve_by_enumeration(ir: ProblemIR, limit: int = ENUM_LIMIT) -> RfeResult:
    """Reference global solver: solve every cell/binary subproblem outright.

    Exponential in problem size and guarded by ``limit``; intended as an
    independent check of :func:`solve_rfe` on small instances.
    """
    fixings = _enumerate_fixings(ir, limit)
    best_x = None
    best_obj = np.inf
    floor = np.inf  # least bound of a subproblem that did not close
    subs = 0
    basis = None  # previous subproblem's root basis
    for fixing in fixings:
        sub = build_subproblem(ir, fixing)
        res = solve_box_nlp(sub, basis=basis)
        if res.root_basis is not None:
            basis = res.root_basis
        subs += 1
        if res.status == NODE_LIMIT:
            floor = min(floor, res.bound)
        if res.x is not None and res.objective < best_obj - 1e-15:
            best_obj = res.objective
            best_x = res.x.copy()
    if _unclosed(best_obj, floor):
        status, bound = NODE_LIMIT, floor
    elif best_x is None:
        return RfeResult(status=INFEASIBLE, subproblems_solved=subs)
    else:
        status, bound = OPTIMAL, best_obj
    return RfeResult(
        status=status,
        x=best_x,
        objective=_user_sense(ir, best_obj),
        bound=_user_sense(ir, bound),
        subproblems_solved=subs,
    )
