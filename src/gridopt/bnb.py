"""Branch-and-bound for linear programs with binary variables.

Best-first search on the LP bound over the bounded-variable simplex. Branching
fixes the most fractional binary (lowest column index on ties) to 0 and 1 via
bound overrides, so every node shares the same immutable LP data. A node keeps
its bounds, LP solution and final simplex basis; each child is warm-started
from its parent's basis by the dual simplex, and the root from the caller's
``basis`` (in RFE, the previous round's root, before its cut was appended).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpBasis, LpProblem, solve_lp

TIME_LIMIT = "TimeLimit"

INT_TOL = 1e-6
REL_GAP = 1e-6  # no looser than rfe's tolerance: rfe takes the MILP optimum as a bound


@dataclass
class MipResult:
    status: str  # Optimal | Infeasible | Unbounded | TimeLimit
    x: Optional[np.ndarray] = None
    objective: float = np.inf
    bound: float = -np.inf
    nodes: int = 0
    lp_iterations: int = 0
    root_basis: Optional[LpBasis] = None  # the root LP's final basis


def solve_milp(
    lp: LpProblem,
    binary_cols: Sequence[int],
    time_limit: Optional[float] = None,
    basis: Optional[LpBasis] = None,
) -> MipResult:
    """Minimize over ``lp`` with the listed columns restricted to {0, 1}.

    Returns the proven optimum, or the best incumbent with status TimeLimit
    when the time limit stops the search first. Deterministic for identical
    input and limits (up to wall-clock cutoffs). ``basis`` warm-starts the root
    LP; it may come from ``lp`` with fewer rows (see ``simplex.solve_lp``).
    """
    t0 = time.monotonic()
    binary_cols = sorted(int(c) for c in binary_cols)
    lo0 = np.asarray(lp.lo, dtype=float).copy()
    hi0 = np.asarray(lp.hi, dtype=float).copy()

    best_x: Optional[np.ndarray] = None
    best_obj = np.inf
    nodes = 0
    lp_iters = 0
    tick = itertools.count()  # FIFO tie-break keeps the heap deterministic

    root = solve_lp(lp, lo0, hi0, basis=basis)
    lp_iters += root.iterations
    nodes += 1
    if root.status == INFEASIBLE:
        return MipResult(status=INFEASIBLE, nodes=nodes, lp_iterations=lp_iters)
    if root.status == UNBOUNDED:
        return MipResult(
            status=UNBOUNDED, objective=-np.inf, bound=-np.inf,
            nodes=nodes, lp_iterations=lp_iters,
        )

    heap: list = [(root.objective, next(tick), lo0, hi0, root.x, root.basis)]
    bound = root.objective

    def out(status: str) -> MipResult:
        return MipResult(
            status=status,
            x=best_x,
            objective=best_obj,
            bound=bound,
            nodes=nodes,
            lp_iterations=lp_iters,
            root_basis=root.basis,
        )

    while heap:
        node_bound, _, lo, hi, x, start = heapq.heappop(heap)
        bound = node_bound
        if np.isfinite(best_obj) and best_obj - bound <= REL_GAP * max(
            1.0, abs(best_obj)
        ):
            bound = best_obj
            return out(OPTIMAL)
        # most fractional binary; ties go to the lowest column index
        frac_col = -1
        frac_best = INT_TOL
        for c in binary_cols:
            f = abs(x[c] - round(x[c]))
            if f > frac_best + 1e-15:
                frac_best = f
                frac_col = c
        if frac_col < 0:
            if node_bound < best_obj - 1e-12:
                best_obj = node_bound
                best_x = x.copy()
                for c in binary_cols:
                    best_x[c] = round(best_x[c])
            continue
        for val in (0.0, 1.0):
            if time_limit is not None and time.monotonic() - t0 > time_limit:
                return out(TIME_LIMIT)
            clo = lo.copy()
            chi = hi.copy()
            clo[frac_col] = chi[frac_col] = val
            child = solve_lp(lp, clo, chi, basis=start)
            lp_iters += child.iterations
            nodes += 1
            if child.status != OPTIMAL:
                continue  # infeasible child; unbounded cannot appear below a bounded root
            if np.isfinite(best_obj) and child.objective >= best_obj - REL_GAP * max(
                1.0, abs(best_obj)
            ):
                continue
            heapq.heappush(
                heap,
                (child.objective, next(tick), clo, chi, child.x, child.basis),
            )

    if best_x is None:
        return MipResult(
            status=INFEASIBLE, nodes=nodes, lp_iterations=lp_iters,
            root_basis=root.basis,
        )
    bound = best_obj
    return out(OPTIMAL)
