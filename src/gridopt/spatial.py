"""Deterministic global solver for cell-restricted multilinear subproblems.

Inside one grid cell each interpolant is a multilinear polynomial of the
normalized cell coordinates theta in [0, 1]^n. The solver expands that
polynomial in the monomial basis, introduces one auxiliary column per monomial
of degree >= 2 built as a chain of bilinear products, and relaxes every product
with its four McCormick inequalities over the current theta box. Spatial
branch-and-bound splits the widest theta interval at its midpoint; feasible
candidates are recovered by fixing theta and repairing the remaining linear
part, then improved by coordinate descent (each step frees one theta
coordinate per interpolant and is an LP).

Every node LP of one subproblem has the same rows and columns; a child box
changes only coefficients, right-hand sides and bounds. So each child LP is
warm-started from its parent's final basis by the dual simplex, and the root
LP from the caller's ``basis`` (in RFE, the previous subproblem's root).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import EQ, ProblemIR
from .relax import BoxNlp
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpBasis, LpProblem, solve_lp

MIN_BOX_WIDTH = 1e-9
ABS_TOL = 1e-8
REL_TOL = 1e-8


@dataclass
class NlpResult:
    status: str  # Optimal | Infeasible
    x: Optional[np.ndarray] = None  # by position in ir.variables
    objective: float = np.inf
    bound: float = -np.inf
    nodes: int = 0
    root_basis: Optional[LpBasis] = None  # the root LP's final basis


@dataclass
class _Block:
    """One active interpolant: cell geometry and monomial expansion."""

    itp_index: int
    input_pos: list[int]  # positions in ir.variables
    output_pos: int
    a_lo: np.ndarray  # cell lower corner per axis
    width: np.ndarray  # cell edge length per axis
    coef: dict[frozenset, float]  # monomial coefficients over theta
    theta_off: int  # first theta index of this block
    n: int


def _monomial_coefficients(corners: np.ndarray, n: int) -> dict[frozenset, float]:
    """Expand sum_b v_b prod_j (theta_j if b_j else 1-theta_j) in monomials."""
    coef: dict[frozenset, float] = {}
    for S in range(1 << n):
        sset = frozenset(j for j in range(n) if (S >> j) & 1)
        total = 0.0
        b = S
        while True:  # all submasks of S
            sign = -1.0 if (bin(S ^ b).count("1") % 2) else 1.0
            total += sign * corners[b]
            if b == 0:
                break
            b = (b - 1) & S
        if total != 0.0 or not sset:
            coef[sset] = total
    return coef


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
        corners = itp.table.cell_corner_values(cell)
        blocks.append(
            _Block(
                itp_index=i,
                input_pos=[pos[v] for v in itp.inputs],
                output_pos=pos[itp.output],
                a_lo=a_lo,
                width=a_hi - a_lo,
                coef=_monomial_coefficients(corners, grid.n),
                theta_off=off,
                n=grid.n,
            )
        )
        off += grid.n
    return blocks, off


def _theta_start(nlp: BoxNlp, blk: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Initial theta box: the cell intersected with the variable bounds."""
    lo = np.zeros(blk.n)
    hi = np.ones(blk.n)
    for j, p in enumerate(blk.input_pos):
        if blk.width[j] <= 0:
            continue
        lo[j] = max(0.0, (nlp.var_lo[p] - blk.a_lo[j]) / blk.width[j])
        hi[j] = min(1.0, (nlp.var_hi[p] - blk.a_lo[j]) / blk.width[j])
    return lo, hi


def _interval_mul(al, ah, bl, bh) -> tuple[float, float]:
    p = (al * bl, al * bh, ah * bl, ah * bh)
    return min(p), max(p)


def _build_node_lp(
    nlp: BoxNlp,
    blocks: list[_Block],
    nth: int,
    tlo: np.ndarray,
    thi: np.ndarray,
) -> tuple[LpProblem, int]:
    """LP relaxation over (ir vars, theta, monomial aux) for one theta box."""
    ir = nlp.ir
    nv = len(ir.variables)
    pos = ir.var_pos
    lo = list(nlp.var_lo)
    hi = list(nlp.var_hi)
    lo += list(tlo)
    hi += list(thi)
    ncols = nv + nth

    rows: list[tuple[list[tuple[int, float]], str, float]] = []
    for c in ir.constraints:
        rows.append(([(pos[v], cf) for cf, v in c.terms], c.sense, c.rhs))

    aux_bounds: list[tuple[float, float]] = []
    for blk in blocks:
        tcol = lambda j: nv + blk.theta_off + j  # noqa: E731
        for j, p in enumerate(blk.input_pos):
            rows.append(
                ([(p, 1.0), (tcol(j), -blk.width[j])], EQ, float(blk.a_lo[j]))
            )
        # auxiliary chain: column and interval per monomial of degree >= 2
        aux_col: dict[frozenset, int] = {}
        iv: dict[frozenset, tuple[float, float]] = {
            frozenset([j]): (tlo[blk.theta_off + j], thi[blk.theta_off + j])
            for j in range(blk.n)
        }
        for size in range(2, blk.n + 1):
            for S in itertools.combinations(range(blk.n), size):
                sset = frozenset(S)
                if not any(sset <= T for T in blk.coef if len(T) >= size):
                    continue  # not needed by any monomial
                prefix = frozenset(S[:-1])
                last = S[-1]
                ucol = tcol(S[0]) if size == 2 else aux_col[prefix]
                ul, uh = iv[prefix] if size > 2 else iv[frozenset([S[0]])]
                wl, wh = iv[frozenset([last])]
                pl, ph = _interval_mul(ul, uh, wl, wh)
                col = ncols + len(aux_bounds)
                aux_bounds.append((pl, ph))
                aux_col[sset] = col
                iv[sset] = (pl, ph)
                wcol = tcol(last)
                rows.append(
                    ([(col, 1.0), (ucol, -wl), (wcol, -ul)], ">=", -ul * wl)
                )
                rows.append(
                    ([(col, 1.0), (ucol, -wh), (wcol, -uh)], ">=", -uh * wh)
                )
                rows.append(
                    ([(col, 1.0), (ucol, -wh), (wcol, -ul)], "<=", -ul * wh)
                )
                rows.append(
                    ([(col, 1.0), (ucol, -wl), (wcol, -uh)], "<=", -uh * wl)
                )
        out_terms: list[tuple[int, float]] = [(blk.output_pos, 1.0)]
        const = 0.0
        for sset, cval in blk.coef.items():
            if not sset:
                const += cval
            elif len(sset) == 1:
                out_terms.append((tcol(next(iter(sset))), -cval))
            else:
                out_terms.append((aux_col[sset], -cval))
        rows.append((out_terms, EQ, const))

    for pl, ph in aux_bounds:
        lo.append(pl)
        hi.append(ph)
    obj = np.zeros(ncols + len(aux_bounds))
    for cf, v in ir.objective:
        obj[pos[v]] += cf
    lp = LpProblem.from_rows(ncols + len(aux_bounds), obj, lo, hi, rows)
    return lp, ncols


def _pin_block(lo, hi, blk: _Block, th: np.ndarray) -> None:
    """Fix a block's inputs at theta and its output at f(theta) within its bounds.

    An f(theta) outside the output's bounds leaves lo > hi, so the LP is
    infeasible.
    """
    xin = blk.a_lo + th * blk.width
    for j, p in enumerate(blk.input_pos):
        lo[p] = hi[p] = xin[j]
    fval = sum(cv * float(np.prod([th[j] for j in ss])) for ss, cv in blk.coef.items())
    p = blk.output_pos
    lo[p] = max(lo[p], fval)
    hi[p] = min(hi[p], fval)


def _candidate_from_theta(
    nlp: BoxNlp, blocks: list[_Block], theta: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """Fix theta, pin the interpolant columns, repair the linear remainder."""
    ir = nlp.ir
    nv = len(ir.variables)
    pos = ir.var_pos
    lo = nlp.var_lo.copy()
    hi = nlp.var_hi.copy()
    for blk in blocks:
        _pin_block(lo, hi, blk, theta[blk.theta_off : blk.theta_off + blk.n])
    rows = [
        ([(pos[v], cf) for cf, v in c.terms], c.sense, c.rhs)
        for c in ir.constraints
    ]
    obj = np.zeros(nv)
    for cf, v in ir.objective:
        obj[pos[v]] += cf
    res = solve_lp(LpProblem.from_rows(nv, obj, lo, hi, rows))
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
                slope = 0.0
                const = 0.0
                for ss, cv in blk.coef.items():
                    rest = float(np.prod([th[j] for j in ss if j != jfree]))
                    if jfree in ss:
                        slope += cv * rest
                    else:
                        const += cv * rest
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

    best: Optional[tuple[np.ndarray, float]] = None
    nodes = 0
    tick = itertools.count()

    def try_theta(theta: np.ndarray, tlo: np.ndarray, thi: np.ndarray) -> None:
        nonlocal best
        theta = np.clip(theta, tlo, thi)
        cand = _candidate_from_theta(nlp, blocks, theta)
        if cand is None:
            return
        theta2, cand = _coordinate_descent(nlp, blocks, theta, tlo0, thi0, cand)
        if best is None or cand[1] < best[1] - 1e-15:
            best = cand

    lp, _ = _build_node_lp(nlp, blocks, nth, tlo0, thi0)
    root = solve_lp(lp, basis=basis)
    nodes += 1
    if root.status == INFEASIBLE:
        return NlpResult(status=INFEASIBLE, nodes=nodes)
    if root.status == UNBOUNDED:
        return NlpResult(status=OPTIMAL, objective=-np.inf, bound=-np.inf, nodes=nodes)
    nv = len(nlp.ir.variables)
    try_theta(root.x[nv : nv + nth], tlo0, thi0)

    heap: list = [(root.objective, next(tick), tlo0, thi0, root.x, root.basis)]
    bound = root.objective
    while heap:
        node_bound, _, tlo, thi, xrel, start = heapq.heappop(heap)
        bound = node_bound
        if best is not None and bound >= best[1] - max(abs_tol, rel_tol * abs(best[1])):
            return NlpResult(
                status=OPTIMAL, x=best[0], objective=best[1], bound=best[1],
                nodes=nodes, root_basis=root.basis,
            )
        if nodes >= node_limit:
            break
        widths = thi - tlo
        k = int(np.argmax(widths))
        if widths[k] < MIN_BOX_WIDTH:
            continue  # box exhausted; its bound stands
        mid = 0.5 * (tlo[k] + thi[k])
        for half in (0, 1):
            clo = tlo.copy()
            chi = thi.copy()
            if half == 0:
                chi[k] = mid
            else:
                clo[k] = mid
            lp, _ = _build_node_lp(nlp, blocks, nth, clo, chi)
            res = solve_lp(lp, basis=start)
            nodes += 1
            if res.status != OPTIMAL:
                continue
            try_theta(res.x[nv : nv + nth], clo, chi)
            if best is not None and res.objective >= best[1] - max(
                abs_tol, rel_tol * abs(best[1])
            ):
                continue
            heapq.heappush(heap, (res.objective, next(tick), clo, chi, res.x, res.basis))

    if best is None:
        return NlpResult(status=INFEASIBLE, nodes=nodes, root_basis=root.basis)
    return NlpResult(
        status=OPTIMAL, x=best[0], objective=best[1], bound=bound, nodes=nodes,
        root_basis=root.basis,
    )
