"""Dense simplex for linear programs with bounded variables.

The tableau is B^-1 [A I]: n structural columns, then one slack per row
(a_i x + s_i = b_i), in [0, inf) for a ``<=`` row, (-inf, 0] for ``>=`` and
[0, 0] for ``=``. The slack block T[:, n:] is B^-1.

Every solve starts a bounded dual simplex from a basis, then runs the primal
simplex on the objective (phase 2) as a clean-up pass that certifies
optimality. The start is the caller's basis, from an earlier optimal solve,
when the LP can take it (see "Warm start"), else the slack basis: each row
enters with its slack, and each structural's status names its upper bound if
its cost is negative, else its lower bound, placed by the rule there. This
basis has the tableau [A I], with nothing to factorize, and its slacks take
the residuals, in their bounds or not. It is dual feasible when every column
with a nonzero cost is boxed (Bixby 2002; Koberstein 2005); where it is not,
the clean-up pass pivots. Phase 1 runs only when the dual attempt fails (see
the fallbacks below), from the slack basis: the primal loop on a cost
recomputed before every pivot, +1 on a basic above its upper bound by more
than 1e-7, -1 on one below its lower bound by as much, 0 elsewhere. It ends
when no basic is violated, or with Infeasible when pricing finds no entering
column first. Both primal loops use Dantzig pricing with a Bland fallback
after a run of degenerate pivots. A pivot (``_kernels.tableau_pivot``, called
from ``_Tableau.pivot`` only) divides the pivot row by the pivot and updates
only the rows whose pivot-column entry is nonzero, since the others would
change by exact zeros (every row at once when more than half change). The
tableau is refactorized every 150 pivots, unless the deadline has passed
(below); inputs beyond ~5e4 constraint nonzeros are refused. Solver state is
per call, except for the kept tableaus in a dict the caller owns and passes
in (below), so solves that share no such dict may run concurrently.
``LpResult.iterations`` counts every pivot.

Deadline (``solve_lp(lp, deadline=d)``, a ``time.monotonic()`` reading). This
is the one place below ``rfe`` where the clock is read: once before a solve
starts, once before each pivot (a bound flip included) of the dual, phase 1
and phase 2 loops, and once before each 150-pivot refactorization, which is
skipped once ``d`` has passed (a tableau kept past its cadence refactorizes
at its next pivot). So a solve stops within one pivot of ``d``, or within
one refactorization where a warm start or the residual check needs one.
Once the reading is at or past ``d``, the solve starts no work and makes no
pivot: it returns ``TimeLimit`` with no x and no basis, ``iterations`` the
pivots spent, and keeps no tableau. A dual attempt stopped there does not
fall back to phase 1.

Column bounds reach a solve only as ``LpProblem.lo`` and ``hi``: a tree node
solves ``dataclasses.replace(lp, lo=..., hi=...)``, which leaves ``lp``
untouched and shares its rows (bnb), or takes a copy of A with the node's
corner columns written into it (spatial). No LP's A is written once solved.

Warm start (``solve_lp(lp, basis=res.basis)``). Between the two solves the
column bounds, the objective, the coefficients and right-hand sides of the
existing rows may change, and rows may be appended. One start rule holds for
every solve: a basis over every column of the LP and at most its rows is the
start, refused for nothing, and any other basis (another column count, or
more rows) is ignored, so the solve starts from the slack basis as a cold one
does. Appended rows enter the basis with their slack, so a cut that the old
optimum violates is the one infeasible row. Each nonbasic column sits at the
bound its status names when that bound is finite, else at its finite lower
bound, else at its finite upper bound, else free at 0. The tableau is
refactorized from the new rows unless the basis has no row or a kept tableau
applies (below), which is corrected for the new coefficients, so nothing of
the old values is kept but the basis: a row the dual simplex finds infeasible
is a Farkas certificate whatever the reduced costs, and a start that is not
dual feasible is made optimal by the primal clean-up pass.

A basis that is singular on the new rows (LAPACK finds a zero pivot, or
B^-1 B misses I by more than 1e-7, since round-off can hide a zero pivot) is
repaired, not given up: Gaussian elimination over the basic columns in order
finds those that depend on earlier ones, each leaves for the slack of a row
no pivot covers (Bixby 1992, slack substitution), and the basis is
refactorized once more. A dropped column is placed by the rule above, as if
its status named no bound. The solve falls back to phase 1 from the slack
basis, keeping the pivots already spent in ``iterations``, only when the dual
attempt fails: the dual loop hits its iteration or degeneracy limit or cannot
prove a row infeasible, or the attempt raises ``NumericalFailure`` anywhere
(a basis still singular after its repair, or one too ill-conditioned for the
residual check). A failed start does not try the dual again from the slack
basis.

Kept tableaus (``solve_lp(lp, basis, tableaus=d)``). A caller may pass its
LPs one dict, as each branch-and-bound tree does. An optimal solve stores
its final tableau there, with the pivots since its last refactorization and
the LP's A, held by reference, not copied, under the ``LpBasis`` it returns
(``LpBasis`` hashes by identity); the dict keeps the ``KEEP_TABLEAUS`` most
recent. So an LP's A must not be written once it is solved: a new matrix is
a new object. A warm start from a basis found there, over as many rows as
the LP has, copies that tableau. If the LP's A is another object, the copy is
corrected for the structural columns j where it differs: each becomes
B^-1 a_j, read from the slack block, and a changed basic column is pivoted
back into its row (Forrest & Tomlin 1972), or, where that pivot is below
1e-7 of the column's largest entry, leaves for the slack with the largest
entry in that row of B^-1 (Bixby 1992) and is placed by the rule above. These
pivots count in ``iterations``. LPs that share one A object, as bnb's node
LPs do, skip the comparison. The start then recomputes only the basic
values, x_B = T[:, n:] rhs - T[:, nonbasic] x_nonbasic, with no
refactorization. The copy keeps one child's pivots out of its sibling's
start. The pivot count carries over, so the 150-pivot cadence and the
residual check bound the round-off a kept tableau brings along. A start from
a basis over fewer rows, but not none, refactorizes.

Pivot choice, exactly (pricing and ratio test are array operations, and they
choose the same pivots as a column-by-column / row-by-row scan):

- Pricing. A column is eligible if it is nonbasic, not fixed (lo < hi), and its
  reduced cost d_j is below -1e-9 while it may increase (at its lower bound or
  free) or above 1e-9 while it may decrease (at its upper bound or free).
  Dantzig pricing takes the largest |d_j|, the lowest index on ties. Bland's
  rule takes the lowest eligible index.
- Ratio test. A basic row can block if |pivot| > 1e-7 and the bound it moves
  toward is finite; its ratio is clamped at 0. In phase 1 a violated basic
  blocks only while it moves back toward its bounds, at the bound it violates,
  and leaves the basis at that bound. The step starts at the entering column's
  range hi - lo (a bound flip, no leaving row). The blocking rows are
  then taken in row order, and row i with ratio t replaces the current choice
  if t < step - 1e-12, or if t < step + 1e-12 and its |pivot| is larger; step
  becomes t. This is not "minimum ratio, then largest pivot within 1e-12": the
  window moves with each replacement, and from step >= 2**14 on, step + 1e-12
  rounds to step in float64, so of rows tied at the minimum the first is kept
  whatever its pivot.
- Dual simplex. The leaving row is the basic variable with the largest bound
  violation above 1e-7, the lowest row on ties. Entering candidates are the
  movable nonbasic columns whose move toward their allowed side pushes that
  variable toward its violated bound, with |alpha_rj| > 1e-7; the one with the
  minimum |d_j| / |alpha_rj| enters, and of those within 1e-12 of the minimum
  the largest |alpha_rj|, then the lowest index. Each dual pivot computes the
  reduced costs d_j = c_j - c_B T[:, j] of these candidates only, afresh:
  none is carried from one pivot to the next. A violated row with no
  candidate is a Farkas certificate of infeasibility, whatever the reduced
  costs, unless the entries too small to pivot on (but above 1e-12) could
  close the violation over their columns' ranges; then the solve falls back.
"""


from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import NumericalFailure, ProblemTooLarge
from .model import GE, LE

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
TIME_LIMIT = "TimeLimit"

MAX_NONZEROS = 50_000

_AT_LO, _AT_UP, _BASIC, _FREE = 0, 1, 2, 3
# indexed by [vstat, up]: may a nonbasic column at that status decrease (up
# 0) / increase (up 1); index it with a bool array viewed as int8
_MAY_MOVE = np.array([[False, True], [True, False], [False, False], [True, True]])

_RC_TOL = 1e-9
_PIV_TOL = 1e-7  # pivots below this are numerically unsafe to enter the basis
FEAS_TOL = 1e-7
_ZERO_TOL = 1e-12  # tableau entries below this are round-off of exact zeros
_REFACTOR_EVERY = 150
KEEP_TABLEAUS = 4  # final tableaus a ``tableaus`` dict holds, the most recent


@dataclass
class LpProblem:
    obj: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    A: np.ndarray  # dense (m, ncols)
    senses: list[str]
    rhs: np.ndarray

    @classmethod
    def from_rows(
        cls,
        ncols: int,
        obj: Sequence[float],
        lo: Sequence[float],
        hi: Sequence[float],
        rows: Iterable[tuple[Sequence[tuple[int, float]], str, float]],
    ) -> "LpProblem":
        rows = list(rows)
        A = np.zeros((len(rows), ncols))
        senses = []
        rhs = np.zeros(len(rows))
        for i, (terms, sense, b) in enumerate(rows):
            for col, coef in terms:
                A[i, col] += coef
            senses.append(sense)
            rhs[i] = b
        return cls(
            obj=np.asarray(obj, dtype=float),
            lo=np.asarray(lo, dtype=float),
            hi=np.asarray(hi, dtype=float),
            A=A,
            senses=senses,
            rhs=rhs,
        )

    @property
    def ncols(self) -> int:
        return self.obj.size

    @property
    def nrows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True, eq=False)
class LpBasis:
    """Final basis of an optimal solve: basic column per row and every column's status.

    Columns are numbered as in the tableau: n structurals, then one slack per
    row, so ``vstat`` has n + m entries.
    """

    basis: np.ndarray
    vstat: np.ndarray


@dataclass
class LpResult:
    status: str
    x: Optional[np.ndarray] = None
    objective: float = np.inf
    iterations: int = 0  # every pivot, including those of an abandoned warm start
    basis: Optional[LpBasis] = None  # set when Optimal


class _Tableau:
    """Mutable simplex state: the tableau B^-1 [A I] over structurals and
    slacks, and the solve's deadline, which every pivot loop reads."""

    def __init__(self, lp: LpProblem, lo: np.ndarray, hi: np.ndarray, deadline: float):
        n, m = lp.ncols, lp.nrows
        self.n, self.m = n, m
        self.N = n + m
        self.lo = np.concatenate([lo, np.zeros(m)])
        self.hi = np.concatenate([hi, np.zeros(m)])
        for i, s in enumerate(lp.senses):
            if s == LE:
                self.hi[n + i] = np.inf
            elif s == GE:
                self.lo[n + i] = -np.inf
            # EQ keeps the slack fixed at 0
        self.lp = lp
        self.deadline = deadline  # a time.monotonic() reading
        self.pivots = 0  # every pivot, reported as LpResult.iterations
        self.eta = 0  # pivots since the last refactorization

    def start_warm(self, start: LpBasis, tableaus: Optional[dict]) -> None:
        """Take ``start``'s basis, over at most these rows and every column,
        under the current bounds.

        Rows beyond those ``start`` was taken on enter the basis with their
        slack, and the nonbasic columns are placed by ``place``. So from a
        basis over no row this is the slack basis, whose tableau is [A I]
        with nothing to factorize. A start over these rows found in
        ``tableaus`` copies its kept tableau, corrects it for the columns of
        A that changed (``replace_columns``) and recomputes only the basic
        values; any other start refactorizes. A basis singular on these rows
        is repaired once (``repair``); raises NumericalFailure if it is still
        singular.
        """
        n, m, lp = self.n, self.m, self.lp
        m0 = start.basis.size
        self.basis = np.concatenate([start.basis, np.arange(n + m0, n + m)])
        self.vstat = np.concatenate([start.vstat, np.full(m - m0, _BASIC, dtype=np.int8)])
        self.place()
        if m0 == 0:  # every basic is a slack: B = I
            self.T, self.eta = np.hstack([lp.A, np.eye(m)]), 0
            self.xB = lp.rhs - lp.A @ self.xval[:n]
            return
        kept = tableaus.get(start) if tableaus is not None and m0 == m else None
        if kept is None:
            if not self.try_refactorize():  # singular on these rows: repair it, once
                self.repair()
                if not self.try_refactorize():
                    raise NumericalFailure("singular basis after repair")
            return
        T, self.eta, A = kept
        self.T = T.copy()  # siblings start from one kept tableau
        if A is not lp.A:  # LPs that share their A object skip the comparison
            self.replace_columns(np.any(A != lp.A, axis=0).nonzero()[0])
        nb = self.vstat != _BASIC
        self.xB = self.T[:, n:] @ lp.rhs - self.T[:, nb] @ self.xval[nb]

    def replace_columns(self, cols: np.ndarray) -> None:
        """Correct a kept tableau for the structural columns ``cols``, whose
        coefficients differ from those it was computed on.

        Each such column becomes B^-1 a_j, read from the slack block. A basic
        one is then pivoted back into its row, the product-form column
        replacement (Forrest & Tomlin 1972). Where that pivot is below
        _PIV_TOL of its column's largest entry, the slack with the largest
        entry in the row of B^-1 enters instead (Bixby 1992), and the column
        leaves to be placed by ``place``. Every pivot goes through ``pivot``.
        """
        n = self.n
        self.T[:, cols] = self.T[:, n:] @ self.lp.A[:, cols]
        row_of = np.empty(self.N, dtype=np.intp)
        row_of[self.basis] = np.arange(self.m)
        dropped = False
        for j in cols[self.vstat[cols] == _BASIC].tolist():
            r = int(row_of[j])
            col = self.T[:, j]
            if abs(col[r]) > _PIV_TOL * np.abs(col).max():
                self.pivot(r, j)
                continue
            s = n + int(np.abs(self.T[r, n:]).argmax())  # nonbasic: basic slacks are 0 in row r
            self.vstat[j], self.vstat[s], self.basis[r] = _FREE, _BASIC, s
            self.pivot(r, s)
            dropped = True
        if dropped:
            self.place()

    def place(self) -> None:
        """Put each nonbasic column at the bound its status names when that
        bound is finite, else at its finite lower bound, else at its finite
        upper bound, else free at 0; set ``xval`` from the statuses."""
        has_lo, has_hi = np.isfinite(self.lo), np.isfinite(self.hi)
        v = self.vstat
        # a free column's d_j is 0, so it may take a bound it gained; where a
        # moved column is not dual feasible, the clean-up pass pivots
        lost = (v == _FREE) | ((v == _AT_LO) & ~has_lo) | ((v == _AT_UP) & ~has_hi)
        v[lost] = np.where(has_lo, _AT_LO, np.where(has_hi, _AT_UP, _FREE))[lost]
        self.xval = np.where(v == _AT_LO, self.lo, np.where(v == _AT_UP, self.hi, 0.0))

    def refactorize(self) -> None:
        """Rebuild the tableau and basic values from the basis columns."""
        Afull = np.hstack([self.lp.A, np.eye(self.m)])
        B = Afull[:, self.basis]
        try:
            self.T = np.linalg.solve(B, Afull)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        nb_mask = self.vstat != _BASIC
        resid = self.lp.rhs - Afull[:, nb_mask] @ self.xval[nb_mask]
        self.xB = np.linalg.solve(B, resid)
        self.eta = 0

    def try_refactorize(self) -> bool:
        """Refactorize; False if the basis is singular. LAPACK flags only an
        exactly zero pivot, and round-off can hide one, so B^-1 B must also be
        I within _PIV_TOL."""
        try:
            self.refactorize()
        except NumericalFailure:
            return False
        return np.abs(self.T[:, self.basis] - np.eye(self.m)).max(initial=0.0) <= _PIV_TOL

    def repair(self) -> None:
        """Swap the basic columns that depend on earlier ones for slacks.

        Gaussian elimination takes the basic columns in order, each pivoting
        on its largest entry in a row no earlier pivot covers; a column with
        no such entry above _PIV_TOL of its own largest entry is dependent.
        Each dependent column leaves for the slack of an uncovered row (Bixby
        1992), and ``place`` puts it at its finite lower bound, else its
        finite upper bound, else free at 0. A slack is basic only in a row its
        own pivot covers, so every slack that enters was nonbasic.
        """
        W = np.hstack([self.lp.A, np.eye(self.m)])[:, self.basis]
        tol = _PIV_TOL * np.abs(W).max(axis=0)
        covered = np.zeros(self.m, dtype=bool)
        dependent = []
        for k in range(self.m):
            col = W[:, k]  # zero in every covered row: each pivot zeroes its row
            r = int(np.abs(col).argmax())
            if not abs(col[r]) > tol[k]:
                dependent.append(k)
                continue
            covered[r] = True
            W[:, k + 1 :] -= np.outer(col / col[r], W[r, k + 1 :])
        for k, r in zip(dependent, (~covered).nonzero()[0].tolist()):
            self.vstat[self.basis[k]] = _FREE
            self.basis[k] = self.n + r
            self.vstat[self.n + r] = _BASIC
        self.place()

    def exchange(self, row: int, j: int, delta: float, leave_up: bool) -> None:
        """Move column j by ``delta`` into the basis at ``row``; the basic there
        leaves at its upper bound if ``leave_up``, else at its lower bound."""
        enter_val = self.xval[j] + delta
        self.xB -= delta * self.T[:, j]
        leave = self.basis[row]
        self.xval[leave] = self.hi[leave] if leave_up else self.lo[leave]
        self.vstat[leave] = _AT_UP if leave_up else _AT_LO
        self.basis[row] = j
        self.vstat[j] = _BASIC
        self.xB[row] = enter_val
        self.pivot(row, j)

    def pivot(self, row: int, j: int) -> None:
        """Pivot on (row, j); refactorize every _REFACTOR_EVERY pivots unless
        the deadline has passed, when the next loop check stops the solve."""
        _kernels.tableau_pivot(self.T, row, j)
        self.pivots += 1
        self.eta += 1
        if self.eta >= _REFACTOR_EVERY and time.monotonic() < self.deadline:
            self.refactorize()

    def solution(self) -> np.ndarray:
        x = self.xval.copy()
        x[self.basis] = self.xB
        return x


def _price(tab: _Tableau, cost: np.ndarray, bland: bool):
    """Pick an entering column; returns (col, direction) or None at optimum."""
    d = cost - cost[tab.basis] @ tab.T
    movable = tab.lo != tab.hi
    ok = movable & _MAY_MOVE[tab.vstat, (d < 0.0).view(np.int8)]
    viol = np.where(ok, np.abs(d), 0.0)
    j = int((viol > _RC_TOL if bland else viol).argmax())
    if not viol[j] > _RC_TOL:
        return None
    return j, (1.0 if d[j] < 0.0 else -1.0)


def _ratio_test(tab: _Tableau, j: int, direction: float, viol: Optional[np.ndarray] = None):
    """Max step for entering column j; returns (step, leaving row or -1, whether
    it leaves at its upper bound). ``viol``: phase 1's +1/-1/0 per row, or None."""
    coef = direction * tab.T[:, j]
    bound = np.where(coef > 0.0, tab.lo[tab.basis], tab.hi[tab.basis])
    if viol is not None:
        # a violated basic blocks only on its way back, at the bound it violates
        back = np.where(viol > 0.0, tab.hi[tab.basis], tab.lo[tab.basis])
        bound = np.where(viol == 0.0, bound, np.where(viol * coef > 0.0, back, np.inf))
    rows = ((np.abs(coef) > _PIV_TOL) & np.isfinite(bound)).nonzero()[0]
    t = (tab.xB[rows] - bound[rows]) / coef[rows]
    t[t < 0.0] = 0.0
    step = np.inf
    if np.isfinite(tab.lo[j]) and np.isfinite(tab.hi[j]):
        step = float(tab.hi[j] - tab.lo[j])  # bound flip
    # The tie rule depends on row order (see the module docstring), so it is
    # applied in order, to the rows that can block only.
    row = -1
    best_piv = 0.0
    for i, ti, piv in zip(rows.tolist(), t.tolist(), np.abs(coef[rows]).tolist()):
        if ti < step - 1e-12 or (ti < step + 1e-12 and piv > best_piv):
            step, row, best_piv = ti, i, piv
    if row >= 0 and viol is not None and viol[row] != 0.0:
        return step, row, bool(viol[row] > 0.0)
    return step, row, row >= 0 and bool(coef[row] < 0.0)


def _iterate(tab: _Tableau, cost: Optional[np.ndarray], max_iter: int) -> str:
    """Primal simplex on ``cost``, or phase 1 (see the module docstring) if None;
    TimeLimit before a pivot once the tableau's deadline has passed."""
    phase1 = cost is None
    viol = None
    degen = 0
    bland = False
    degen_limit = 2 * (tab.m + tab.N)
    for _ in range(max_iter):
        if phase1:
            lo_b, hi_b = tab.lo[tab.basis], tab.hi[tab.basis]
            viol = (tab.xB > hi_b + FEAS_TOL).astype(float) - (tab.xB < lo_b - FEAS_TOL)
            if not viol.any():
                return OPTIMAL
            cost = np.zeros(tab.N)
            cost[tab.basis] = viol
        pick = _price(tab, cost, bland)
        if pick is None:
            return INFEASIBLE if phase1 else OPTIMAL
        j, direction = pick
        step, row, up = _ratio_test(tab, j, direction, viol)
        if not np.isfinite(step):
            return UNBOUNDED
        if time.monotonic() >= tab.deadline:
            return TIME_LIMIT
        if row == -1:
            # bound flip: entering variable crosses to its other bound
            tab.xB -= direction * step * tab.T[:, j]
            tab.xval[j] = tab.hi[j] if direction > 0 else tab.lo[j]
            tab.vstat[j] = _AT_UP if direction > 0 else _AT_LO
        else:
            tab.exchange(row, j, direction * step, up)
        if step <= 1e-12:
            degen += 1
            if degen > degen_limit:
                bland = True
        else:
            degen = 0
    raise NumericalFailure("simplex iteration limit exceeded")


def _dual_iterate(tab: _Tableau, cost: np.ndarray, max_iter: int) -> Optional[str]:
    """Dual simplex until the basis is primal feasible.

    Returns Optimal (primal feasible), Infeasible (a row certifies it),
    TimeLimit (the tableau's deadline passed before a pivot), or None to fall
    back: the iteration or degeneracy limit is hit, or a row's infeasibility
    is not proven.
    """
    if tab.m == 0:
        return OPTIMAL  # no basic variable to violate a bound
    degen = 0
    degen_limit = 2 * (tab.m + tab.N)
    movable = tab.lo != tab.hi
    span = tab.hi - tab.lo
    for _ in range(max_iter):
        lo_b, hi_b = tab.lo[tab.basis], tab.hi[tab.basis]
        viol = np.maximum(lo_b - tab.xB, tab.xB - hi_b)
        r = int(viol.argmax())
        if not viol[r] > FEAS_TOL:
            return OPTIMAL
        rise = tab.xB[r] < lo_b[r]  # the leaving variable must increase
        target = lo_b[r] if rise else hi_b[r]
        # orient the row so that a column helps when it moves against alpha
        alpha = tab.T[r] if rise else -tab.T[r]
        size = np.abs(alpha)
        right = movable & _MAY_MOVE[tab.vstat, (alpha < 0.0).view(np.int8)]
        cols = (right & (size > _PIV_TOL)).nonzero()[0]
        if not cols.size:
            # Farkas: the row proves infeasibility unless the entries too small
            # to pivot on, but above round-off, could close the violation
            small = right & (size > _ZERO_TOL)
            reach = float(size[small] @ span[small])
            return INFEASIBLE if reach + FEAS_TOL < viol[r] else None
        if time.monotonic() >= tab.deadline:
            return TIME_LIMIT
        # reduced costs of the candidates only
        d = cost[cols] - cost[tab.basis] @ tab.T[:, cols]
        piv = size[cols]
        ratio = np.abs(d) / piv
        tmin = ratio.min()
        q = int(cols[np.where(ratio <= tmin + 1e-12, piv, -1.0).argmax()])
        tab.exchange(r, q, (tab.xB[r] - target) / tab.T[r, q], not rise)
        if tmin <= 1e-12:
            degen += 1
            if degen > degen_limit:
                return None
        else:
            degen = 0
    return None


def _phase2(
    tab: _Tableau, cost: np.ndarray, max_iter: int, tableaus: Optional[dict]
) -> LpResult:
    """Primal simplex from a primal feasible basis; an optimal tableau is kept
    in ``tableaus`` under its basis."""
    n, lp = tab.n, tab.lp
    status = _iterate(tab, cost, max_iter)
    if status == UNBOUNDED:
        return LpResult(status=UNBOUNDED, objective=-np.inf, iterations=tab.pivots)
    if status == TIME_LIMIT:
        return LpResult(status=TIME_LIMIT, iterations=tab.pivots)

    x = tab.solution()
    resid = lp.A @ x[:n] + x[n:] - lp.rhs
    if np.max(np.abs(resid), initial=0.0) > 1e-6:
        tab.refactorize()
        x = tab.solution()
        resid = lp.A @ x[:n] + x[n:] - lp.rhs
        if np.max(np.abs(resid), initial=0.0) > 1e-6:
            raise NumericalFailure("primal residual too large after refactorization")
    basis = LpBasis(tab.basis, tab.vstat)
    if tableaus is not None:
        # tab is discarded, so T is not copied; A is held by reference, and
        # no caller writes into an LP's A once it is solved
        tableaus[basis] = (tab.T, tab.eta, lp.A)
        while len(tableaus) > KEEP_TABLEAUS:
            del tableaus[next(iter(tableaus))]  # the oldest entry
    obj = float(lp.obj @ x[:n])
    return LpResult(
        status=OPTIMAL, x=x[:n].copy(), objective=obj, iterations=tab.pivots, basis=basis
    )


def solve_lp(
    lp: LpProblem,
    basis: Optional[LpBasis] = None,
    tableaus: Optional[dict] = None,
    deadline: float = np.inf,
) -> LpResult:
    """Solve min obj @ x subject to the rows and column bounds of ``lp``.

    ``lp`` is read, never written. The dual simplex starts from ``basis``,
    from an earlier optimal solve, when it covers every column of ``lp`` and
    at most its rows; from the slack basis when there is none or it has
    another shape. Phase 1 runs only when that dual attempt fails (see the
    module docstring). ``tableaus`` is the caller's cache of final tableaus
    by basis: an optimal solve keeps its own there, and a warm start from a
    basis found there copies it and corrects the copy for the columns of A
    that differ. ``lp.A`` is kept by reference, so it must not be written
    after the solve. Deterministic for identical input and the same number
    of BLAS threads: a multithreaded BLAS may sum in another order, and
    round-off can then pick another pivot.
    ``deadline`` is a ``time.monotonic()`` reading: once it has passed, the
    solve starts nothing and pivots no more, and returns ``TimeLimit``.
    """
    if time.monotonic() >= deadline:
        return LpResult(status=TIME_LIMIT)
    nnz = int(np.count_nonzero(lp.A))
    if nnz > MAX_NONZEROS:
        raise ProblemTooLarge(f"{nnz} nonzeros exceeds dense limit {MAX_NONZEROS}")
    lo = np.asarray(lp.lo, dtype=float)
    hi = np.asarray(lp.hi, dtype=float)
    if np.any(lo > hi + 1e-12):
        return LpResult(status=INFEASIBLE)
    # collapse crossing bounds from round-off
    hi = np.maximum(hi, lo)

    n, m = lp.ncols, lp.nrows
    N = n + m
    max_iter = 5000 + 200 * (m + N)
    cost = np.zeros(N)
    cost[:n] = lp.obj
    tab = _Tableau(lp, lo, hi, deadline)
    # the slack basis: no basic row, each structural at the bound its cost favours
    slack = LpBasis(np.arange(0), np.where(lp.obj < 0.0, _AT_UP, _AT_LO).astype(np.int8))
    if basis is None or basis.basis.size > m or basis.vstat.size != n + basis.basis.size:
        basis = slack  # a basis of another shape is no start
    try:
        tab.start_warm(basis, tableaus)
        status = _dual_iterate(tab, cost, max_iter)
        if status in (INFEASIBLE, TIME_LIMIT):
            return LpResult(status=status, iterations=tab.pivots)
        if status == OPTIMAL:
            return _phase2(tab, cost, max_iter, tableaus)
    except NumericalFailure:
        pass  # phase 1 below starts afresh; tab.pivots keeps counting

    tab.start_warm(slack, None)
    status = _iterate(tab, None, max_iter)
    if status == UNBOUNDED:  # cannot happen: the violation is bounded below
        raise NumericalFailure("phase-1 reported unbounded")
    if status in (INFEASIBLE, TIME_LIMIT):
        return LpResult(status=status, iterations=tab.pivots)
    return _phase2(tab, cost, max_iter, tableaus)
