"""Bounded-variable simplex against independent references.

Small LPs are checked against brute-force vertex enumeration; random LPs with
mixed senses and bound patterns against scipy's HiGHS. The array-based pricing
and ratio test, the latter in both phases, are checked call by call against
scalar loops. Warm starts from an earlier optimal basis, after a bound change,
an appended row, or new coefficients and right-hand sides in the existing rows,
are checked against HiGHS on the changed LP. Cold starts run the dual simplex
from the slack basis, and phase 1 only when it gives up.
"""

import dataclasses
import functools
import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from gridopt import _kernels, rfe, simplex
from gridopt.errors import NumericalFailure, ProblemTooLarge
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.simplex import (
    _AT_LO,
    _AT_UP,
    _BASIC,
    FEAS_TOL,
    _FREE,
    _PIV_TOL,
    _RC_TOL,
    INFEASIBLE,
    MAX_NONZEROS,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    LpBasis,
    LpProblem,
    _price,
    _ratio_test,
    solve_lp,
)

from _clock import Clock


def _scipy_solve(lp: LpProblem):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(lp.senses):
        if s == "<=":
            A_ub.append(lp.A[i])
            b_ub.append(lp.rhs[i])
        elif s == ">=":
            A_ub.append(-lp.A[i])
            b_ub.append(-lp.rhs[i])
        else:
            A_eq.append(lp.A[i])
            b_eq.append(lp.rhs[i])
    bounds = [
        (None if not np.isfinite(l) else l, None if not np.isfinite(h) else h)
        for l, h in zip(lp.lo, lp.hi)
    ]
    return linprog(
        lp.obj,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def _random_lp(rng, n=5, m=4):
    A = rng.normal(size=(m, n))
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    rhs = rng.normal(size=m)
    lo = np.empty(n)
    hi = np.empty(n)
    for j in range(n):
        kind = rng.integers(4)
        a, b = sorted(rng.normal(size=2) * 3)
        if kind == 0:
            lo[j], hi[j] = a, b
        elif kind == 1:
            lo[j], hi[j] = a, np.inf
        elif kind == 2:
            lo[j], hi[j] = -np.inf, b
        else:
            lo[j], hi[j] = -np.inf, np.inf
    return LpProblem(obj=rng.normal(size=n), lo=lo, hi=hi, A=A, senses=senses, rhs=rhs)


class TestHandPicked:
    def test_min_single_variable(self):
        lp = LpProblem.from_rows(1, [1.0], [1.0], [5.0], [])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(1.0)

    def test_simple_max_via_negation(self):
        lp = LpProblem.from_rows(
            2, [-1.0, -1.0], [0, 0], [np.inf, np.inf],
            [([(0, 1.0), (1, 1.0)], "<=", 1.0)],
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-1.0)

    def test_infeasible(self):
        lp = LpProblem.from_rows(
            1, [1.0], [0.0], [1.0],
            [([(0, 1.0)], ">=", 2.0)],
        )
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LpProblem.from_rows(1, [-1.0], [0.0], [np.inf], [])
        assert solve_lp(lp).status == UNBOUNDED

    def test_crossing_bounds_infeasible(self):
        lp = LpProblem.from_rows(1, [1.0], [2.0], [1.0], [])
        res = solve_lp(lp)
        assert res.status == INFEASIBLE

    def test_size_guard(self):
        n = 300
        A = np.ones((n, n))
        lp = LpProblem(
            obj=np.zeros(n), lo=np.zeros(n), hi=np.ones(n),
            A=A, senses=["<="] * n, rhs=np.ones(n),
        )
        assert n * n > MAX_NONZEROS
        with pytest.raises(ProblemTooLarge):
            solve_lp(lp)


class TestVertexEnumerationOracle:
    def _oracle(self, lp):
        """Optimum by enumerating basic points of the standard-form system."""
        n, m = lp.ncols, lp.nrows
        # only <= rows with box bounds here; enumerate active-set intersections
        best = np.inf
        cand_rows = [(lp.A[i], lp.rhs[i]) for i in range(m)]
        cand_rows += [(e, b) for e, b in zip(np.eye(n), lp.hi)]
        cand_rows += [(-e, -b) for e, b in zip(np.eye(n), lp.lo)]
        for combo in itertools.combinations(range(len(cand_rows)), n):
            M = np.array([cand_rows[i][0] for i in combo])
            b = np.array([cand_rows[i][1] for i in combo])
            try:
                x = np.linalg.solve(M, b)
            except np.linalg.LinAlgError:
                continue
            if np.all(lp.A @ x <= lp.rhs + 1e-9) and np.all(
                x >= lp.lo - 1e-9
            ) and np.all(x <= lp.hi + 1e-9):
                best = min(best, float(lp.obj @ x))
        return best

    def test_random_inequality_lps(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, m = 3, 3
            lp = LpProblem(
                obj=rng.normal(size=n),
                lo=np.zeros(n),
                hi=rng.uniform(0.5, 2.0, n),
                A=rng.normal(size=(m, n)),
                senses=["<="] * m,
                rhs=rng.uniform(0.5, 2.0, m),
            )
            res = solve_lp(lp)
            assert res.status == OPTIMAL  # origin is feasible
            assert res.objective == pytest.approx(self._oracle(lp), abs=1e-7)


class TestAgainstScipy:
    def test_random_mixed_lps(self):
        rng = np.random.default_rng(2024)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(120):
            lp = _random_lp(rng)
            res = solve_lp(lp)
            ref = _scipy_solve(lp)
            if ref.status == 0:
                statuses["optimal"] += 1
                assert res.status == OPTIMAL
                assert res.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            elif ref.status == 2:
                statuses["infeasible"] += 1
                assert res.status == INFEASIBLE
            elif ref.status == 3:
                statuses["unbounded"] += 1
                assert res.status == UNBOUNDED
        # the generator must actually exercise all three outcomes
        assert min(statuses.values()) > 0


# The scalar loops the simplex used before pricing and the ratio test became
# array operations, kept as the reference for every pivot choice; the ratio
# test loop has gained phase 1's rule for violated basics.


def _price_loop(tab, cost: np.ndarray, bland: bool):
    """Pick an entering column; returns (col, direction) or None at optimum."""
    z = cost[tab.basis] @ tab.T
    d = cost - z
    best = None
    best_viol = _RC_TOL
    for j in range(tab.N):
        st = tab.vstat[j]
        if st == _BASIC or tab.lo[j] == tab.hi[j]:
            continue
        if (st == _AT_LO or st == _FREE) and d[j] < -best_viol:
            cand = (j, 1.0)
            viol = -d[j]
        elif (st == _AT_UP or st == _FREE) and d[j] > best_viol:
            cand = (j, -1.0)
            viol = d[j]
        else:
            continue
        if bland:
            return cand
        best, best_viol = cand, viol
    return best


def _ratio_test_loop(tab, j: int, direction: float, viol=None):
    """Max step for entering column j; returns (step, leaving row or -1, whether
    it leaves at its upper bound). ``viol``: phase 1's +1/-1/0 per row, or None."""
    w = tab.T[:, j]
    step = np.inf
    row = -1
    up = False
    if np.isfinite(tab.lo[j]) and np.isfinite(tab.hi[j]):
        step = tab.hi[j] - tab.lo[j]  # bound flip
    best_piv = 0.0
    for i in range(tab.m):
        coef = direction * w[i]
        b = tab.basis[i]
        lo, hi = tab.lo[b], tab.hi[b]
        if viol is not None and viol[i] > 0:
            lo, hi = hi, np.inf  # above its bounds: blocks only falling back to hi
        elif viol is not None and viol[i] < 0:
            lo, hi = -np.inf, lo  # below: blocks only rising back to lo
        if coef > _PIV_TOL:
            if not np.isfinite(lo):
                continue
            t = (tab.xB[i] - lo) / coef
            at_up = viol is not None and viol[i] > 0
        elif coef < -_PIV_TOL:
            if not np.isfinite(hi):
                continue
            t = (tab.xB[i] - hi) / coef
            at_up = not (viol is not None and viol[i] < 0)
        else:
            continue
        t = max(t, 0.0)
        if t < step - 1e-12 or (t < step + 1e-12 and abs(coef) > best_piv):
            step = t
            row = i
            best_piv = abs(coef)
            up = at_up
    return step, row, up


def _violation_loop(tab) -> np.ndarray:
    """Phase 1's row violation: +1 above the upper bound, -1 below the lower."""
    viol = np.zeros(tab.m)
    for i, b in enumerate(tab.basis):
        if tab.xB[i] > tab.hi[b] + FEAS_TOL:
            viol[i] = 1.0
        elif tab.xB[i] < tab.lo[b] - FEAS_TOL:
            viol[i] = -1.0
    return viol


def _lattice_tableau(rng, m: int, N: int):
    """Simplex state whose entries lie on a coarse lattice, so exact ties in
    reduced costs and in ratios are common. Bounds mix finite, infinite and
    fixed; nonbasic columns sit at a lower bound, an upper bound, or are free.
    """
    T = rng.integers(-3, 4, size=(m, N)) * 0.5
    T[rng.random((m, N)) < 0.3] = 0.0
    T[rng.random((m, N)) < 0.05] = 1e-8  # below the pivot tolerance
    lo = rng.integers(-2, 1, size=N).astype(float)
    hi = lo + rng.integers(0, 3, size=N)  # width 0 makes a fixed column
    lo[rng.random(N) < 0.25] = -np.inf
    hi[rng.random(N) < 0.25] = np.inf
    vstat = np.where(
        np.isfinite(lo), _AT_LO, np.where(np.isfinite(hi), _AT_UP, _FREE)
    ).astype(np.int8)
    boxed = np.isfinite(lo) & np.isfinite(hi) & (rng.random(N) < 0.5)
    vstat[boxed] = _AT_UP
    basis = rng.choice(N, size=m, replace=False)
    vstat[basis] = _BASIC
    base = np.where(np.isfinite(lo[basis]), lo[basis], hi[basis])
    base[~np.isfinite(base)] = 0.0
    xB = base + rng.integers(-1, 5, size=m) * 0.5  # some below lo: clamped ratios
    return SimpleNamespace(T=T, basis=basis, vstat=vstat, lo=lo, hi=hi, xB=xB, m=m, N=N)


def _lattice_cost(rng, N: int):
    cost = rng.integers(-2, 3, size=N) * 0.5
    cost[rng.random(N) < 0.3] = 0.0
    return cost


class TestPivotRulesMatchLoops:
    def test_price_matches_loop(self):
        rng = np.random.default_rng(7)
        seen = {"none": 0, "rise": 0, "fall": 0, "free": 0, "bland_differs": 0, "tied": 0}
        for _ in range(1500):
            tab = _lattice_tableau(rng, int(rng.integers(1, 8)), int(rng.integers(8, 20)))
            cost = _lattice_cost(rng, tab.N)
            for bland in (False, True):
                got = _price(tab, cost, bland)
                assert got == _price_loop(tab, cost, bland)
                if got is None:
                    seen["none"] += 1
                    continue
                j, direction = got
                seen["rise" if direction > 0 else "fall"] += 1
                seen["free"] += int(tab.vstat[j] == _FREE)
            dantzig, first = _price(tab, cost, False), _price(tab, cost, True)
            seen["bland_differs"] += int(dantzig != first)
            if dantzig is not None:
                d = np.abs(cost - cost[tab.basis] @ tab.T)
                d[tab.vstat == _BASIC] = 0.0
                seen["tied"] += int(np.count_nonzero(d == d[dantzig[0]]) > 1)
        assert min(seen.values()) > 0, seen

    def test_ratio_test_matches_loop(self):
        rng = np.random.default_rng(8)
        seen = {
            "flip": 0, "row": 0, "unbounded": 0, "tied": 0, "flip_tied": 0, "zero": 0,
            "up": 0, "violated_block": 0, "violated_passed": 0,
        }
        for _ in range(1500):
            tab = _lattice_tableau(rng, int(rng.integers(1, 12)), int(rng.integers(12, 20)))
            for _ in range(4):
                j = int(rng.integers(tab.N))
                direction = float(rng.choice([-1.0, 1.0]))
                for viol in (None, _violation_loop(tab)):
                    step, row, up = _ratio_test(tab, j, direction, viol)
                    assert (step, row, up) == _ratio_test_loop(tab, j, direction, viol)
                    if not np.isfinite(step):
                        seen["unbounded"] += 1
                        continue
                    seen["flip" if row == -1 else "row"] += 1
                    seen["up"] += int(up)
                    coef = direction * tab.T[:, j]
                    if viol is not None:
                        seen["violated_block"] += int(row >= 0 and viol[row] != 0.0)
                        away = (viol * coef < 0.0) & (np.abs(coef) > _PIV_TOL)
                        seen["violated_passed"] += int(away.any())
                        continue
                    seen["zero"] += int(step == 0.0)
                    bound = np.where(coef > 0, tab.lo[tab.basis], tab.hi[tab.basis])
                    ok = (np.abs(coef) > _PIV_TOL) & np.isfinite(bound)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        t = np.maximum((tab.xB - bound) / coef, 0.0)
                    seen["tied"] += int(np.count_nonzero(ok & (t == step)) > 1)
                    flip = tab.hi[j] - tab.lo[j]
                    seen["flip_tied"] += int(row >= 0 and flip == step)
        assert min(seen.values()) > 0, seen

    def _one_column(self, xB, col, lo_b, hi_b, lo_j=0.0, hi_j=np.inf):
        m = len(xB)
        T = np.zeros((m, m + 1))
        T[:, :m] = np.eye(m)
        T[:, m] = col
        return SimpleNamespace(
            T=T, basis=np.arange(m),
            vstat=np.array([_BASIC] * m + [_AT_LO], dtype=np.int8),
            lo=np.array(list(lo_b) + [lo_j]), hi=np.array(list(hi_b) + [hi_j]),
            xB=np.array(xB, dtype=float), m=m, N=m + 1,
        )

    def test_tie_at_large_ratio_keeps_first_row(self):
        # From step >= 2**14, step + 1e-12 rounds to step: the loop keeps the
        # first of rows tied at the minimum ratio, even with a smaller pivot.
        tab = self._one_column(
            [17000.0, 34000.0, 51000.0], [1.0, 2.0, 3.0], [0.0] * 3, [np.inf] * 3
        )
        assert _ratio_test_loop(tab, 3, 1.0) == (17000.0, 0, False)
        assert _ratio_test(tab, 3, 1.0) == (17000.0, 0, False)
        # below 2**14 the same tie goes to the largest pivot
        tab.xB = tab.xB / 4
        assert _ratio_test_loop(tab, 3, 1.0) == (4250.0, 2, False)
        assert _ratio_test(tab, 3, 1.0) == (4250.0, 2, False)

    def test_near_ties_chain_in_row_order(self):
        # Each row is within 1e-12 of the previous choice and has a larger
        # pivot, so the choice walks to the last row although its ratio is
        # more than 1e-12 above the minimum.
        xB = [1.0, 2.0 * (1.0 + 0.6e-12), 3.0 * (1.0 + 1.2e-12)]
        tab = self._one_column(xB, [1.0, 2.0, 3.0], [0.0] * 3, [np.inf] * 3)
        expected = _ratio_test_loop(tab, 3, 1.0)
        assert expected[1] == 2 and expected[0] - 1.0 > 1e-12
        assert _ratio_test(tab, 3, 1.0) == expected

    def test_bound_flip_against_rows(self):
        # decreasing direction: rows block at their upper bounds
        tab = self._one_column([1.0, 1.0], [1.0, 2.0], [-np.inf] * 2, [3.0, 2.0], 0.0, 1.0)
        for lo_j, hi_j in ((0.0, 0.25), (0.0, 0.5), (0.0, 0.5 + 1e-13), (0.0, 2.0)):
            tab.lo[2], tab.hi[2] = lo_j, hi_j
            assert _ratio_test(tab, 2, -1.0) == _ratio_test_loop(tab, 2, -1.0)
        tab.hi[2] = 0.25
        assert _ratio_test(tab, 2, -1.0) == (0.25, -1, False)
        tab.hi[2] = 0.5  # tied with row 1: the row wins
        assert _ratio_test(tab, 2, -1.0) == (0.5, 1, True)


def _with_row(lp: LpProblem, a, sense: str, b: float) -> LpProblem:
    return dataclasses.replace(
        lp, A=np.vstack([lp.A, a]), senses=lp.senses + [sense], rhs=np.append(lp.rhs, b)
    )


def _optimal_lps(rng, count: int):
    """The first ``count`` random LPs with an optimal solution, solved cold."""
    while count:
        lp = _random_lp(rng)
        res = solve_lp(lp)
        if res.status == OPTIMAL:
            count -= 1
            yield lp, res


@pytest.fixture
def dual_outcomes(monkeypatch):
    """Every return value of the dual simplex loop (None: fell back to phase 1)."""
    seen = []
    dual = simplex._dual_iterate

    def spy(*args):
        seen.append(dual(*args))
        return seen[-1]

    monkeypatch.setattr(simplex, "_dual_iterate", spy)
    return seen


@pytest.fixture
def refactorizations(monkeypatch):
    """One entry per call of ``_Tableau.refactorize``."""
    seen = []
    real = simplex._Tableau.refactorize
    monkeypatch.setattr(simplex._Tableau, "refactorize", lambda tab: seen.append(1) or real(tab))
    return seen


def test_slack_start_is_not_factorized(refactorizations):
    # the slack basis's tableau is [A I], so a cold solve refactorizes only at
    # the 150-pivot cadence
    rng = np.random.default_rng(39)
    pivoted = 0
    for k in range(120):
        lp = _random_lp(rng, n=5 + k % 25, m=4 + k % 20)
        refactorizations.clear()
        res = solve_lp(lp)
        assert res.iterations < 150 and not refactorizations
        pivoted += res.iterations > 0
    assert pivoted > 100


def _phase1_solve(monkeypatch, lp: LpProblem):
    """A cold solve of ``lp`` that runs phase 1, as one does when the dual
    simplex gives up on the slack basis at once."""
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_dual_iterate", lambda *args: None)
        return solve_lp(lp)


def _assert_matches_scipy(res, lp: LpProblem) -> str:
    ref = _scipy_solve(lp)
    if ref.status == 0:
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        return OPTIMAL
    assert ref.status == 2 and res.status == INFEASIBLE
    return INFEASIBLE


@pytest.fixture
def loops(monkeypatch):
    """(phase 1?, pivots taken, status) per call of the primal loop."""
    seen = []
    primal = simplex._iterate

    def spy(tab, cost, max_iter):
        before = tab.pivots
        status = primal(tab, cost, max_iter)
        seen.append((cost is None, tab.pivots - before, status))
        return status

    monkeypatch.setattr(simplex, "_iterate", spy)
    return seen


class TestColdStart:
    """A cold solve starts the dual simplex from the slack basis, each
    structural at the bound its cost favours; phase 1 runs only if that fails."""

    def test_boxed_lp_never_runs_phase_1(self, loops, dual_outcomes):
        rng = np.random.default_rng(47)
        seen = {OPTIMAL: 0, INFEASIBLE: 0}
        for _ in range(80):
            lp = _random_lp(rng)
            lp.lo, lp.hi = np.sort(rng.normal(size=(2, lp.ncols)) * 3, axis=0)
            loops.clear()
            dual_outcomes.clear()
            status = _assert_matches_scipy(solve_lp(lp), lp)
            assert dual_outcomes == [status]
            # a boxed slack basis is dual feasible: the clean-up takes no pivot
            assert loops == ([(False, 0, OPTIMAL)] if status == OPTIMAL else [])
            seen[status] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize(
        "obj, lo, hi, rows",
        [
            # x0 is free with a nonzero cost, so it starts at 0 with d_0 = -1
            (
                [-1.0, 0.5],
                [-np.inf, 0.0],
                [np.inf, 2.0],
                [([(0, 1.0), (1, 1.0)], "<=", 3.0), ([(0, 1.0), (1, -1.0)], ">=", -1.0)],
            ),
            # x0 has a negative cost and no upper bound, so it starts at its lower
            (
                [-1.0, 1.0],
                [0.0, 0.0],
                [np.inf, 2.0],
                [([(0, 1.0), (1, -1.0)], "<=", 3.0), ([(1, 1.0)], ">=", 1.0)],
            ),
        ],
        ids=["free_column", "negative_cost_no_upper_bound"],
    )
    def test_not_dual_feasible_ends_in_the_clean_up(self, loops, dual_outcomes, obj, lo, hi, rows):
        lp = LpProblem.from_rows(2, obj, lo, hi, rows)
        res = solve_lp(lp)
        assert _assert_matches_scipy(res, lp) == OPTIMAL
        assert res.objective == pytest.approx(-3.0)
        assert dual_outcomes == [OPTIMAL]
        ((phase1, cleanup, status),) = loops
        assert not phase1 and cleanup > 0 and status == OPTIMAL

    def test_dual_giving_up_falls_back_to_phase_1(self, monkeypatch, loops):
        counted = []
        pivot = _kernels.tableau_pivot
        monkeypatch.setattr(_kernels, "tableau_pivot", lambda T, *a: counted.append(1) or pivot(T, *a))
        dual = simplex._dual_iterate
        spent = []

        def gives_up(tab, cost, max_iter):
            dual(tab, cost, 2)  # two pivots at most, then no answer
            spent.append(tab.pivots)
            return None

        monkeypatch.setattr(simplex, "_dual_iterate", gives_up)
        rng = np.random.default_rng(48)
        for _ in range(60):
            lp = _random_lp(rng)
            loops.clear()
            counted.clear()
            res = solve_lp(lp)
            if _scipy_solve(lp).status == 3:
                assert res.status == UNBOUNDED
            else:
                _assert_matches_scipy(res, lp)
            assert loops[0][0]  # phase 1 ran
            assert res.iterations == len(counted)
            # from the slack basis afresh, after the dual's pivots
            alone = _phase1_solve(monkeypatch, lp)
            assert res.iterations == spent[-1] + alone.iterations
            assert res.status == alone.status and res.objective == alone.objective
        assert sum(spent) > 0

    def test_infeasible_is_a_farkas_row(self, loops, dual_outcomes):
        # x0 + x1 >= 3 over [0, 1]^2
        lp = LpProblem.from_rows(
            2, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [([(0, 1.0), (1, 1.0)], ">=", 3.0)]
        )
        assert solve_lp(lp).status == INFEASIBLE
        assert dual_outcomes == [INFEASIBLE] and loops == []

    def test_unbounded(self, loops, dual_outcomes):
        # min -x0 - x1 with x0 - x1 <= 1 over the nonnegative orthant
        lp = LpProblem.from_rows(
            2, [-1.0, -1.0], [0.0, 0.0], [np.inf, np.inf], [([(0, 1.0), (1, -1.0)], "<=", 1.0)]
        )
        res = solve_lp(lp)
        assert res.status == UNBOUNDED and res.objective == -np.inf
        assert dual_outcomes == [OPTIMAL]
        assert [(phase1, status) for phase1, _, status in loops] == [(False, UNBOUNDED)]


class TestWarmStart:
    def test_tightened_or_fixed_bound(self, dual_outcomes):
        rng = np.random.default_rng(31)
        seen = {OPTIMAL: 0, INFEASIBLE: 0}
        for k, (lp, res) in enumerate(_optimal_lps(rng, 100)):
            j = int(rng.integers(lp.ncols))
            lo, hi = lp.lo.copy(), lp.hi.copy()
            v = float(np.clip(res.x[j] + 2.0 * rng.normal(), lo[j], hi[j]))
            if k % 2:
                lo[j] = hi[j] = v
            else:
                hi[j] = max(v, lo[j])
            dual_outcomes.clear()
            tightened = dataclasses.replace(lp, lo=lo, hi=hi)
            got = solve_lp(tightened, basis=res.basis)
            status = _assert_matches_scipy(got, tightened)
            # the dual phase itself reaches the answer, infeasibility included
            assert dual_outcomes == [status]
            seen[status] += 1
        assert min(seen.values()) > 0, seen

    def test_appended_row_cuts_off_optimum(self, dual_outcomes):
        rng = np.random.default_rng(32)
        seen = {OPTIMAL: 0, INFEASIBLE: 0}
        for lp, res in _optimal_lps(rng, 100):
            a = rng.normal(size=lp.ncols)
            cut = _with_row(lp, a, ">=", float(a @ res.x) + 0.1 + abs(rng.normal()))
            dual_outcomes.clear()
            got = solve_lp(cut, basis=res.basis)
            status = _assert_matches_scipy(got, cut)
            assert dual_outcomes == [status]
            seen[status] += 1
        assert min(seen.values()) > 0, seen

    def test_infeasible_tightening_reported_by_dual(self, dual_outcomes):
        # min x0 + x1 s.t. x0 + x1 >= 1: fixing both columns at 0 is infeasible
        lp = LpProblem.from_rows(
            2, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [([(0, 1.0), (1, 1.0)], ">=", 1.0)]
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        dual_outcomes.clear()
        got = solve_lp(dataclasses.replace(lp, lo=np.zeros(2), hi=np.zeros(2)), basis=res.basis)
        assert got.status == INFEASIBLE
        assert dual_outcomes == [INFEASIBLE]

    def test_unchanged_lp_takes_no_pivot(self):
        rng = np.random.default_rng(33)
        for lp, res in _optimal_lps(rng, 40):
            again = solve_lp(lp, basis=res.basis)
            assert again.status == OPTIMAL
            assert again.iterations == 0
            assert again.objective == pytest.approx(res.objective, abs=1e-9)

    def test_other_shape_falls_back_to_cold(self, dual_outcomes):
        # another column count, or more rows than the LP has: the basis is
        # ignored, and the solve is the cold one, dual simplex included
        rng = np.random.default_rng(34)
        lp5, res5 = next(_optimal_lps(rng, 1))
        seen = set()
        for k in range(24):
            other = _random_lp(rng, n=6) if k % 2 else _random_lp(rng, n=5, m=3)
            dual_outcomes.clear()
            cold = solve_lp(other)
            warm = solve_lp(other, basis=res5.basis)
            assert dual_outcomes[0] is not None and dual_outcomes[1] == dual_outcomes[0]
            assert warm.status == cold.status
            assert warm.objective == cold.objective
            assert warm.iterations == cold.iterations
            if cold.x is None:
                assert warm.x is None
            else:
                np.testing.assert_array_equal(warm.x, cold.x)
            seen.add(cold.status)
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}, seen

    def test_nonbasic_column_that_lost_its_named_bound(self, loops, dual_outcomes):
        # the column moves to its other finite bound, else free at 0, and the
        # dual simplex starts from the basis as it is; phase 1 never runs
        rng = np.random.default_rng(38)
        seen = {OPTIMAL: 0, UNBOUNDED: 0}  # a relaxed feasible LP stays feasible
        for lp, res in _optimal_lps(rng, 150):
            at_bound = (res.basis.vstat[: lp.ncols] == _AT_LO) | (res.basis.vstat[: lp.ncols] == _AT_UP)
            if not at_bound.any():
                continue
            j = int(rng.choice(at_bound.nonzero()[0]))
            lo, hi = lp.lo.copy(), lp.hi.copy()
            if res.basis.vstat[j] == _AT_LO:
                lo[j] = -np.inf
            else:
                hi[j] = np.inf
            lost = dataclasses.replace(lp, lo=lo, hi=hi)
            loops.clear()
            dual_outcomes.clear()
            got = solve_lp(lost, basis=res.basis)
            assert dual_outcomes == [OPTIMAL]
            assert not any(phase1 for phase1, _, _ in loops)
            if _scipy_solve(lost).status == 3:
                assert got.status == UNBOUNDED
            else:
                _assert_matches_scipy(got, lost)
            seen[got.status] += 1
        assert min(seen.values()) > 0, seen

    def test_changed_rows_match_cold_and_scipy(self, dual_outcomes):
        # new coefficients and right-hand sides in every row: the old basis is
        # refactorized from them, and is in general neither primal nor dual
        # feasible
        rng = np.random.default_rng(36)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for lp, res in _optimal_lps(rng, 100):
            moved = dataclasses.replace(
                lp,
                A=lp.A + 0.3 * rng.normal(size=lp.A.shape),
                rhs=lp.rhs + 0.3 * rng.normal(size=lp.nrows),
            )
            dual_outcomes.clear()
            got = solve_lp(moved, basis=res.basis)
            assert dual_outcomes in ([OPTIMAL], [INFEASIBLE])  # no fallback
            cold = solve_lp(moved)
            assert got.status == cold.status
            if _scipy_solve(moved).status == 3:
                assert got.status == UNBOUNDED
            else:
                _assert_matches_scipy(got, moved)
            if got.status == OPTIMAL:
                assert got.objective == pytest.approx(cold.objective, abs=1e-9, rel=1e-9)
            seen[got.status] += 1
        assert min(seen.values()) > 0, seen

    def test_zero_rows(self, dual_outcomes):
        lp = LpProblem.from_rows(3, [1.0, -2.0, 0.5], [0.0, -1.0, 2.0], [4.0, 3.0, 5.0], [])
        res = solve_lp(lp)
        assert res.status == OPTIMAL and res.objective == pytest.approx(-5.0)
        dual_outcomes.clear()
        moved = dataclasses.replace(lp, lo=np.array([1.0, -1.0, 2.0]), hi=np.array([4.0, 2.0, 5.0]))
        got = solve_lp(moved, basis=res.basis)
        assert got.status == OPTIMAL
        assert got.objective == pytest.approx(-2.0)
        np.testing.assert_allclose(got.x, [1.0, 2.0, 2.0])
        assert dual_outcomes == [OPTIMAL]

    @pytest.mark.parametrize("stage", ["_dual_iterate", "_phase2"])
    def test_numerical_failure_falls_back_to_cold(self, monkeypatch, refactorizations, stage):
        rng = np.random.default_rng(37)
        lp, res = next(_optimal_lps(rng, 1))
        a = rng.normal(size=lp.ncols)
        cut = _with_row(lp, a, ">=", float(a @ res.x) + 0.5)
        cold = _phase1_solve(monkeypatch, cut)
        real = getattr(simplex, stage)
        calls = []
        refactorizations.clear()

        def fail_first(tab, *args):
            calls.append((tab.pivots, len(refactorizations)))
            if len(calls) == 1:
                raise NumericalFailure("ill-conditioned warm basis")
            return real(tab, *args)

        monkeypatch.setattr(simplex, stage, fail_first)
        got = solve_lp(cut, basis=res.basis)
        assert got.status == cold.status
        assert got.objective == cold.objective
        np.testing.assert_array_equal(got.x, cold.x)
        spent, warm_refactorizations = calls[0]
        # the pivots of the abandoned warm attempt stay counted
        assert got.iterations == cold.iterations + spent
        # the warm start refactorized; the slack start after it did not
        assert warm_refactorizations == 1 and len(refactorizations) == 1


def _identical_basic_columns(rng, count: int):
    """(lp, basis) for the first ``count`` random LPs with an optimal basis
    that holds two structural columns, or a structural column and a slack:
    ``basis`` is that basis, and ``lp`` the LP with the first of the two
    columns made a copy of the second, so the basis is singular on it."""
    while count:
        lp = _random_lp(rng, n=8, m=6)
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        basic = res.basis.basis
        structural = basic[basic < lp.ncols]
        slack = basic[basic >= lp.ncols]
        A = lp.A.copy()
        if rng.integers(2) and structural.size >= 1 and slack.size >= 1:
            j, i = structural[0], slack[0] - lp.ncols
            A[:, j] = 0.0
            A[i, j] = 1.0  # the slack's column in [A I]
        elif structural.size >= 2:
            A[:, structural[0]] = A[:, structural[1]]
        else:
            continue
        count -= 1
        yield dataclasses.replace(lp, A=A), res.basis


class TestSingularWarmStart:
    """A basis singular on the new rows is repaired, not given up for the
    slack basis: its dependent columns leave for slacks, and the dual simplex
    starts from what is left."""

    @pytest.mark.parametrize(
        "seed, lapack_raises", [(40, True), (65, False)], ids=["zero_pivot", "round_off"]
    )
    def test_identical_basic_columns_reach_the_dual(self, dual_outcomes, seed, lapack_raises):
        lp, basis = next(_identical_basic_columns(np.random.default_rng(seed), 1))
        dual_outcomes.clear()
        B = np.hstack([lp.A, np.eye(lp.nrows)])[:, basis.basis]
        assert np.linalg.matrix_rank(B) == lp.nrows - 1
        try:  # round-off can leave LAPACK a nonzero pivot in a singular matrix
            np.linalg.solve(B, lp.rhs)
            assert not lapack_raises
        except np.linalg.LinAlgError:
            assert lapack_raises
        got = solve_lp(lp, basis=basis)
        assert dual_outcomes == [OPTIMAL]
        assert _assert_matches_scipy(got, lp) == OPTIMAL
        assert got.objective == pytest.approx(solve_lp(lp).objective, abs=1e-9, rel=1e-9)

    def test_random_family_matches_cold_and_scipy(self, dual_outcomes):
        rng = np.random.default_rng(46)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for lp, basis in _identical_basic_columns(rng, 60):
            dual_outcomes.clear()
            got = solve_lp(lp, basis=basis)
            assert dual_outcomes in ([OPTIMAL], [INFEASIBLE])  # no slack restart
            cold = solve_lp(lp)
            assert got.status == cold.status
            if _scipy_solve(lp).status == 3:
                assert got.status == UNBOUNDED
            else:
                _assert_matches_scipy(got, lp)
            if got.status == OPTIMAL:
                assert got.objective == pytest.approx(cold.objective, abs=1e-9, rel=1e-9)
            seen[got.status] += 1
        assert min(seen.values()) > 0, seen


def _kuhn() -> LpProblem:
    """Kuhn's cycling example: min c x subject to A x <= b, x >= 0. Dantzig
    pricing from the slack basis, which is primal feasible, cycles on it."""
    return LpProblem.from_rows(
        4,
        [-2.0, -3.0, 1.0, 12.0],
        np.zeros(4),
        np.full(4, np.inf),
        [
            ([(0, -2.0), (1, -9.0), (2, 1.0), (3, 9.0)], "<=", 0.0),
            ([(0, 1 / 3), (1, 1.0), (2, -1 / 3), (3, -2.0)], "<=", 0.0),
            ([(0, 2.0), (1, 3.0), (2, -1.0), (3, -12.0)], "<=", 2.0),
        ],
    )


class TestSafeguards:
    """The branches that only degenerate, ill-conditioned or stale input
    reaches: Bland's rule, the dual's degeneracy limit, the repair that
    leaves a basis singular, and the residual check."""

    def test_primal_cycling_switches_to_bland(self, monkeypatch, loops, dual_outcomes):
        lp = _kuhn()
        rules = []
        price = simplex._price
        monkeypatch.setattr(
            simplex, "_price", lambda tab, cost, bland: rules.append(bland) or price(tab, cost, bland)
        )
        res = solve_lp(lp)
        assert _assert_matches_scipy(res, lp) == OPTIMAL
        assert res.objective == pytest.approx(-2.0)
        # the slack basis is primal feasible, so the clean-up makes every pivot
        assert dual_outcomes == [OPTIMAL] and loops == [(False, res.iterations, OPTIMAL)]
        # Dantzig pricing through 2 (m + N) + 1 degenerate pivots, then Bland's rule
        limit = 2 * (lp.nrows + lp.ncols + lp.nrows)
        assert rules == [False] * (limit + 1) + [True] * (len(rules) - limit - 1)
        assert len(rules) > limit + 2

    def test_dantzig_pricing_alone_cycles_to_the_iteration_limit(self, monkeypatch):
        price = simplex._price
        monkeypatch.setattr(simplex, "_price", lambda tab, cost, bland: price(tab, cost, False))
        with pytest.raises(NumericalFailure, match="iteration limit"):
            solve_lp(_kuhn())

    def test_dual_cycling_gives_up_at_the_degeneracy_limit(self, monkeypatch, loops):
        # the dual of Kuhn's example, min b y subject to A^T y >= -c, y >= 0:
        # the dual simplex cycles on it from the slack basis
        kuhn = _kuhn()
        lp = LpProblem(
            obj=kuhn.rhs, lo=np.zeros(3), hi=np.full(3, np.inf), A=kuhn.A.T.copy(),
            senses=[">="] * 4, rhs=-kuhn.obj,
        )
        outcomes, spent = [], []
        dual = simplex._dual_iterate

        def spy(tab, cost, max_iter):
            outcomes.append(dual(tab, cost, max_iter))
            spent.append(tab.pivots)
            return outcomes[-1]

        monkeypatch.setattr(simplex, "_dual_iterate", spy)
        res = solve_lp(lp)
        # every dual pivot was degenerate, and one past 2 (m + N) it gave up
        assert outcomes == [None] and spent == [2 * (4 + 3 + 4) + 1]
        assert loops[0][0]  # phase 1 ran
        assert _assert_matches_scipy(res, lp) == OPTIMAL
        assert res.objective == pytest.approx(2.0)  # -(Kuhn's optimum)
        alone = _phase1_solve(monkeypatch, lp)
        assert res.status == alone.status and res.objective == alone.objective
        np.testing.assert_array_equal(res.x, alone.x)
        assert res.iterations == spent[0] + alone.iterations

    def test_basis_still_singular_after_repair_falls_back(self, monkeypatch, dual_outcomes):
        # a repair that swaps nothing leaves the basis singular
        monkeypatch.setattr(simplex._Tableau, "repair", lambda tab: None)
        failed = []
        start_warm = simplex._Tableau.start_warm

        def spy_start(tab, start, tableaus):
            try:
                return start_warm(tab, start, tableaus)
            except NumericalFailure as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(simplex._Tableau, "start_warm", spy_start)
        for lp, basis in _identical_basic_columns(np.random.default_rng(46), 20):
            failed.clear()
            dual_outcomes.clear()
            got = solve_lp(lp, basis=basis)
            assert failed == ["singular basis after repair"] and dual_outcomes == []
            alone = _phase1_solve(monkeypatch, lp)
            assert got.status == alone.status and got.objective == alone.objective
            assert got.iterations == alone.iterations  # no pivot before the fallback
            if alone.x is None:
                assert got.x is None
            else:
                np.testing.assert_array_equal(got.x, alone.x)

    def test_stale_kept_tableau_is_refactorized_by_the_residual_check(self, refactorizations):
        # a kept tableau whose entries drifted by 1e-4 (relative) gives an x
        # that misses the rows: the residual check refactorizes, and the solve
        # ends at the basis's own vertex
        rng = np.random.default_rng(49)
        for lp, res in _optimal_lps(rng, 60):
            fresh = solve_lp(lp, basis=res.basis)
            tableaus = {}
            solve_lp(lp, basis=res.basis, tableaus=tableaus)
            ((start, (T, _, _)),) = tableaus.items()
            T *= 1 + 1e-4
            refactorizations.clear()
            got = solve_lp(lp, basis=start, tableaus=tableaus)
            assert got.status == OPTIMAL and got.iterations == 0
            assert len(refactorizations) == 1  # the residual check's, no other
            assert got.objective == pytest.approx(fresh.objective, abs=1e-9, rel=1e-9)
            np.testing.assert_allclose(got.x, fresh.x, atol=1e-9)
            _assert_matches_scipy(got, lp)

    def test_residual_still_too_large_falls_back_to_phase_1(self, monkeypatch, dual_outcomes):
        # an x that misses a row by 1e-3 before and after the refactorization
        rng = np.random.default_rng(37)
        lp, res = next(_optimal_lps(rng, 1))
        a = rng.normal(size=lp.ncols)
        cut = _with_row(lp, a, ">=", float(a @ res.x) + 0.5)
        alone = _phase1_solve(monkeypatch, cut)
        assert alone.status == OPTIMAL
        solution = simplex._Tableau.solution
        calls, failed, spent = [], [], []

        def off(tab):
            x = solution(tab)
            calls.append(1)
            if len(calls) <= 2:  # the dual attempt's two checks
                x[tab.n] += 1e-3
                spent.append(tab.pivots)
            return x

        phase2 = simplex._phase2

        def spy_phase2(tab, *args):
            try:
                return phase2(tab, *args)
            except NumericalFailure as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(simplex._Tableau, "solution", off)
        monkeypatch.setattr(simplex, "_phase2", spy_phase2)
        dual_outcomes.clear()
        got = solve_lp(cut, basis=res.basis)
        assert dual_outcomes == [OPTIMAL] and len(calls) == 3
        assert failed == ["primal residual too large after refactorization"]
        assert got.status == alone.status and got.objective == alone.objective
        np.testing.assert_array_equal(got.x, alone.x)
        assert got.iterations == spent[0] + alone.iterations


def test_desk_s1_enumeration_gives_up_no_singular_start(monkeypatch):
    """Enumerating desk S1-0 starts each cell's root LP from the previous
    cell's root basis, which is often singular on the new cell's rows. Each
    such start is repaired; none falls back to the slack basis. One basis has
    another shape (a cell with other active interpolants), so it is no start,
    and that LP starts cold."""
    starts, failed = [], []
    start_warm = simplex._Tableau.start_warm

    def spy_start(tab, start, tableaus):
        if start.basis.size:
            starts.append(1)
        try:
            return start_warm(tab, start, tableaus)
        except NumericalFailure as exc:
            failed.append(str(exc))
            raise

    monkeypatch.setattr(simplex._Tableau, "start_warm", spy_start)
    res = rfe.solve_by_enumeration(build_opo_instance(get_scenario("S1", "desk"), 0).ir)
    assert res.status == OPTIMAL
    assert len(starts) == 41
    assert failed == []  # before the repair, 7 starts fell back


def test_desk_s1_enumeration_refactorizes_no_kept_start(monkeypatch):
    """Enumerating desk S1-0, a spatial warm start whose basis is in the dict
    of kept tableaus corrects that tableau for the corner columns the box
    rewrote, and refactorizes nothing."""
    kept, refactorized = [], []  # refactorizations in each kept start; all
    start_warm = simplex._Tableau.start_warm
    refactorize = simplex._Tableau.refactorize

    def spy_start(tab, start, tableaus):
        is_kept = tableaus is not None and start in tableaus and start.basis.size == tab.m
        before = len(refactorized)
        start_warm(tab, start, tableaus)
        if is_kept:
            kept.append(len(refactorized) - before)

    def spy_refactorize(tab):
        refactorized.append(1)
        return refactorize(tab)

    monkeypatch.setattr(simplex._Tableau, "start_warm", spy_start)
    monkeypatch.setattr(simplex._Tableau, "refactorize", spy_refactorize)
    res = rfe.solve_by_enumeration(build_opo_instance(get_scenario("S1", "desk"), 0).ir)
    assert res.status == OPTIMAL
    assert len(kept) > 20 and not any(kept)


class _Kept(dict):
    """A dict of kept tableaus that records what each lookup found."""

    def __init__(self):
        super().__init__()
        self.found = []

    def get(self, *args):
        kept = super().get(*args)
        self.found.append(kept is not None)
        return kept


def _branched_lps(rng, count: int):
    """Random LPs whose optimum has column j in (0, 1), j's bounds being [0, 1]:
    (lp, j) for the first ``count``."""
    while count:
        lp = _random_lp(rng, n=6, m=5)
        j = int(rng.integers(lp.ncols))
        lp.lo[j], lp.hi[j] = 0.0, 1.0
        res = solve_lp(lp)
        if res.status == OPTIMAL and 1e-3 < res.x[j] < 1 - 1e-3:
            count -= 1
            yield lp, j


def _fixed(lp: LpProblem, j: int, val: float) -> LpProblem:
    lo, hi = lp.lo.copy(), lp.hi.copy()
    lo[j] = hi[j] = val
    return dataclasses.replace(lp, lo=lo, hi=hi)


class TestKeptTableau:
    @pytest.mark.parametrize("order", [(0.0, 1.0), (1.0, 0.0)], ids=["down_first", "up_first"])
    def test_children_match_solves_without_it(self, refactorizations, order):
        rng = np.random.default_rng(41)
        pivoted = 0
        for lp, j in _branched_lps(rng, 60):
            tableaus = _Kept()
            parent = solve_lp(lp, tableaus=tableaus)
            for val in order:
                child = _fixed(lp, j, val)
                alone = solve_lp(child, basis=parent.basis)
                refactorizations.clear()
                got = solve_lp(child, basis=parent.basis, tableaus=tableaus)
                assert tableaus.found[-1] and not refactorizations
                assert got.status == alone.status
                if got.status == OPTIMAL:
                    assert got.objective == pytest.approx(alone.objective, abs=1e-9, rel=1e-9)
                    np.testing.assert_allclose(got.x, alone.x, atol=1e-7)
                pivoted += got.iterations > 0
        # enough first children pivot that, without the copy, their siblings
        # would start from a pivoted tableau
        assert pivoted > 60

    def test_a_tableau_kept_at_the_cadence_refactorizes_at_its_next_pivot(
        self, refactorizations, monkeypatch
    ):
        # a solve whose deadline passes at the cadence pivot skips that
        # refactorization and may still end Optimal, keeping its tableau
        rng = np.random.default_rng(45)
        pivoted = 0
        for lp, j in _branched_lps(rng, 40):
            tableaus = {}
            parent = solve_lp(lp, tableaus=tableaus)
            eta = tableaus[parent.basis][1]
            if eta == 0:
                continue
            for val in (0.0, 1.0):
                refactorizations.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(simplex, "_REFACTOR_EVERY", eta)
                    got = solve_lp(_fixed(lp, j, val), basis=parent.basis, tableaus=tableaus)
                pivots = got.iterations
                assert len(refactorizations) == (pivots > 0) + max(pivots - 1, 0) // eta
                pivoted += pivots > 0
        assert pivoted > 20

    def test_holds_the_most_recent_few(self):
        rng = np.random.default_rng(43)
        tableaus = {}
        bases = []
        for lp, _ in _optimal_lps(rng, 3 * simplex.KEEP_TABLEAUS):
            bases.append(solve_lp(lp, tableaus=tableaus).basis)
            assert len(tableaus) <= simplex.KEEP_TABLEAUS
        assert list(tableaus) == bases[-simplex.KEEP_TABLEAUS:]

    def test_appended_row_is_never_read(self):
        rng = np.random.default_rng(44)
        for lp, _ in _optimal_lps(rng, 40):
            tableaus = _Kept()
            parent = solve_lp(lp, tableaus=tableaus)
            a = rng.normal(size=lp.ncols)
            cut = _with_row(lp, a, ">=", float(a @ parent.x) + 0.5)
            got = solve_lp(cut, basis=parent.basis, tableaus=tableaus)
            assert tableaus.found == []
            cold = solve_lp(cut)
            assert got.status == cold.status
            if got.status == OPTIMAL:
                assert got.objective == pytest.approx(cold.objective, abs=1e-9, rel=1e-9)
                np.testing.assert_allclose(got.x, cold.x, atol=1e-7)


def _boxed_lps(rng, count: int):
    """The first ``count`` random LPs with every column boxed and an optimal
    solution, each solved cold with a dict of kept tableaus: (lp, res, dict)."""
    while count:
        lp = _random_lp(rng, n=7, m=5)
        lp.lo = rng.uniform(-3.0, 0.0, size=lp.ncols)
        lp.hi = lp.lo + rng.uniform(0.5, 4.0, size=lp.ncols)
        tableaus = {}
        res = solve_lp(lp, tableaus=tableaus)
        if res.status == OPTIMAL:
            count -= 1
            yield lp, res, tableaus


def _refactorized(lp: LpProblem, basis: LpBasis) -> np.ndarray:
    """B^-1 [A I] for the basis, by a dense solve."""
    Afull = np.hstack([lp.A, np.eye(lp.nrows)])
    return np.linalg.solve(Afull[:, basis.basis], Afull)


class TestCorrectedTableau:
    """A warm start from a tableau kept on other coefficients corrects it for
    the columns that changed, with no refactorization."""

    @pytest.mark.parametrize("case", ["nonbasic", "basic", "zero_pivot"])
    def test_matches_cold_scipy_and_a_refactorization(self, refactorizations, case):
        rng = np.random.default_rng(50)
        seen = {OPTIMAL: 0, INFEASIBLE: 0}
        for lp, res, tableaus in _boxed_lps(rng, 80):
            n = lp.ncols
            basic = res.basis.basis[res.basis.basis < n]
            cols = {
                "nonbasic": np.setdiff1d(np.arange(n), basic)[:3],
                "basic": basic[:2],
                "zero_pivot": basic[:1],
            }[case]
            if not cols.size:
                continue
            A = lp.A.copy()
            # a zero column: its new pivot B^-1 a_j is exactly 0 in its row
            A[:, cols] = 0.0 if case == "zero_pivot" else rng.normal(size=(lp.nrows, cols.size))
            moved = dataclasses.replace(lp, A=A)
            refactorizations.clear()
            got = solve_lp(moved, basis=res.basis, tableaus=tableaus)
            assert not refactorizations
            if case != "nonbasic":  # every changed basic column takes a pivot back in
                assert got.iterations >= cols.size
            if case == "zero_pivot":  # the slack entered instead, for good
                assert got.status != OPTIMAL or cols[0] not in got.basis.basis
            cold = solve_lp(moved)
            assert got.status == cold.status == _assert_matches_scipy(got, moved)
            if got.status == OPTIMAL:
                for want in (cold.objective, _scipy_solve(moved).fun):
                    assert got.objective == pytest.approx(want, abs=1e-9, rel=1e-9)
                np.testing.assert_allclose(
                    tableaus[got.basis][0], _refactorized(moved, got.basis), atol=1e-9
                )
            seen[got.status] += 1
        assert min(seen.values()) > 10, seen


class TestIterationsCountEveryPivot:
    @pytest.fixture
    def pivots(self, monkeypatch):
        calls = []
        pivot = _kernels.tableau_pivot

        def counted(T, *args):
            calls.append(T.shape[1])  # the tableau's column count
            pivot(T, *args)

        monkeypatch.setattr(_kernels, "tableau_pivot", counted)
        return calls

    def test_cold_and_warm(self, pivots):
        rng = np.random.default_rng(35)
        checked = 0
        for _ in range(60):
            lp = _random_lp(rng)
            pivots.clear()
            res = solve_lp(lp)
            assert res.iterations == len(pivots)
            if res.status != OPTIMAL:
                continue
            a = rng.normal(size=lp.ncols)
            cut = _with_row(lp, a, ">=", float(a @ res.x) + 0.5)
            pivots.clear()
            assert solve_lp(cut, basis=res.basis).iterations == len(pivots)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize(
        "rows, cut",
        [
            # the second copy holds once the first does
            ([([(0, 1.0), (1, 1.0)], "=", 1.0)] * 2, ([(1, 1.0)], "<=", 0.25)),
            # -x0 - x1 = 0 holds at the start, with no column that could lower it
            (
                [([(0, -1.0), (1, -1.0)], "=", 0.0), ([(2, 1.0)], "<=", 2.0)],
                ([(2, 1.0), (0, 1.0)], "<=", 1.0),
            ),
        ],
        ids=["duplicated_equality", "zero_equality"],
    )
    def test_rows_holding_at_start(self, pivots, dual_outcomes, rows, cut):
        n = 3
        lp = LpProblem.from_rows(n, [-1.0, -2.0, -1.0], [0.0] * n, [5.0] * n, rows)
        res = solve_lp(lp)
        _assert_matches_scipy(res, lp)
        assert res.iterations == len(pivots)
        pivots.clear()
        dual_outcomes.clear()
        cut_lp = LpProblem.from_rows(n, lp.obj, lp.lo, lp.hi, rows + [cut])
        got = solve_lp(cut_lp, basis=res.basis)
        _assert_matches_scipy(got, cut_lp)
        assert got.iterations == len(pivots)
        assert dual_outcomes == [OPTIMAL]

    def test_tableau_has_a_column_per_structural_and_row(self, pivots):
        rng = np.random.default_rng(38)
        widths = set()
        for lp, res in _optimal_lps(rng, 20):
            assert res.basis.vstat.size == lp.ncols + lp.nrows
            widths |= set(pivots)
            pivots.clear()
            a = rng.normal(size=lp.ncols)
            cut = _with_row(lp, a, ">=", float(a @ res.x) + 0.5)
            got = solve_lp(cut, basis=res.basis)
            assert got.basis is None or got.basis.vstat.size == cut.ncols + cut.nrows
            assert set(pivots) <= {cut.ncols + cut.nrows}
            pivots.clear()
        # _random_lp has 5 columns and 4 rows
        assert widths == {5 + 4}


class TestDeadline:
    """A solve makes no pivot once its deadline has passed: it returns
    TimeLimit with the pivots it spent, no x and no basis, and keeps no
    tableau."""

    @pytest.fixture
    def pivot_clock(self, monkeypatch):
        """A clock that moves one second at each pivot, so a deadline of
        k - 0.5 stops a solve before its (k + 1)-th pivot."""
        clock = Clock(monkeypatch)
        clock.tick_on(_kernels, "tableau_pivot")
        return clock

    @staticmethod
    def _stops(clock, solve, tableaus: dict, *spies: list):
        """Stop ``solve(deadline=...)`` before each of its pivots in turn,
        with ``spies`` cleared first, and check the result and ``tableaus``;
        yields the pivots spent."""
        full = solve(deadline=np.inf)
        kept = dict(tableaus)
        for k in range(full.iterations):
            for spy in spies:
                spy.clear()
            clock.now = 0.0
            res = solve(deadline=k - 0.5)
            assert res.status == TIME_LIMIT and res.iterations == k
            assert res.x is None and res.basis is None
            assert list(tableaus) == list(kept)  # none kept, none evicted
            assert all(tableaus[b] is kept[b] for b in kept)
            yield k

    def test_cold_solves(self, pivot_clock, loops, dual_outcomes):
        rng = np.random.default_rng(61)
        stopped_in = set()
        for _ in range(40):
            lp = _random_lp(rng)
            tableaus = {}
            solve = functools.partial(solve_lp, lp, tableaus=tableaus)
            for k in self._stops(pivot_clock, solve, tableaus, loops, dual_outcomes):
                if k == 0:
                    assert dual_outcomes == [] and loops == []  # stopped before its start
                    stopped_in.add("start")
                elif dual_outcomes == [TIME_LIMIT]:
                    assert loops == []  # no phase 1 after a dual stopped by the clock
                    stopped_in.add("dual")
                else:
                    ((phase1, _, status),) = loops
                    assert not phase1 and status == TIME_LIMIT
                    stopped_in.add("clean-up")
        assert stopped_in == {"start", "dual", "clean-up"}

    def test_warm_solves_from_a_kept_tableau(self, pivot_clock):
        rng = np.random.default_rng(62)
        pivoted = 0
        for lp, j in _branched_lps(rng, 40):
            tableaus = {}
            parent = solve_lp(lp, tableaus=tableaus)
            T = tableaus[parent.basis][0].copy()
            for val in (0.0, 1.0):
                child = _fixed(lp, j, val)
                solve = functools.partial(solve_lp, child, basis=parent.basis, tableaus=tableaus)
                for k in self._stops(pivot_clock, solve, tableaus):
                    # the start pivoted a copy of the kept tableau
                    np.testing.assert_array_equal(tableaus[parent.basis][0], T)
                    pivoted += k > 0
        assert pivoted > 10

    def test_phase_1(self, pivot_clock, loops, monkeypatch):
        monkeypatch.setattr(simplex, "_dual_iterate", lambda *args: None)
        rng = np.random.default_rng(63)
        in_phase1 = 0
        for _ in range(30):
            lp = _random_lp(rng)
            for k in self._stops(pivot_clock, functools.partial(solve_lp, lp), {}, loops):
                in_phase1 += k > 0 and loops[-1][0]  # k = 0 stops before any loop
        assert in_phase1 > 20

    def test_no_cadence_refactorization_past_the_deadline(
        self, pivot_clock, refactorizations, monkeypatch
    ):
        # a refactorization reads no clock, so one begun past the deadline
        # overruns it; with a cadence of 2 pivots, a deadline of k - 0.5
        # leaves the cadence's refactorizations before pivot k only
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 2)
        rng = np.random.default_rng(65)
        skipped = 0
        for _ in range(40):
            lp = _random_lp(rng)
            refactorizations.clear()
            full = solve_lp(lp)
            assert len(refactorizations) == full.iterations // 2  # no deadline
            for k in range(1, full.iterations + 1):
                refactorizations.clear()
                pivot_clock.now = 0.0
                res = solve_lp(lp, deadline=k - 0.5)
                assert res.iterations == k
                assert len(refactorizations) == (k - 1) // 2
                skipped += k % 2 == 0
        assert skipped > 20

    def test_a_passed_deadline_starts_nothing(self, refactorizations):
        rng = np.random.default_rng(64)
        lp, res = next(_optimal_lps(rng, 1))
        got = solve_lp(lp, basis=res.basis, deadline=time.monotonic())
        assert got == simplex.LpResult(status=TIME_LIMIT)
        assert refactorizations == []
