"""Bounded-variable simplex against independent references.

Small LPs are checked against brute-force vertex enumeration; random LPs with
mixed senses and bound patterns against scipy's HiGHS. The array-based pricing
and ratio test, the latter in both phases, are checked call by call against
scalar loops. Warm starts from an earlier optimal basis, after a bound change,
an appended row, or new coefficients and right-hand sides in the existing rows,
are checked against HiGHS on the changed LP.
"""

import dataclasses
import itertools
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
    UNBOUNDED,
    LpBasis,
    LpProblem,
    _price,
    _ratio_test,
    solve_lp,
)


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
    """Every return value of the dual simplex loop (None: fell back to cold)."""
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


def _assert_matches_scipy(res, lp: LpProblem) -> str:
    ref = _scipy_solve(lp)
    if ref.status == 0:
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        return OPTIMAL
    assert ref.status == 2 and res.status == INFEASIBLE
    return INFEASIBLE


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
        rng = np.random.default_rng(34)
        lp5, res5 = next(_optimal_lps(rng, 1))
        for other in (_random_lp(rng, n=6), _random_lp(rng, n=5, m=3)):
            cold = solve_lp(other)
            warm = solve_lp(other, basis=res5.basis)
            assert warm.status == cold.status
            assert warm.objective == cold.objective
            assert warm.iterations == cold.iterations
            np.testing.assert_array_equal(warm.x, cold.x)
        assert dual_outcomes == []

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
            cold = solve_lp(moved)
            assert got.status == cold.status
            if _scipy_solve(moved).status == 3:
                assert got.status == UNBOUNDED
            else:
                _assert_matches_scipy(got, moved)
            if got.status == OPTIMAL:
                assert got.objective == pytest.approx(cold.objective, abs=1e-9, rel=1e-9)
            assert dual_outcomes in ([OPTIMAL], [INFEASIBLE])  # no fallback
            seen[got.status] += 1
        assert min(seen.values()) > 0, seen

    def test_zero_rows(self, dual_outcomes):
        lp = LpProblem.from_rows(3, [1.0, -2.0, 0.5], [0.0, -1.0, 2.0], [4.0, 3.0, 5.0], [])
        res = solve_lp(lp)
        assert res.status == OPTIMAL and res.objective == pytest.approx(-5.0)
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
        cold = solve_lp(cut)
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


def test_desk_s1_enumeration_gives_up_no_singular_start(monkeypatch):
    """Enumerating desk S1-0 starts each cell's root LP from the previous
    cell's root basis, which is often singular on the new cell's rows. Each
    such start is repaired; none falls back to the slack basis."""
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
    assert len(starts) == 42
    assert failed == []  # 7 of the 42 fell back before the repair


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
