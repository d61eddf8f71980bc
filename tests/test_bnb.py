"""Branch-and-bound over binary columns, checked by exhaustive enumeration."""

import itertools

import numpy as np
import pytest

from gridopt.bnb import TIME_LIMIT, solve_milp
from gridopt.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, solve_lp


def _knapsack_lp(values, weights, cap):
    n = len(values)
    return LpProblem.from_rows(
        n,
        [-v for v in values],  # maximize value
        [0.0] * n,
        [1.0] * n,
        [([(j, float(weights[j])) for j in range(n)], "<=", float(cap))],
    )


def _enumerate_binary(lp, binary_cols):
    best = np.inf
    for bits in itertools.product([0.0, 1.0], repeat=len(binary_cols)):
        lo = lp.lo.copy()
        hi = lp.hi.copy()
        for c, b in zip(binary_cols, bits):
            lo[c] = hi[c] = b
        res = solve_lp(lp, lo, hi)
        if res.status == OPTIMAL:
            best = min(best, res.objective)
    return best


class TestKnapsack:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_knapsacks_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        values = rng.uniform(1, 10, n)
        weights = rng.uniform(1, 10, n)
        cap = float(weights.sum()) * rng.uniform(0.3, 0.7)
        lp = _knapsack_lp(values, weights, cap)
        res = solve_milp(lp, list(range(n)))
        assert res.status == OPTIMAL
        ref = _enumerate_binary(lp, list(range(n)))
        assert res.objective == pytest.approx(ref, abs=1e-8)
        # incumbent is integral and feasible
        assert np.all(np.abs(res.x[:n] - np.round(res.x[:n])) <= 1e-6)
        assert float(weights @ np.round(res.x[:n])) <= cap + 1e-8

    def test_mixed_integer_continuous(self):
        # one continuous column alongside the binaries
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = 5
            lp = LpProblem.from_rows(
                n + 1,
                list(rng.normal(size=n)) + [1.0],
                [0.0] * n + [-2.0],
                [1.0] * n + [2.0],
                [
                    (
                        [(j, float(rng.normal())) for j in range(n + 1)],
                        "<=",
                        float(rng.uniform(0.5, 2)),
                    )
                ],
            )
            res = solve_milp(lp, list(range(n)))
            ref = _enumerate_binary(lp, list(range(n)))
            if res.status == OPTIMAL:
                assert res.objective == pytest.approx(ref, abs=1e-8)
            else:
                assert not np.isfinite(ref)


class TestStatuses:
    def test_infeasible(self):
        lp = LpProblem.from_rows(
            2, [0.0, 0.0], [0, 0], [1, 1],
            [([(0, 1.0), (1, 1.0)], ">=", 3.0)],
        )
        assert solve_milp(lp, [0, 1]).status == INFEASIBLE

    def test_integer_infeasible_but_lp_feasible(self):
        # x0 + x1 = 0.5 has fractional solutions only
        lp = LpProblem.from_rows(
            2, [1.0, 1.0], [0, 0], [1, 1],
            [([(0, 1.0), (1, 1.0)], "=", 0.5)],
        )
        assert solve_milp(lp, [0, 1]).status == INFEASIBLE

    def test_unbounded_root(self):
        lp = LpProblem.from_rows(
            2, [0.0, -1.0], [0, 0], [1, np.inf], []
        )
        assert solve_milp(lp, [0]).status == UNBOUNDED

    def test_time_limit(self):
        rng = np.random.default_rng(1)
        n = 14
        values = rng.uniform(1, 10, n)
        weights = rng.uniform(1, 10, n)
        lp = _knapsack_lp(values, weights, weights.sum() * 0.5)
        res = solve_milp(lp, list(range(n)), time_limit=0.0)
        assert res.status == TIME_LIMIT


class TestDeterminism:
    def test_same_input_same_result(self):
        rng = np.random.default_rng(3)
        n = 8
        lp = _knapsack_lp(rng.uniform(1, 10, n), rng.uniform(1, 10, n), 18.0)
        a = solve_milp(lp, list(range(n)))
        b = solve_milp(lp, list(range(n)))
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.nodes == b.nodes
        np.testing.assert_array_equal(a.x, b.x)
