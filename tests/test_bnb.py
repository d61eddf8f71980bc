"""Branch-and-bound over binary columns, checked by exhaustive enumeration."""

import dataclasses
import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest

from gridopt import bnb, simplex
from gridopt.bnb import TIME_LIMIT, solve_milp
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.relax import add_no_good_cut, build_relaxation, extract_fixing
from gridopt.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, solve_lp

from _clock import Clock
from _random_instances import cut_instance, random_instance


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
        res = solve_lp(dataclasses.replace(lp, lo=lo, hi=hi))
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

    def test_callers_bounds_are_left_as_they_were(self):
        rng = np.random.default_rng(5)
        lp = _knapsack_lp(rng.uniform(1, 10, 8), rng.uniform(1, 10, 8), 20.0)
        lo, hi = lp.lo.copy(), lp.hi.copy()
        res = solve_milp(lp, list(range(8)))
        assert res.status == OPTIMAL and res.nodes > 1  # the children had bounds of their own
        np.testing.assert_array_equal(lp.lo, lo)
        np.testing.assert_array_equal(lp.hi, hi)

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
        res = solve_milp(lp, list(range(n)), deadline=time.monotonic())
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

    def test_desk_s4_root_milp_counts_are_pinned(self):
        # the tests run with one BLAS thread (conftest), under which these
        # counts repeat exactly; a change to the simplex that moves a node, a
        # pivot or a bit of the objective here must say why
        model = build_relaxation(build_opo_instance(get_scenario("S4", "desk"), 0).ir)
        res = solve_milp(model.to_lp(), model.binary_cols())
        assert res.status == OPTIMAL
        assert (res.nodes, res.lp_iterations) == (49, 882)
        assert float(res.objective).hex() == "-0x1.7d76ce4f84accp+8"


def _random_knapsack(seed, n=10):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1, 10, n)
    return _knapsack_lp(rng.uniform(1, 10, n), weights, weights.sum() * 0.5)


def _no_good_row(lp, x):
    """``lp`` with a row excluding the binary point ``x`` (every column binary)."""
    ones = np.round(x) == 1
    row = np.where(ones, -1.0, 1.0)
    return LpProblem(
        lp.obj, lp.lo, lp.hi, np.vstack([lp.A, row]), lp.senses + [">="],
        np.append(lp.rhs, 1.0 - ones.sum()),
    )


class TestCutoff:
    @pytest.mark.parametrize("seed", range(5))
    def test_infinite_cutoff_is_no_cutoff(self, seed):
        # a NaN prune level would drop every node, so compare with a finite
        # cutoff above every bound
        lp = _random_knapsack(seed)
        loose = solve_milp(lp, range(10), cutoff=1e9)
        for res in (solve_milp(lp, range(10)), solve_milp(lp, range(10), cutoff=np.inf)):
            assert res.status == loose.status == OPTIMAL
            assert res.nodes == loose.nodes
            np.testing.assert_array_equal(res.x, loose.x)

    def test_nothing_below_the_cutoff_is_infeasible(self):
        lp = _random_knapsack(0)
        opt = solve_milp(lp, range(10)).objective
        assert solve_milp(lp, range(10), cutoff=opt).status == INFEASIBLE
        above = solve_milp(lp, range(10), cutoff=opt + 1.0)
        assert above.status == OPTIMAL
        assert above.objective == opt


@pytest.mark.parametrize(
    "family, seed", [("pool", s) for s in range(50)] + [("cut", s) for s in range(12)]
)
def test_resumed_frontier_matches_scratch(family, seed):
    """After each no-good cut, resuming the last frontier solves the cut MILP."""
    ir = random_instance(seed) if family == "pool" else cut_instance(seed)
    model = build_relaxation(ir)
    bins = model.binary_cols()
    res = solve_milp(model.to_lp(), bins)
    for _ in range(4):
        if res.status != OPTIMAL:
            break
        add_no_good_cut(model, extract_fixing(model, res.x))
        lp = model.to_lp()
        res = solve_milp(lp, bins, frontier=res.frontier)
        scratch = solve_milp(lp, bins)
        assert res.status == scratch.status
        if scratch.status == OPTIMAL:
            assert res.objective == pytest.approx(scratch.objective, rel=1e-9, abs=1e-12)


@pytest.fixture
def lp_clock(monkeypatch):
    """A clock that moves one second at each node LP of bnb."""
    clock = Clock(monkeypatch)
    clock.tick_on(bnb, "solve_lp")
    return clock


class TestTimeLimitFrontier:
    """A search stopped by its time limit hands on every unbranched node once."""

    @staticmethod
    def _check_stop(lp, res):
        bits = np.array(list(itertools.product([0.0, 1.0], repeat=lp.ncols)))
        senses = np.array(lp.senses)
        act = bits @ lp.A.T - lp.rhs
        feasible = np.all(np.where(senses == "<=", act <= 1e-9, act >= -1e-9), axis=1)
        assert feasible.any()
        for point in bits[feasible]:
            inside = [np.all((n.lo <= point) & (point <= n.hi)) for n in res.frontier]
            assert sum(inside) == 1
        assert res.bound == min([res.objective] + [n.bound for n in res.frontier])

    def test_stops_after_each_check(self, lp_clock):
        lp = _random_knapsack(4)
        opt = solve_milp(lp, range(10))
        cut = _no_good_row(lp, opt.x)
        cut_opt = solve_milp(cut, range(10))
        stopped = set()
        for limit in range(opt.nodes):
            res = solve_milp(lp, range(10), deadline=lp_clock.now + limit + 0.5)
            if res.status != TIME_LIMIT:
                break
            # siblings pop back to back, so an even limit from 2 on stops between two
            stopped.add(limit % 2)
            self._check_stop(lp, res)
            assert res.bound <= opt.objective
            done = solve_milp(lp, range(10), frontier=res.frontier)
            assert done.objective == pytest.approx(opt.objective, abs=1e-9)
            # resumed under the cut, stopped again in the re-solve loop or later
            for again in range(3):
                part = solve_milp(
                    cut, range(10), deadline=lp_clock.now + again + 0.5, frontier=res.frontier
                )
                if part.status != TIME_LIMIT:
                    break
                self._check_stop(cut, part)
                assert part.bound <= cut_opt.objective + 1e-9
                rest = solve_milp(cut, range(10), frontier=part.frontier)
                assert rest.objective == pytest.approx(cut_opt.objective, abs=1e-9)
        assert stopped == {0, 1}


class TestChildrenWaitUnsolved:
    """A branched node's children wait on the heap with its bound and basis."""

    def test_time_limit_between_siblings(self, lp_clock):
        lp = _random_knapsack(4)
        opt = solve_milp(lp, range(10))
        # stops after the root LP
        branched = solve_milp(lp, range(10), deadline=lp_clock.now + 1.5)
        assert branched.nodes == 1
        first, second = branched.frontier  # the root's children, in tick order
        assert first.x is None and second.x is None
        assert first.bound == second.bound == branched.bound > -np.inf
        assert first.basis is second.basis is not None
        # stops after the first child's LP
        res = solve_milp(lp, range(10), deadline=lp_clock.now + 2.5)
        assert res.status == TIME_LIMIT
        assert res.nodes == 2
        (waiting,) = [n for n in res.frontier if n.x is None]
        assert waiting.bound == second.bound == res.bound
        np.testing.assert_array_equal(waiting.lo, second.lo)
        np.testing.assert_array_equal(waiting.hi, second.hi)
        np.testing.assert_array_equal(waiting.basis.basis, second.basis.basis)
        np.testing.assert_array_equal(waiting.basis.vstat, second.basis.vstat)
        done = solve_milp(lp, range(10), frontier=res.frontier)
        assert done.status == OPTIMAL
        assert done.objective == pytest.approx(opt.objective, abs=1e-9)


class TestRootIsAFrontierNode:
    """The root takes the path of every other node: onto the heap, or into the frontier."""

    def test_integral_root(self):
        lp = _knapsack_lp([3.0, 2.0], [1.0, 1.0], 2.0)  # both fit: the root LP is integral
        res = solve_milp(lp, [0, 1])
        assert res.status == OPTIMAL
        assert res.nodes == 1
        (root,) = res.frontier
        assert root.bound == res.objective == -5.0
        np.testing.assert_array_equal(root.x, res.x)
        resumed = solve_milp(lp, [0, 1], cutoff=res.objective, frontier=res.frontier)
        assert resumed.status == INFEASIBLE
        assert resumed.nodes == 0

    def test_time_limit_before_the_root(self, lp_clock):
        lp = _random_knapsack(4)
        opt = solve_milp(lp, range(10))
        res = solve_milp(lp, range(10), deadline=lp_clock.now + 0.5)
        assert res.status == TIME_LIMIT
        assert res.nodes == 0
        assert res.bound == -np.inf
        (root,) = res.frontier
        assert root.x is None and root.basis is None
        np.testing.assert_array_equal(root.lo, lp.lo)
        np.testing.assert_array_equal(root.hi, lp.hi)
        done = solve_milp(lp, range(10), frontier=res.frontier)
        assert done.status == OPTIMAL
        assert done.objective == opt.objective
        assert done.nodes == opt.nodes


class TestDeadlineInsideAnLp:
    """A node LP that the deadline stops after some pivots leaves its node
    unsolved in the frontier, under its parent's bound and basis."""

    def test_node_stopped_mid_lp_stays_in_the_frontier(self, monkeypatch):
        lp = _random_knapsack(4)
        opt = solve_milp(lp, range(10))
        solved = []  # (node LP, start basis, result) of every node LP

        def recorded(node_lp, basis=None, **kwargs):
            solved.append((node_lp, basis, solve_lp(node_lp, basis=basis, **kwargs)))
            return solved[-1][2]

        monkeypatch.setattr(bnb, "solve_lp", recorded)
        # every clock read moves the clock: one per solve and one per pivot
        readings = itertools.count(1)
        monkeypatch.setattr(simplex, "time", SimpleNamespace(monotonic=readings.__next__))
        stopped_mid_lp = 0
        for reads in range(1, 200):
            solved.clear()
            res = solve_milp(lp, range(10), deadline=next(readings) + reads + 0.5)
            if res.status != TIME_LIMIT:
                break
            node_lp, start, last = solved[-1]
            assert last.status == TIME_LIMIT and last.x is None and last.basis is None
            assert res.nodes == len(solved) - 1
            assert res.lp_iterations == sum(r.iterations for _, _, r in solved)
            if last.iterations == 0:
                continue
            stopped_mid_lp += 1
            # the node waits unsolved, under its parent's bound and basis (the
            # root's are -inf and None)
            (waiting,) = [
                n for n in res.frontier
                if np.array_equal(n.lo, node_lp.lo) and np.array_equal(n.hi, node_lp.hi)
            ]
            assert waiting.x is None and waiting.basis is start
            parents = [r.objective for _, _, r in solved if start is not None and r.basis is start]
            assert waiting.bound == (parents[0] if parents else -np.inf) == res.bound
            done = solve_milp(lp, range(10), frontier=res.frontier)
            assert done.status == OPTIMAL
            assert done.objective == pytest.approx(opt.objective, abs=1e-9)
        assert res.status == OPTIMAL
        assert stopped_mid_lp >= 5  # 9 with one BLAS thread
