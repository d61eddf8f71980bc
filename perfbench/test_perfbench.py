"""Tests of the benchmark's own parts: generators, output check and tracing.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gridopt.instancefile import dumps, ir_to_dict  # noqa: E402
from gridopt.rfe import solve_rfe  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from verify import check_solution  # noqa: E402

REFS = json.loads((HERE / "reference.json").read_text())
SPECS = sorted({spec for w in workloads.WORKLOADS.values() for spec in w.instances})


@pytest.mark.parametrize("family,seed", SPECS)
def test_generator_is_identical_for_a_seed(family, seed):
    a = dumps(ir_to_dict(workloads.build_instance(family, seed)))
    b = dumps(ir_to_dict(workloads.build_instance(family, seed)))
    assert a == b


def test_generator_differs_between_seeds():
    a = dumps(ir_to_dict(workloads.cut_instance(0)))
    b = dumps(ir_to_dict(workloads.cut_instance(1)))
    assert a != b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_solve_order_is_a_fixed_permutation(name):
    order = workloads.solve_order(name, 5)
    assert order == workloads.solve_order(name, 5)
    assert sorted(order) == sorted(workloads.WORKLOADS[name].instances)


def test_every_instance_has_a_reference():
    for family, seed in SPECS:
        assert workloads.instance_key(family, seed) in REFS


@pytest.fixture(scope="module")
def solved():
    ir = workloads.build_instance("S1", 2)
    res = solve_rfe(ir)
    return ir, res, REFS["S1-2"]["objective"]


def test_check_accepts_the_solver_output(solved):
    ir, res, ref = solved
    assert check_solution(ir, res.status, res.x, res.objective, ref) == []


def _perturbed(ir, x, kind):
    x = x.copy()
    pos = {v.id: i for i, v in enumerate(ir.variables)}
    if kind == "input":  # moves an interpolant input off its table value
        itp = next(
            i for i in ir.interpolants
            if i.activation is None or x[pos[i.activation]] > 0.5
        )
        p = pos[itp.inputs[0]]
        v = ir.variables[p]
        x[p] += 1e-3 * (v.hi - v.lo) * (1 if x[p] < v.hi - 1e-3 * (v.hi - v.lo) else -1)
    elif kind == "binary":
        x[pos[ir.binary_ids[0]]] = 0.5
    elif kind == "output":
        x[pos[ir.interpolants[0].output]] += 1e-3
    return x


@pytest.mark.parametrize("kind", ["input", "binary", "output"])
def test_check_rejects_a_perturbed_solution(solved, kind):
    ir, res, ref = solved
    x = _perturbed(ir, res.x, kind)
    assert check_solution(ir, res.status, x, res.objective, ref)


def test_check_rejects_a_wrong_objective_or_status(solved):
    ir, res, ref = solved
    assert check_solution(ir, res.status, res.x, res.objective, ref + 1e-3)
    assert check_solution(ir, "TimeLimit", res.x, res.objective, ref)


def _span(name, start, end, parent, instance="i", info=None):
    return [name, start, end, parent, instance, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("rfe", 0.0, 10.0, -1),
        _span("bnb", 1.0, 6.0, 0, info={"nodes": 3, "lp_iterations": 7}),
        _span("simplex.bnb", 2.0, 5.0, 1, info={"rows": 4, "status": "Optimal"}),
        _span("kernels.pivot", 3.0, 4.0, 2, info=24),
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    m = tracer.layer_metrics(spans, 0)
    assert m["simplex.bnb.pivots"] == 1 and m["simplex.bnb.self_s"] == 2.0
    assert m["simplex.bnb.pivot_gflop_computed"] == 24e-9
    assert tracer.instance_counts(spans)["i"] == {
        "bnb.nodes": 3, "bnb.lp_iterations": 7, "simplex.bnb.calls": 1, "simplex.bnb.pivots": 1,
    }


def test_useful_subproblems_follow_the_incumbent():
    def sub(obj, status="Optimal", inst="a"):
        return _span("spatial", 0, 1, -1, inst, {"nodes": 1, "status": status, "objective": obj})

    spans = [sub(5.0), sub(6.0), sub(4.0), sub(1.0, "Infeasible"), sub(9.0, inst="b")]
    assert tracer.useful_subproblems(spans) == 3


def test_declared_per_layer_metrics_are_computed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    computed = set(tracer.layer_metrics([], 0)) | {
        "rfe.iterations", "rfe.subproblems", "opo.build_s", "model.build_problem_s",
        "trace.overhead_s", "trace.overhead_frac", "batch_wall_s", "kernel_s",
    }
    assert {m["name"] for m in bench["per_layer"]} == computed


def test_metrics_tolerate_a_call_that_raised():
    spans = [
        _span("rfe", 0.0, 2.0, -1),
        _span("bnb", 0.5, 1.0, 0),  # raised: no result details
        _span("spatial", 1.0, 1.5, 0),
    ]
    m = tracer.layer_metrics(spans, tracer.useful_subproblems(spans))
    assert m["bnb.calls"] == 1 and m["bnb.nodes"] == 0 and m["spatial.nodes"] == 0
    assert tracer.instance_counts(spans) == {"i": {}}


def test_a_solve_that_raises_counts_as_failed(solved):
    import run

    ir, res, ref = solved

    def boom(_ir):
        raise ValueError("no solve")

    _, kernel, outcomes = run.run_pass(boom, [("S1-2", ir, ref)], None)
    assert len(kernel) == 2 * run.KERNEL_REPEAT
    records = run.Checker(check_solution).records([("S1-2", ir, ref)], outcomes)
    assert records[0]["problems"] == ["ValueError: no solve"]


def test_a_result_that_changes_between_passes_counts_as_failed(solved):
    import dataclasses

    import run

    ir, res, ref = solved
    inst = [("S1-2", ir, ref)]
    checker = run.Checker(check_solution)
    assert checker.records(inst, [(res, None, 0.1)])[0]["problems"] == []
    moved = dataclasses.replace(res, milp_nodes=res.milp_nodes + 1)
    assert checker.records(inst, [(moved, None, 0.1)])[0]["problems"]
    counts = {"S1-2": {"bnb.nodes": 3}}
    assert checker.records(inst, [(res, None, 0.1)], counts)[0]["problems"] == []
    other = {"S1-2": {"bnb.nodes": 4}}
    assert checker.records(inst, [(res, None, 0.1)], other)[0]["problems"]
