"""Instance generators shared by the tests.

``random_instance`` draws the pool: up to 2 interpolants of dimension <= 3
with <= 4 breakpoints per axis and <= 2 binaries, small enough for the
enumeration reference solver. ``cut_instance`` is the benchmark's cut family.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from gridopt.gridtab import make_grid, make_table
from gridopt.model import (
    BINARY,
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)


def random_axis(rng, max_bp: int = 4) -> np.ndarray:
    k = int(rng.integers(2, max_bp + 1))
    pts = np.sort(rng.uniform(0.0, 1.0, size=k - 2)) if k > 2 else np.array([])
    return np.concatenate([[0.0], pts * 0.8 + 0.1, [1.0]])


def random_table(rng, n: int, max_bp: int = 4):
    grid = make_grid([random_axis(rng, max_bp) for _ in range(n)])
    return make_table(grid, rng.normal(size=grid.num_corners))


def random_instance(seed: int):
    """One random IR: 1-2 interpolants (n<=3), <=2 binaries, a few linear rows."""
    rng = np.random.default_rng(seed)
    n_interp = int(rng.integers(1, 3))
    n_bin = int(rng.integers(0, 3))
    variables = []
    constraints = []
    interps = []
    next_id = 0

    def var(kind, lo, hi):
        nonlocal next_id
        variables.append(VarRef(next_id, kind, lo, hi))
        next_id += 1
        return next_id - 1

    bin_ids = [var(BINARY, 0.0, 1.0) for _ in range(n_bin)]
    out_ids = []
    for i in range(n_interp):
        n = int(rng.integers(1, 4))
        table = random_table(rng, n)
        ins = tuple(var(CONTINUOUS, 0.0, 1.0) for _ in range(n))
        out = var(CONTINUOUS, -10.0, 10.0)
        # attach an activation binary to roughly half the interpolants
        act = None
        if bin_ids and rng.random() < 0.5:
            act = bin_ids[int(rng.integers(len(bin_ids)))]
        interps.append(InterpolantDef(table, ins, out, act))
        out_ids.append(out)

    # couple the outputs and inputs with a couple of loose linear rows
    for _ in range(int(rng.integers(0, 3))):
        pool = [v.id for v in variables]
        k = int(rng.integers(1, min(4, len(pool)) + 1))
        chosen = rng.choice(pool, size=k, replace=False)
        terms = tuple((float(rng.normal()), int(v)) for v in chosen)
        # keep the row satisfiable at the origin
        sense = "<=" if rng.random() < 0.7 else ">="
        rhs = float(abs(rng.normal())) * (1.0 if sense == "<=" else -1.0)
        constraints.append(LinConstraint(terms, sense, rhs))

    objective = [(float(rng.normal()), out) for out in out_ids]
    objective += [(float(rng.normal() * 0.3), b) for b in bin_ids]
    return build_problem(
        variables,
        constraints,
        interps,
        objective=objective,
        maximize=bool(rng.random() < 0.5),
        name=f"rand{seed}",
    )


def cut_instance(seed: int):
    """The benchmark's cut family, whose RFE runs take up to 16 rounds of cuts.

    Loaded from ``perfbench/workloads.py`` by path, so the tests solve exactly
    the instances the benchmark does.
    """
    name = "_perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name].cut_instance(seed)
