"""Instance families and the fixed instance list of each benchmark workload.

Every instance is rebuilt from its family and instance seed, so a run needs no
stored inputs. Instance cost varies by one to two orders of magnitude between
instance seeds of the same family (desk S2: 0.7 s to 41 s; the cut family:
0.03 s to over 8 s), so each workload solves a fixed list of instance seeds and
the benchmark seed only fixes the order of that list. Drawing the instances
from the seed instead would make the run-to-run spread of the batch time
larger than any bound worth enforcing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridopt import model, opo
from gridopt.gridtab import make_grid, make_table
from gridopt.model import CONTINUOUS, InterpolantDef, LinConstraint, ProblemIR, VarRef

# Cut family: bilinear tables coupled by one budget row, no binaries.
CUT_TABLES = 3
CUT_BREAKPOINTS = 4


@dataclass(frozen=True)
class Workload:
    solver: str  # "rfe" (solve_rfe) or "oracle" (solve_by_enumeration)
    instances: tuple[tuple[str, int], ...]  # (family, instance seed)
    why: str


WORKLOADS = {
    "desk-opo": Workload(
        solver="rfe",
        instances=(("S1", 0), ("S1", 5), ("S2", 2), ("S2", 3), ("S2", 4)),
        why=(
            "production use: solve_rfe on desk S1/S2; time splits between the "
            "bnb MILP and the spatial cell subproblem"
        ),
    ),
    "cut-loop": Workload(
        solver="rfe",
        instances=(("cut", 0), ("cut", 4), ("cut", 7)),
        why=(
            "loose relaxation inside cells, so RFE runs the exclude loop: "
            "11 rounds, the dense MILP rebuilt with a cut every round"
        ),
    ),
    "oracle-desk": Workload(
        solver="oracle",
        instances=tuple(("S1", s) for s in (0, 1, 2, 3, 4, 6, 9, 10)),
        why=(
            "enumeration engine on desk S1: 66 shallow spatial subproblems per "
            "instance, thousands of tiny LPs, no bnb"
        ),
    ),
}


def instance_key(family: str, seed: int) -> str:
    return f"{family}-{seed}"


def _cut_axis(rng: np.random.Generator) -> np.ndarray:
    inner = np.sort(rng.uniform(0.0, 1.0, size=CUT_BREAKPOINTS - 2)) * 0.8 + 0.1
    return np.concatenate([[0.0], inner, [1.0]])


def cut_instance(seed: int) -> ProblemIR:
    """Tables with 2 inputs and normal random values, as in the test pool.

    Maximizing outputs plus inputs under the budget sum(inputs) <= count / 2
    puts the relaxation optimum inside cells, where it is loose.
    """
    rng = np.random.default_rng(seed)
    variables: list[VarRef] = []
    interpolants = []
    inputs: list[int] = []
    outputs: list[int] = []
    for _ in range(CUT_TABLES):
        grid = make_grid([_cut_axis(rng), _cut_axis(rng)])
        table = make_table(grid, rng.normal(size=grid.num_corners))
        ins = (len(variables), len(variables) + 1)
        out = len(variables) + 2
        variables += [
            VarRef(ins[0], CONTINUOUS, 0.0, 1.0),
            VarRef(ins[1], CONTINUOUS, 0.0, 1.0),
            VarRef(out, CONTINUOUS, -10.0, 10.0),
        ]
        interpolants.append(InterpolantDef(table, ins, out))
        inputs += ins
        outputs.append(out)
    budget = LinConstraint(tuple((1.0, v) for v in inputs), "<=", 0.5 * len(inputs))
    return model.build_problem(
        variables,
        [budget],
        interpolants,
        objective=[(1.0, v) for v in outputs + inputs],
        maximize=True,
        name=f"cut{seed}",
    )


def build_instance(family: str, seed: int) -> ProblemIR:
    if family == "cut":
        return cut_instance(seed)
    return opo.build_opo_instance(opo.get_scenario(family), seed).ir


def solve_order(workload: str, seed: int) -> list[tuple[str, int]]:
    """The workload's instances in the order the benchmark seed gives."""
    inst = WORKLOADS[workload].instances
    perm = np.random.default_rng(seed).permutation(len(inst))
    return [inst[i] for i in perm]
