"""Intermediate representation of the mixed-integer interpolation problem.

Holds variables, linear constraints, and interpolant bindings, validated by
:func:`build_problem`; the MILP relaxation is built from it. The IR is
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import BoundsOutsideHull, DanglingVariable, DimensionMismatch
from .gridtab import LookupTable

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="


@dataclass(frozen=True)
class VarRef:
    id: int
    kind: str
    lo: float
    hi: float
    name: str = ""

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == BINARY and (self.lo, self.hi) != (0.0, 1.0):
            raise ValueError("binary variables must have bounds [0, 1]")
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError(f"variable {self.id}: NaN bound")
        if self.lo > self.hi:
            raise ValueError(f"variable {self.id}: lo > hi")


@dataclass(frozen=True)
class LinConstraint:
    terms: tuple[tuple[float, int], ...]  # (coefficient, variable id)
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.sense not in (LE, EQ, GE):
            raise ValueError(f"unknown sense {self.sense!r}")
        if math.isnan(self.rhs):
            raise ValueError(f"NaN right-hand side in {self.name or '?'}")


@dataclass(frozen=True)
class InterpolantDef:
    table: LookupTable
    inputs: tuple[int, ...]  # continuous variable ids, one per grid axis
    output: int  # continuous variable id
    activation: Optional[int] = None  # binary variable id


@dataclass(frozen=True)
class ProblemIR:
    variables: tuple[VarRef, ...]
    constraints: tuple[LinConstraint, ...]
    interpolants: tuple[InterpolantDef, ...]
    objective: tuple[tuple[float, int], ...]  # minimization
    maximize: bool = False  # objective was negated from a maximization input
    name: str = ""

    @cached_property
    def var_pos(self) -> dict[int, int]:
        """Position in ``variables`` of each variable id."""
        return {v.id: i for i, v in enumerate(self.variables)}

    @cached_property
    def rows(self) -> tuple[tuple[tuple[tuple[int, float], ...], str, float], ...]:
        """Each linear constraint as ``((position, coefficient), ...), sense,
        rhs``, by position in ``variables``: the rows ``LpProblem.from_rows``
        takes. This is the one translation of the constraints; the tuples are
        shared, so a caller copies them before appending."""
        pos = self.var_pos
        return tuple(
            (tuple((pos[v], cf) for cf, v in c.terms), c.sense, c.rhs)
            for c in self.constraints
        )

    @property
    def binary_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables if v.kind == BINARY)

    @property
    def num_binaries(self) -> int:
        return len(self.binary_ids)


def _norm_terms(terms: Iterable[Sequence]) -> tuple[tuple[float, int], ...]:
    return tuple((float(c), int(v)) for c, v in terms)


def build_problem(
    variables: Iterable[VarRef],
    constraints: Iterable[LinConstraint] = (),
    interpolants: Iterable[InterpolantDef] = (),
    objective: Iterable[Sequence] = (),
    maximize: bool = False,
    name: str = "",
) -> ProblemIR:
    """Assemble and validate a ProblemIR.

    Maximization objectives are negated into minimization, with the flip
    recorded on the IR.
    """
    variables = tuple(variables)
    by_id: dict[int, VarRef] = {}
    for v in variables:
        if v.id in by_id:
            raise ValueError(f"duplicate variable id {v.id}")
        by_id[v.id] = v

    def require(vid: int, where: str) -> VarRef:
        if vid not in by_id:
            raise DanglingVariable(f"{where} references undeclared variable {vid}")
        return by_id[vid]

    constraints = tuple(
        LinConstraint(_norm_terms(c.terms), c.sense, float(c.rhs), c.name)
        for c in constraints
    )
    for c in constraints:
        seen = set()
        for coef, vid in c.terms:
            require(vid, f"constraint {c.name or '?'}")
            if not math.isfinite(coef):
                raise ValueError(f"non-finite coefficient in {c.name or '?'}")
            if vid in seen:
                raise ValueError(f"variable {vid} repeated in {c.name or '?'}")
            seen.add(vid)

    interpolants = tuple(interpolants)
    for idx, itp in enumerate(interpolants):
        grid = itp.table.grid
        if len(itp.inputs) != grid.n:
            raise DimensionMismatch(
                f"interpolant {idx}: {len(itp.inputs)} inputs for {grid.n} axes"
            )
        if len(set(itp.inputs)) != len(itp.inputs):
            raise ValueError(f"interpolant {idx}: repeated input variable")
        for j, vid in enumerate(itp.inputs):
            v = require(vid, f"interpolant {idx}")
            if v.kind != CONTINUOUS:
                raise ValueError(f"interpolant {idx}: input {vid} must be continuous")
            if itp.activation is None:
                a = grid.axes[j]
                if v.lo < a[0] - 1e-12 or v.hi > a[-1] + 1e-12:
                    raise BoundsOutsideHull(
                        f"interpolant {idx}: input {vid} bounds [{v.lo}, {v.hi}] "
                        f"exceed axis hull [{a[0]}, {a[-1]}]"
                    )
        out = require(itp.output, f"interpolant {idx}")
        if out.kind != CONTINUOUS:
            raise ValueError(f"interpolant {idx}: output must be continuous")
        if itp.activation is not None:
            act = require(itp.activation, f"interpolant {idx}")
            if act.kind != BINARY:
                raise ValueError(f"interpolant {idx}: activation must be binary")

    obj = _norm_terms(objective)
    for coef, vid in obj:
        require(vid, "objective")
        if math.isnan(coef):
            raise ValueError(f"NaN objective coefficient of variable {vid}")
    if maximize:
        obj = tuple((-c, v) for c, v in obj)

    return ProblemIR(
        variables=variables,
        constraints=constraints,
        interpolants=interpolants,
        objective=obj,
        maximize=maximize,
        name=name,
    )

