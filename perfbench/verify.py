"""Independent check of a returned solution against the problem IR."""

from __future__ import annotations

import numpy as np

from gridopt import gridtab
from gridopt.errors import GridOptError
from gridopt.model import BINARY, EQ, GE, LE, ProblemIR

TOL = 1e-6


def _scaled(v: float) -> float:
    return TOL * max(1.0, abs(v))


def check_solution(ir: ProblemIR, status: str, x, objective: float, reference: float) -> list[str]:
    """Problems found with one solve's output; an empty list means it passed.

    Linear rows and variable bounds must hold within TOL, binaries must be
    integral, each active interpolant output must equal gridtab.interpolate at
    its inputs (an inactive one has zero inputs and output), and the objective
    must match both x and the stored reference.
    """
    if status != "Optimal":
        return [f"status {status}"]
    if x is None:
        return ["no solution vector"]
    x = np.asarray(x, dtype=float)
    if x.shape != (len(ir.variables),) or not np.all(np.isfinite(x)):
        return [f"solution vector has shape {x.shape} or non-finite entries"]
    pos = {v.id: i for i, v in enumerate(ir.variables)}
    problems = []
    for v, xv in zip(ir.variables, x):
        if xv < v.lo - TOL or xv > v.hi + TOL:
            problems.append(f"var {v.id}={xv} outside [{v.lo}, {v.hi}]")
        if v.kind == BINARY and abs(xv - round(xv)) > TOL:
            problems.append(f"binary {v.id}={xv} not integral")
    for k, c in enumerate(ir.constraints):
        lhs = sum(coef * x[pos[v]] for coef, v in c.terms)
        viol = {LE: lhs - c.rhs, GE: c.rhs - lhs, EQ: abs(lhs - c.rhs)}[c.sense]
        if viol > TOL:
            problems.append(f"row {c.name or k} violated by {viol:.3g}")
    for k, itp in enumerate(ir.interpolants):
        xin = [x[pos[v]] for v in itp.inputs]
        z = x[pos[itp.output]]
        if itp.activation is not None and round(x[pos[itp.activation]]) == 0:
            if max(abs(v) for v in xin + [z]) > TOL:
                problems.append(f"inactive interpolant {k} has nonzero inputs or output")
            continue
        try:
            f = gridtab.interpolate(itp.table, xin)
        except GridOptError as exc:
            problems.append(f"interpolant {k}: {exc}")
            continue
        if abs(z - f) > _scaled(f):
            problems.append(f"interpolant {k}: output {z} != table value {f}")
    sign = -1.0 if ir.maximize else 1.0
    recomputed = sign * sum(coef * x[pos[v]] for coef, v in ir.objective)
    if abs(recomputed - objective) > _scaled(objective):
        problems.append(f"objective {objective} != value at x {recomputed}")
    if abs(objective - reference) > _scaled(reference):
        problems.append(f"objective {objective} != reference {reference}")
    return problems
