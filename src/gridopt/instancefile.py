"""Versioned JSON serialization of problem instances.

The document stores grids and tables (flat values with an explicit ordering
tag), variables, linear constraints, interpolant bindings, the objective in its
original sense, and optional scenario metadata plus the RNG seed that produced
the instance. Serialization is canonical (sorted keys, fixed indentation), so
parse followed by serialize is the identity on canonical files.
"""

from __future__ import annotations

import json
import numbers
from typing import Optional

from .gridtab import make_grid, make_table
from .model import (
    InterpolantDef,
    LinConstraint,
    ProblemIR,
    VarRef,
    build_problem,
)

FORMAT_VERSION = 1
ORDERING = "last-axis-fastest"


def ir_to_dict(
    ir: ProblemIR,
    scenario: Optional[dict] = None,
    seed: Optional[int] = None,
) -> dict:
    tables = []
    table_index: dict[int, int] = {}
    for itp in ir.interpolants:
        if id(itp.table) not in table_index:
            table_index[id(itp.table)] = len(tables)
            tables.append(
                {
                    "axes": [list(map(float, a)) for a in itp.table.grid.axes],
                    "values": list(map(float, itp.table.values)),
                    "ordering": ORDERING,
                }
            )
    objective = ir.objective
    if ir.maximize:  # stored minimization form; file carries the original sense
        objective = tuple((-c, v) for c, v in objective)
    return {
        "version": FORMAT_VERSION,
        "name": ir.name,
        "maximize": ir.maximize,
        "variables": [
            {"id": v.id, "kind": v.kind, "lo": v.lo, "hi": v.hi, "name": v.name}
            for v in ir.variables
        ],
        "constraints": [
            {
                "terms": [[c, v] for c, v in cons.terms],
                "sense": cons.sense,
                "rhs": cons.rhs,
                "name": cons.name,
            }
            for cons in ir.constraints
        ],
        "tables": tables,
        "interpolants": [
            {
                "table": table_index[id(itp.table)],
                "inputs": list(itp.inputs),
                "output": itp.output,
                "activation": itp.activation,
            }
            for itp in ir.interpolants
        ],
        "objective": [[c, v] for c, v in objective],
        "scenario": scenario,
        "seed": seed,
    }


def _int(value, what: str, size: Optional[int] = None) -> int:
    """``value`` as an id or index: an integer, not a bool, and in
    ``range(size)`` when a size is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if size is not None and not 0 <= value < size:
        raise ValueError(f"{what} {value} is out of range for {size} entries")
    return int(value)


def ir_from_dict(doc: dict) -> ProblemIR:
    if "version" not in doc:
        raise ValueError("instance file is missing the version field")
    if doc["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format version {doc['version']}")
    tables = []
    for t in doc["tables"]:
        if t.get("ordering") != ORDERING:
            raise ValueError(f"unsupported value ordering {t.get('ordering')!r}")
        tables.append(make_table(make_grid(t["axes"]), t["values"]))
    variables = [
        VarRef(
            _int(v["id"], "variable id"), v["kind"], float(v["lo"]), float(v["hi"]),
            v.get("name", ""),
        )
        for v in doc["variables"]
    ]
    constraints = [
        LinConstraint(
            tuple((float(c), _int(v, "term id")) for c, v in cons["terms"]),
            cons["sense"],
            float(cons["rhs"]),
            cons.get("name", ""),
        )
        for cons in doc["constraints"]
    ]
    interps = [
        InterpolantDef(
            tables[_int(i["table"], "table index", len(tables))],
            tuple(_int(v, "interpolant input") for v in i["inputs"]),
            _int(i["output"], "interpolant output"),
            None if i.get("activation") is None else _int(i["activation"], "activation"),
        )
        for i in doc["interpolants"]
    ]
    maximize = doc.get("maximize", False)
    if not isinstance(maximize, bool):
        raise ValueError(f"maximize must be true or false, not {maximize!r}")
    return build_problem(
        variables,
        constraints,
        interps,
        objective=[(float(c), _int(v, "objective id")) for c, v in doc["objective"]],
        maximize=maximize,
        name=doc.get("name", ""),
    )


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save(path: str, ir: ProblemIR, scenario=None, seed=None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(ir_to_dict(ir, scenario=scenario, seed=seed)))


def load(path: str) -> tuple[ProblemIR, dict]:
    """Read an instance; returns the IR and the raw document (for metadata)."""
    with open(path) as fh:
        doc = json.load(fh)
    return ir_from_dict(doc), doc
