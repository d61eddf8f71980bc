"""Command-line interface: generate, solve, export, and benchmark instances.

Exit codes (stable contract): 0 solved to optimality (or proven unbounded),
2 invalid input (bad scenario, unreadable or malformed instance, unsupported
format), 3 proven infeasible, 4 stopped at a time, iteration or node limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

# One BLAS/OpenMP thread, set before numpy is imported: on a small machine an
# unpinned OpenBLAS can make a single small np.linalg.solve many times slower,
# and the simplex refactorizes with one: every 150 pivots, and at the start of
# every warm solve that has no kept tableau (every spatial node LP).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import instancefile
from .bnb import check_time_limit
from .errors import GridOptError
from .export import FORMATS, export_milp
from .opo import build_opo_instance, get_scenario
from .relax import build_relaxation
from .rfe import RfeResult, solve_by_enumeration, solve_rfe

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

ENGINES = ("rfe", "oracle")


def _report(engine: str, ir, res: RfeResult, wall: float) -> dict:
    obj, bound = res.objective, res.bound
    gap = None
    if np.isfinite(obj) and np.isfinite(bound):
        signed = (bound - obj) if ir.maximize else (obj - bound)
        gap = max(0.0, signed / max(1.0, abs(obj)))
    return {
        "solver": engine,
        "status": res.status,
        "objective": None if not np.isfinite(obj) else obj,
        "bound": None if not np.isfinite(bound) else bound,
        "gap": gap,
        "iterations": res.iterations,
        "subproblems": res.subproblems_solved,
        "milp_nodes": res.milp_nodes,
        "spatial_nodes": res.spatial_nodes,
        "cells_screened": res.cells_screened,
        "wall_time": wall,
        "trace": [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in entry.items()}
            for entry in res.log
        ],
    }


def _status_exit(status: str) -> int:
    if status in ("Optimal", "Unbounded"):
        return EXIT_OK
    if status == "Infeasible":
        return EXIT_INFEASIBLE
    return EXIT_LIMIT  # TimeLimit / IterationLimit / NodeLimit


def cmd_generate(args) -> int:
    try:
        scenario = get_scenario(args.scenario, args.preset)
        inst = build_opo_instance(scenario, args.seed)
    except GridOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    meta = {
        "name": scenario.name,
        "preset": args.preset,
        "wells": scenario.n_wells,
        "manifolds": scenario.n_manifolds,
        "well_grid": list(scenario.well_grid),
        "manifold_grid": list(scenario.manifold_grid),
    }
    instancefile.save(args.output, inst.ir, scenario=meta, seed=args.seed)
    print(f"wrote {args.output}: {scenario.name} "
          f"({scenario.n_wells} wells, {scenario.n_manifolds} manifolds)")
    return EXIT_OK


def _load(path: str):
    try:
        return instancefile.load(path)
    except (OSError, ValueError, KeyError, TypeError, GridOptError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return None


def _solve_one(ir, engine: str, time_limit: Optional[float]):
    t0 = time.monotonic()
    if engine == "oracle":
        res = solve_by_enumeration(ir, time_limit=time_limit)
    else:
        res = solve_rfe(ir, time_limit=time_limit)
    return res, time.monotonic() - t0


def cmd_solve(args) -> int:
    loaded = _load(args.instance)
    if loaded is None:
        return EXIT_INVALID
    ir, _ = loaded
    try:
        res, wall = _solve_one(ir, args.engine, args.time_limit)
    except GridOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = _report(args.engine, ir, res, wall)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
    print(f"status:    {res.status}")
    if report["objective"] is not None:
        print(f"objective: {report['objective']:.9g}")
    if report["bound"] is not None:
        print(f"bound:     {report['bound']:.9g}")
    if report["gap"] is not None:
        print(f"gap:       {report['gap']:.3g}")
    print(f"time:      {wall:.2f} s")
    return _status_exit(res.status)


def cmd_export(args) -> int:
    if args.format not in FORMATS:
        print(f"error: unsupported format {args.format!r}", file=sys.stderr)
        return EXIT_INVALID
    loaded = _load(args.instance)
    if loaded is None:
        return EXIT_INVALID
    ir, _ = loaded
    text = export_milp(build_relaxation(ir), args.format)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_bench(args) -> int:
    engines = args.engine.split(",") if args.engine else list(ENGINES)
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        print(f"error: unknown engine {unknown[0]!r}; choose from {', '.join(ENGINES)}",
              file=sys.stderr)
        return EXIT_INVALID
    rows = []
    for path in args.instances:
        loaded = _load(path)
        if loaded is None:
            rows.append({"instance": path, "error": "load failed"})
            continue
        ir, _ = loaded
        entry = {"instance": path}
        for eng in engines:
            try:
                res, wall = _solve_one(ir, eng, args.time_limit)
                entry[eng] = _report(eng, ir, res, wall)
                entry[eng].pop("trace")
            except GridOptError as exc:
                entry[eng] = {"error": str(exc)}
        rows.append(entry)
    header = f"{'instance':30s} " + " ".join(
        f"{e + ' obj':>14s} {e + ' s':>8s}" for e in engines
    )
    print(header)
    for entry in rows:
        line = f"{entry['instance'][:30]:30s} "
        for eng in engines:
            rep = entry.get(eng)
            if not rep or "error" in rep:
                line += f"{'-':>14s} {'-':>8s} "
            else:
                obj = rep["objective"]
                line += f"{(f'{obj:.6g}' if obj is not None else rep['status']):>14s} "
                line += f"{rep['wall_time']:>8.2f} "
        print(line)
    solved = [
        entry for entry in rows
        if all(isinstance(entry.get(e), dict) and "error" not in entry[e] for e in engines)
    ]
    for eng in engines:
        times = [entry[eng]["wall_time"] for entry in solved]
        if times:
            print(f"mean {eng} time over {len(times)} instances: "
                  f"{sum(times) / len(times):.2f} s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
    return EXIT_OK


def _time_limit(text: str) -> float:
    """Seconds, a number >= 0; ``inf`` is no limit."""
    value = float(text)
    check_time_limit(value)
    return value


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridopt",
        description="Global optimization of problems with gridded lookup-table interpolants.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a production-allocation instance")
    g.add_argument("--scenario", required=True, help="scenario id (S1..S9)")
    g.add_argument("--preset", default="desk", choices=("desk", "full"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("instance")
    s.add_argument("--engine", default="rfe", choices=ENGINES)
    s.add_argument("--time-limit", type=_time_limit, default=None)
    s.add_argument("--report", help="write a JSON run report here")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("export", help="export the MILP relaxation")
    e.add_argument("instance")
    e.add_argument("--format", default="mps")
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=cmd_export)

    b = sub.add_parser("bench", help="solve a batch and summarize")
    b.add_argument("instances", nargs="+")
    b.add_argument("--engine", help="comma-separated engines (default: rfe,oracle)")
    b.add_argument("--time-limit", type=_time_limit, default=None)
    b.add_argument("--json", help="write machine-readable results here")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
