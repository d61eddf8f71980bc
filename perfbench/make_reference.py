#!/usr/bin/env python3
"""Regenerate reference.json: the objective each benchmark instance must reach.

Desk S1 instances use the enumeration oracle's objective; the others use
solve_rfe's objective at the commit that wrote the file. Run from the
repository root (takes about a minute):

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gridopt.rfe import solve_by_enumeration, solve_rfe  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    specs = sorted({spec for w in workloads.WORKLOADS.values() for spec in w.instances})
    ref = {}
    for family, seed in specs:
        ir = workloads.build_instance(family, seed)
        source = "oracle" if family == "S1" else "rfe"
        res = (solve_by_enumeration if source == "oracle" else solve_rfe)(ir)
        if res.status != "Optimal":
            sys.exit(f"{family}-{seed}: {res.status}")
        ref[workloads.instance_key(family, seed)] = {"objective": res.objective, "source": source}
        print(family, seed, source, res.objective, flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
