"""Spans recorded around the calls into each gridopt layer, from outside it.

Each traced name is wrapped where its caller looks it up, so nothing inside
``src/gridopt`` changes: ``bnb.solve_lp`` and ``spatial.solve_lp`` are wrapped
separately, which splits simplex work by caller. Spans are kept in memory as
``[name, start, end, parent, instance, info]`` and written out by the runner.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from gridopt import _kernels, bnb, model, opo, relax, rfe, spatial
from gridopt.gridtab import LookupTable

NAME, START, END, PARENT, INSTANCE, INFO = range(6)


def _mip_info(args, res):
    return {"nodes": res.nodes, "lp_iterations": res.lp_iterations}


def _nlp_info(args, res):
    return {"nodes": res.nodes, "status": res.status, "objective": res.objective}


def _lp_info(args, res):
    return {"rows": args[0].nrows, "status": res.status}


def _pivot_info(args, res):
    m, ncols = args[0].shape  # ncols = n + 2m
    return 2 * m * ncols


class Tracer:
    """Records spans while installed; ``entry`` is the ``gridopt.rfe`` solver
    the benchmark calls, traced as the span ``rfe``."""

    def __init__(self, entry: str) -> None:
        self.entry = entry
        self.spans: list[list] = []
        self.instance = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                res = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, res)
            return res

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        w = self._wrap
        w(opo, "build_opo_instance", "opo.build")
        w(opo, "build_problem", "model.build_problem")
        w(model, "build_problem", "model.build_problem")
        w(rfe, self.entry, "rfe")
        w(rfe, "solve_milp", "bnb", _mip_info)
        w(rfe, "solve_box_nlp", "spatial", _nlp_info)
        w(rfe, "build_relaxation", "relax.build")
        w(rfe, "build_subproblem", "relax.subproblem")
        w(rfe, "extract_fixing", "relax.extract")
        w(rfe, "add_no_good_cut", "relax.cut")
        w(relax.MilpModel, "to_lp", "relax.to_lp")
        w(bnb, "solve_lp", "simplex.bnb", _lp_info)
        w(spatial, "solve_lp", "simplex.spatial", _lp_info)
        w(_kernels, "tableau_pivot", "kernels.pivot", _pivot_info)
        w(LookupTable, "cell_corner_values", "gridtab.corner")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def _infos(spans: list[list], name: str) -> list:
    """Result details of the named spans; a call that raised has none."""
    return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], subproblem_improved) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``subproblem_improved`` is the number of subproblems that improved their
    instance's incumbent, computed by :func:`useful_subproblems`.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    for s, o in zip(spans, own):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        selft[s[NAME]] += o
    m: dict[str, float] = {}
    m["rfe.s"] = total["rfe"]
    m["rfe.self_s"] = selft["rfe"]
    m["rfe.useful_sub_frac"] = subproblem_improved / calls["spatial"] if calls["spatial"] else 0.0
    for key, name in (("build", "relax.build"), ("subproblem", "relax.subproblem"),
                      ("extract", "relax.extract"), ("cut", "relax.cut")):
        m[f"relax.{key}_s"] = total[name]
    m["relax.to_lp.calls"] = calls["relax.to_lp"]
    m["relax.to_lp_s"] = total["relax.to_lp"]

    mips = _infos(spans, "bnb")
    m["bnb.calls"] = calls["bnb"]
    m["bnb.s"] = total["bnb"]
    m["bnb.self_s"] = selft["bnb"]
    m["bnb.nodes"] = sum(i["nodes"] for i in mips)
    m["bnb.lp_iterations"] = sum(i["lp_iterations"] for i in mips)

    for caller in ("bnb", "spatial"):
        name = f"simplex.{caller}"
        idx = {k for k, s in enumerate(spans) if s[NAME] == name}
        lps = [spans[k][INFO] for k in idx if spans[k][INFO] is not None]
        piv = [s for s in spans if s[NAME] == "kernels.pivot" and s[PARENT] in idx]
        n = len(idx)
        p = f"simplex.{caller}."
        m[p + "calls"] = n
        m[p + "s"] = total[name]
        m[p + "self_s"] = selft[name]
        m[p + "pivots"] = len(piv)
        m[p + "pivots_per_lp"] = len(piv) / n if n else 0.0
        m[p + "us_per_pivot"] = 1e6 * total[name] / len(piv) if piv else 0.0
        m[p + "infeasible_frac"] = sum(i["status"] == "Infeasible" for i in lps) / len(lps) if lps else 0.0
        m[p + "rows_mean"] = sum(i["rows"] for i in lps) / len(lps) if lps else 0.0
        m[p + "pivot_gflop_computed"] = sum(s[INFO] or 0 for s in piv) / 1e9

    m["kernels.pivot.calls"] = calls["kernels.pivot"]
    m["kernels.pivot.s"] = total["kernels.pivot"]

    nodes = sum(i["nodes"] for i in _infos(spans, "spatial"))
    lp_calls = calls["simplex.spatial"]
    m["spatial.calls"] = calls["spatial"]
    m["spatial.s"] = total["spatial"]
    m["spatial.self_s"] = selft["spatial"]
    m["spatial.nodes"] = nodes
    m["spatial.lp_calls"] = lp_calls
    m["spatial.heuristic_lp_frac"] = (lp_calls - nodes) / lp_calls if lp_calls else 0.0

    m["gridtab.corner.calls"] = calls["gridtab.corner"]
    m["gridtab.s"] = total["gridtab.corner"]
    return m


def useful_subproblems(spans: list[list]) -> int:
    """Subproblems whose result improved their instance's incumbent.

    Mirrors the acceptance rule in ``solve_rfe`` and ``solve_by_enumeration``.
    """
    best: dict[str, float] = {}
    improved = 0
    for s in spans:
        if s[NAME] != "spatial" or s[INFO] is None or s[INFO]["status"] != "Optimal":
            continue
        obj = s[INFO]["objective"]
        if obj < best.get(s[INSTANCE], float("inf")) - 1e-15:
            best[s[INSTANCE]] = obj
            improved += 1
    return improved


def instance_counts(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per-instance work counts that must repeat exactly between passes."""
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        c = out[s[INSTANCE]]
        name = s[NAME]
        if name in ("bnb", "spatial") and s[INFO] is None:
            continue
        if name == "bnb":
            c["bnb.nodes"] += s[INFO]["nodes"]
            c["bnb.lp_iterations"] += s[INFO]["lp_iterations"]
        elif name == "spatial":
            c["spatial.nodes"] += s[INFO]["nodes"]
        elif name.startswith("simplex."):
            c[name + ".calls"] += 1
        elif name == "kernels.pivot" and s[PARENT] >= 0:
            c[spans[s[PARENT]][NAME] + ".pivots"] += 1
    return {k: dict(v) for k, v in out.items()}
