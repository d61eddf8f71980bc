"""Synthetic oil-production allocation instances over gridded lift curves.

A platform gathers wells either directly (satellite wells) or through shared
manifolds. Each component's hydraulics enter through a lookup table of its
upstream pressure versus flow rate, mixture composition, and (for wells)
downstream pressure; gas-lift injection, capacities, choke pressure drops, and
on/off decisions complete the model. All bilinear quantities (injection,
water, and gas rates as products of ratios and liquid rate) are encoded as
exact product tables sharing the lift-curve breakpoints, so instances are pure
interpolation problems over the package's IR.

Units are bar and m3/d throughout. Parameter ranges are fixed constants chosen
so that every instance is feasible (the all-closed solution always is) and
qualitatively realistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidScenario
from .gridtab import Grid, LookupTable, make_grid, make_table, product_table
from .model import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    LE,
    InterpolantDef,
    LinConstraint,
    ProblemIR,
    VarRef,
    build_problem,
)

SEP_PRESSURE = 20.0  # bar
IGLR_MAX = 0.3
WELL_QMAX = 300.0  # m3/d liquid per well
INJ_MIN = 5.0  # m3/d minimum gas-lift rate when lifting

# sampling ranges for per-well physics
PI_RANGE = (0.5, 2.0)
PRES_RANGE = (150.0, 250.0)
GOR_RANGE = (80.0, 120.0)
WCT_RANGE = (0.1, 0.4)
INJ_MAX_RANGE = (40.0, 90.0)
WELL_HYDRO_RANGE = (60.0, 120.0)  # hydrostatic column term, bar
WELL_FRIC_RANGE = (10.0, 40.0)  # friction term at max rate, bar
MANIFOLD_HYDRO_RANGE = (30.0, 60.0)
MANIFOLD_FRIC_RANGE = (5.0, 20.0)
WELL_PDS_SPAN = 180.0  # well downstream pressure axis: [sep, sep + span]


@dataclass(frozen=True)
class Scenario:
    name: str
    n_wells: int
    n_manifolds: int
    well_grid: tuple[int, int, int]  # breakpoints: q_liq, p_ds, iglr
    manifold_grid: tuple[int, int, int, int]  # q_liq, iglr, gor, wct

    @property
    def n_binaries(self) -> int:
        # one activation per component plus one gas-lift binary per well
        return self.n_wells + self.n_manifolds + self.n_wells


_COUNTS = [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 1), (7, 2), (8, 2), (9, 2)]

DESK_WELL_GRID = (3, 3, 3)
DESK_MANIFOLD_GRID = (3, 3, 3, 3)
FULL_WELL_GRID = (10, 20, 20)
FULL_MANIFOLD_GRID = (10, 15, 10, 20)


def scenario_catalog(preset: str = "desk") -> list[Scenario]:
    """The nine standard shapes, at desk-scale or full-resolution grid sizes."""
    if preset == "desk":
        wg, mg = DESK_WELL_GRID, DESK_MANIFOLD_GRID
    elif preset == "full":
        wg, mg = FULL_WELL_GRID, FULL_MANIFOLD_GRID
    else:
        raise InvalidScenario(f"unknown preset {preset!r}")
    return [
        Scenario(f"S{i + 1}", w, m, wg, mg) for i, (w, m) in enumerate(_COUNTS)
    ]


def get_scenario(name: str, preset: str = "desk") -> Scenario:
    for s in scenario_catalog(preset):
        if s.name == name:
            return s
    raise InvalidScenario(f"unknown scenario {name!r}")


@dataclass(frozen=True)
class WellSpec:
    pi: float  # productivity index, m3/d per bar
    p_res: float  # reservoir pressure, bar
    inj_min: float
    inj_max: float
    gor: float
    wct: float
    vlp: LookupTable  # axes: q_liq, p_ds, iglr
    manifold: Optional[int]  # None = satellite


@dataclass(frozen=True)
class ManifoldSpec:
    wells: tuple[int, ...]
    vlp: LookupTable  # axes: q_liq, iglr, gor, wct; downstream fixed at separator


@dataclass(frozen=True)
class PlatformSpec:
    p_sep: float
    q_liq_cap: float
    q_inj_cap: float
    big_m: float  # per-instance pressure big-M


def _axis(lo: float, hi: float, k: int) -> np.ndarray:
    return np.linspace(lo, hi, k)


def synth_vlp(seed: int, axes: Grid, kind: str) -> LookupTable:
    """Deterministic synthetic lift curve on the given grid.

    Wells (axes q_liq, p_ds, iglr): upstream pressure is downstream pressure
    plus a hydrostatic column relieved linearly by gas injection plus a
    friction term quadratic in rate. Manifolds (axes q_liq, iglr, gor, wct):
    same shape with the downstream pressure fixed at the separator and mild
    composition effects.
    """
    rng = np.random.default_rng(seed)
    if kind == "well":
        hydro = rng.uniform(*WELL_HYDRO_RANGE)
        fric = rng.uniform(*WELL_FRIC_RANGE)
        q, pds, iglr = np.meshgrid(*axes.axes, indexing="ij")
        qmax = axes.axes[0][-1]
        vals = (
            pds
            + hydro * (1.0 - 0.5 * iglr / IGLR_MAX)
            + fric * (q / qmax) ** 2
        )
    elif kind == "manifold":
        hydro = rng.uniform(*MANIFOLD_HYDRO_RANGE)
        fric = rng.uniform(*MANIFOLD_FRIC_RANGE)
        q, iglr, gor, wct = np.meshgrid(*axes.axes, indexing="ij")
        qmax = axes.axes[0][-1]
        vals = (
            SEP_PRESSURE
            + hydro * (1.0 - 0.5 * iglr / IGLR_MAX) * (1.0 + 0.3 * wct)
            + fric * (q / qmax) ** 2 * (1.0 + 0.001 * (gor - 100.0))
        )
    else:
        raise InvalidScenario(f"unknown lift-curve kind {kind!r}")
    return make_table(axes, vals.reshape(-1))


@dataclass
class OpoInstance:
    scenario: Scenario
    seed: int
    platform: PlatformSpec
    wells: list[WellSpec]
    manifolds: list[ManifoldSpec]
    ir: ProblemIR


def _assign_wells(n_wells: int, n_manifolds: int) -> list[Optional[int]]:
    """Manifold id per well (None = satellite); every manifold gets a well."""
    assign: list[Optional[int]] = [None] * n_wells
    if n_manifolds == 0:
        return assign
    for m in range(n_manifolds):
        assign[m] = m
    slots: list[Optional[int]] = [None] + list(range(n_manifolds))
    for w in range(n_manifolds, n_wells):
        assign[w] = slots[(w - n_manifolds) % len(slots)]
    return assign


def build_opo_instance(scenario: Scenario, seed: int) -> OpoInstance:
    """Sample parameters and assemble the full IR for one scenario."""
    if scenario.n_wells < 1:
        raise InvalidScenario("need at least one well")
    if not 0 <= scenario.n_manifolds <= scenario.n_wells:
        raise InvalidScenario("every manifold needs a well of its own")
    if any(k < 2 for k in scenario.well_grid + scenario.manifold_grid):
        raise InvalidScenario("grid axes need at least 2 breakpoints")
    rng = np.random.default_rng(seed)
    assign = _assign_wells(scenario.n_wells, scenario.n_manifolds)

    kq, kp, ki = scenario.well_grid
    q_axis = _axis(0.0, WELL_QMAX, kq)
    pds_axis = _axis(SEP_PRESSURE, SEP_PRESSURE + WELL_PDS_SPAN, kp)
    iglr_axis = _axis(0.0, IGLR_MAX, ki)

    wells: list[WellSpec] = []
    for w in range(scenario.n_wells):
        grid = make_grid([q_axis, pds_axis, iglr_axis])
        wells.append(
            WellSpec(
                pi=float(rng.uniform(*PI_RANGE)),
                p_res=float(rng.uniform(*PRES_RANGE)),
                inj_min=INJ_MIN,
                inj_max=float(rng.uniform(*INJ_MAX_RANGE)),
                gor=float(rng.uniform(*GOR_RANGE)),
                wct=float(rng.uniform(*WCT_RANGE)),
                vlp=synth_vlp(int(rng.integers(1 << 31)), grid, "well"),
                manifold=assign[w],
            )
        )

    manifolds: list[ManifoldSpec] = []
    mq, mi, mg, mw = scenario.manifold_grid
    for m in range(scenario.n_manifolds):
        members = tuple(w for w in range(scenario.n_wells) if assign[w] == m)
        mq_axis = _axis(0.0, WELL_QMAX * max(1, len(members)), mq)
        # composition axes cover every achievable mixture with margin
        grid = make_grid(
            [
                mq_axis,
                _axis(0.0, IGLR_MAX, mi),
                _axis(GOR_RANGE[0] * 0.95, GOR_RANGE[1] * 1.05, mg),
                _axis(WCT_RANGE[0] * 0.95, WCT_RANGE[1] * 1.05, mw),
            ]
        )
        manifolds.append(
            ManifoldSpec(
                wells=members,
                vlp=synth_vlp(int(rng.integers(1 << 31)), grid, "manifold"),
            )
        )

    max_pus = max(
        [float(w.vlp.values.max()) for w in wells]
        + [float(mf.vlp.values.max()) for mf in manifolds]
    )
    platform = PlatformSpec(
        p_sep=SEP_PRESSURE,
        q_liq_cap=0.75 * WELL_QMAX * scenario.n_wells,
        q_inj_cap=0.75 * sum(w.inj_max for w in wells),
        big_m=1.1 * max_pus,
    )
    ir = _build_ir(scenario, platform, wells, manifolds)
    return OpoInstance(
        scenario=scenario,
        seed=seed,
        platform=platform,
        wells=wells,
        manifolds=manifolds,
        ir=ir,
    )


def _build_ir(
    scenario: Scenario,
    plat: PlatformSpec,
    wells: list[WellSpec],
    manifolds: list[ManifoldSpec],
) -> ProblemIR:
    variables: list[VarRef] = []
    constraints: list[LinConstraint] = []
    interps: list[InterpolantDef] = []
    next_id = 0

    def var(name, lo, hi, kind=CONTINUOUS) -> int:
        nonlocal next_id
        variables.append(VarRef(next_id, kind, float(lo), float(hi), name))
        next_id += 1
        return next_id - 1

    def row(terms, sense, rhs, name):
        constraints.append(
            LinConstraint(tuple((float(c), int(v)) for c, v in terms), sense, float(rhs), name)
        )

    M = plat.big_m
    # per-well variables
    wv = []
    for w, ws in enumerate(wells):
        grid = ws.vlp.grid
        d = {
            "q_liq": var(f"q_liq_w{w}", 0.0, grid.axes[0][-1]),
            "p_ds": var(f"p_ds_w{w}", 0.0, grid.axes[1][-1]),
            "iglr": var(f"iglr_w{w}", 0.0, grid.axes[2][-1]),
            "p_us": var(f"p_us_w{w}", 0.0, float(ws.vlp.values.max())),
            "q_inj": var(f"q_inj_w{w}", 0.0, ws.inj_max),
            "q_oil": var(f"q_oil_w{w}", 0.0, grid.axes[0][-1]),
            "q_water": var(f"q_water_w{w}", 0.0, grid.axes[0][-1]),
            "q_gas": var(f"q_gas_w{w}", 0.0, ws.gor * grid.axes[0][-1]),
            "y": var(f"y_w{w}", 0.0, 1.0, BINARY),
            "t": var(f"t_w{w}", 0.0, 1.0, BINARY),
        }
        wv.append(d)
    mv = []
    for m, mf in enumerate(manifolds):
        grid = mf.vlp.grid
        d = {
            "q_liq": var(f"q_liq_m{m}", 0.0, grid.axes[0][-1]),
            "iglr": var(f"iglr_m{m}", 0.0, grid.axes[1][-1]),
            "gor": var(f"gor_m{m}", 0.0, grid.axes[2][-1]),
            "wct": var(f"wct_m{m}", 0.0, grid.axes[3][-1]),
            "p_us": var(f"p_us_m{m}", 0.0, float(mf.vlp.values.max())),
            "q_inj": var(f"q_inj_m{m}", 0.0, grid.axes[0][-1] * grid.axes[1][-1]),
            "q_water": var(f"q_water_m{m}", 0.0, grid.axes[0][-1] * grid.axes[3][-1]),
            "gl": var(f"gl_m{m}", 0.0, grid.axes[0][-1] * grid.axes[2][-1]),
            "glw": var(f"glw_m{m}", 0.0, grid.axes[0][-1] * grid.axes[2][-1] * grid.axes[3][-1]),
            "y": var(f"y_m{m}", 0.0, 1.0, BINARY),
        }
        mv.append(d)

    for w, (ws, d) in enumerate(zip(wells, wv)):
        grid = ws.vlp.grid
        # lift curve and exact injection product share breakpoints and activation
        interps.append(
            InterpolantDef(ws.vlp, (d["q_liq"], d["p_ds"], d["iglr"]), d["p_us"], d["y"])
        )
        pgrid = make_grid([grid.axes[0], grid.axes[2]])
        interps.append(
            InterpolantDef(product_table(pgrid, (0, 1)), (d["q_liq"], d["iglr"]), d["q_inj"], d["y"])
        )
        # inflow: q_liq = PI * (p_res * y - p_us); closed wells collapse to 0 = 0
        row(
            [(1.0, d["q_liq"]), (ws.pi, d["p_us"]), (-ws.pi * ws.p_res, d["y"])],
            EQ, 0.0, f"ipr_w{w}",
        )
        # fixed composition makes the phase split linear
        row([(1.0, d["q_oil"]), (-(1.0 - ws.wct), d["q_liq"])], EQ, 0.0, f"oil_w{w}")
        row([(1.0, d["q_water"]), (-ws.wct, d["q_liq"])], EQ, 0.0, f"water_w{w}")
        row(
            [(1.0, d["q_gas"]), (-ws.gor * (1.0 - ws.wct), d["q_liq"])],
            EQ, 0.0, f"gas_w{w}",
        )
        # gas lift active only on an open well, within its rate window
        row([(1.0, d["t"]), (-1.0, d["y"])], LE, 0.0, f"gl_open_w{w}")
        row([(1.0, d["q_inj"]), (-ws.inj_min, d["t"])], GE, 0.0, f"gl_lo_w{w}")
        row([(1.0, d["q_inj"]), (-ws.inj_max, d["t"])], LE, 0.0, f"gl_hi_w{w}")
        # choke: downstream pressure at least the gathering pressure when open
        if ws.manifold is None:
            row(
                [(1.0, d["p_ds"]), (-M, d["y"])], GE, plat.p_sep - M, f"choke_w{w}"
            )
        else:
            md = mv[ws.manifold]
            row(
                [(1.0, d["p_ds"]), (-1.0, md["p_us"]), (-M, d["y"])],
                GE, -M, f"choke_w{w}",
            )
            row([(1.0, d["y"]), (-1.0, md["y"])], LE, 0.0, f"routing_w{w}")

    for m, (mf, d) in enumerate(zip(manifolds, mv)):
        grid = mf.vlp.grid
        interps.append(
            InterpolantDef(
                mf.vlp,
                (d["q_liq"], d["iglr"], d["gor"], d["wct"]),
                d["p_us"],
                d["y"],
            )
        )
        qi = make_grid([grid.axes[0], grid.axes[1]])
        qw = make_grid([grid.axes[0], grid.axes[3]])
        qg = make_grid([grid.axes[0], grid.axes[2]])
        qgw = make_grid([grid.axes[0], grid.axes[2], grid.axes[3]])
        interps.append(
            InterpolantDef(product_table(qi, (0, 1)), (d["q_liq"], d["iglr"]), d["q_inj"], d["y"])
        )
        interps.append(
            InterpolantDef(product_table(qw, (0, 1)), (d["q_liq"], d["wct"]), d["q_water"], d["y"])
        )
        interps.append(
            InterpolantDef(product_table(qg, (0, 1)), (d["q_liq"], d["gor"]), d["gl"], d["y"])
        )
        interps.append(
            InterpolantDef(
                product_table(qgw, (0, 1, 2)), (d["q_liq"], d["gor"], d["wct"]), d["glw"], d["y"]
            )
        )
        # mixture balances tie the manifold's gridded composition to its feed
        members = mf.wells
        row(
            [(1.0, d["q_liq"])] + [(-1.0, wv[w]["q_liq"]) for w in members],
            EQ, 0.0, f"mix_liq_m{m}",
        )
        row(
            [(1.0, d["q_inj"])] + [(-1.0, wv[w]["q_inj"]) for w in members],
            EQ, 0.0, f"mix_inj_m{m}",
        )
        row(
            [(1.0, d["q_water"])] + [(-1.0, wv[w]["q_water"]) for w in members],
            EQ, 0.0, f"mix_water_m{m}",
        )
        # reservoir gas: q_gas = gor * q_oil = gor*q_liq - gor*q_liq*wct
        row(
            [(1.0, d["gl"]), (-1.0, d["glw"])]
            + [(-1.0, wv[w]["q_gas"]) for w in members],
            EQ, 0.0, f"mix_gas_m{m}",
        )

    # platform capacities
    row(
        [(1.0, d["q_liq"]) for d in wv], LE, plat.q_liq_cap, "cap_liq"
    )
    row(
        [(1.0, d["q_inj"]) for d in wv], LE, plat.q_inj_cap, "cap_inj"
    )

    objective = [(1.0, d["q_oil"]) for d in wv]
    return build_problem(
        variables,
        constraints,
        interps,
        objective=objective,
        maximize=True,
        name=scenario.name,
    )
