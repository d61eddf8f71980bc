"""Textual export of the MILP relaxation in MPS and LP formats.

An export holds the relaxation as it stands: all structural, weight, and
segment columns, and every row in ``milp.rows``, the exclusion cuts added so
far (``relax.add_no_good_cut``) included. The CLI exports a fresh relaxation,
which has none. Names are sanitized and de-duplicated so the files load in
standard MILP solvers.
"""

from __future__ import annotations

import io
import math
import re

from .model import EQ, GE, LE
from .relax import MilpModel

FORMATS = ("mps", "lp")

_SENSE_MPS = {LE: "L", GE: "G", EQ: "E"}
_SENSE_LP = {LE: "<=", GE: ">=", EQ: "="}


def _clean_names(raw: list[str], prefix: str) -> list[str]:
    seen: set[str] = set()
    out = []
    for i, name in enumerate(raw):
        name = re.sub(r"[^A-Za-z0-9_.]", "_", name) or f"{prefix}{i}"
        if name[0].isdigit():
            name = f"{prefix}{name}"
        while name in seen:  # a suffixed name may itself be taken
            name = f"{name}_{i}"
        seen.add(name)
        out.append(name)
    return out


def _num(v: float) -> str:
    return format(v, ".17g")


def write_mps(milp: MilpModel, fh) -> None:
    cols = _clean_names(milp.names, "x")
    rows = _clean_names([r.name for r in milp.rows], "r")
    fh.write(f"NAME          {milp.ir.name or 'problem'}\n")
    fh.write("ROWS\n N  OBJ\n")
    for name, r in zip(rows, milp.rows):
        fh.write(f" {_SENSE_MPS[r.sense]}  {name}\n")
    by_col: dict[int, list[tuple[str, float]]] = {j: [] for j in range(milp.ncols)}
    for c, coef in milp.obj.items():
        by_col[c].append(("OBJ", coef))
    for name, r in zip(rows, milp.rows):
        for c, coef in r.terms:
            by_col[c].append((name, coef))
    fh.write("COLUMNS\n")
    in_int = False
    marker = 0
    for j in range(milp.ncols):
        if milp.is_binary[j] != in_int:
            kind = "'INTORG'" if milp.is_binary[j] else "'INTEND'"
            fh.write(f"    MARKER{marker}  'MARKER'  {kind}\n")
            marker += 1
            in_int = milp.is_binary[j]
        for rname, coef in by_col[j]:
            fh.write(f"    {cols[j]}  {rname}  {_num(coef)}\n")
        if not by_col[j]:
            fh.write(f"    {cols[j]}  OBJ  0\n")
    if in_int:
        fh.write(f"    MARKER{marker}  'MARKER'  'INTEND'\n")
    fh.write("RHS\n")
    for name, r in zip(rows, milp.rows):
        if r.rhs != 0.0:
            fh.write(f"    RHS  {name}  {_num(r.rhs)}\n")
    fh.write("BOUNDS\n")
    for j in range(milp.ncols):
        lo, hi = milp.lo[j], milp.hi[j]
        if milp.is_binary[j]:
            fh.write(f" BV BND  {cols[j]}\n")
            continue
        if lo == hi:
            fh.write(f" FX BND  {cols[j]}  {_num(lo)}\n")
            continue
        if math.isinf(lo) and math.isinf(hi):
            fh.write(f" FR BND  {cols[j]}\n")
            continue
        if math.isinf(lo):
            fh.write(f" MI BND  {cols[j]}\n")
        elif lo != 0.0:
            fh.write(f" LO BND  {cols[j]}  {_num(lo)}\n")
        if not math.isinf(hi):
            fh.write(f" UP BND  {cols[j]}  {_num(hi)}\n")
    fh.write("ENDATA\n")


def write_lp(milp: MilpModel, fh) -> None:
    cols = _clean_names(milp.names, "x")
    rows = _clean_names([r.name for r in milp.rows], "r")

    def expr(terms) -> str:
        parts = []
        for c, coef in terms:
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign} {_num(abs(coef))} {cols[c]}")
        return " ".join(parts) if parts else "0 " + cols[0]

    fh.write("Minimize\n obj: ")
    fh.write(expr(sorted(milp.obj.items())))
    fh.write("\nSubject To\n")
    for name, r in zip(rows, milp.rows):
        fh.write(f" {name}: {expr(r.terms)} {_SENSE_LP[r.sense]} {_num(r.rhs)}\n")
    fh.write("Bounds\n")
    for j in range(milp.ncols):
        lo, hi = milp.lo[j], milp.hi[j]
        if milp.is_binary[j]:
            continue
        lo_s = "-inf" if math.isinf(lo) else _num(lo)
        hi_s = "+inf" if math.isinf(hi) else _num(hi)
        fh.write(f" {lo_s} <= {cols[j]} <= {hi_s}\n")
    binaries = [cols[j] for j in range(milp.ncols) if milp.is_binary[j]]
    if binaries:
        fh.write("Binary\n " + " ".join(binaries) + "\n")
    fh.write("End\n")


def export_milp(milp: MilpModel, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unsupported export format {fmt!r}; choose from {FORMATS}")
    buf = io.StringIO()
    (write_mps if fmt == "mps" else write_lp)(milp, buf)
    return buf.getvalue()
