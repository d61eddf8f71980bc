"""Textual export of the MILP relaxation in MPS and LP formats.

An export holds the relaxation's LP as it stands (``MilpModel.to_lp``): all
structural, weight, and segment columns, and every row, the exclusion cuts
added so far (``relax.add_no_good_cut``) included. The CLI exports a fresh
relaxation, which has none. MPS columns are read from the columns of A and
LP-format rows from its rows, terms in column order; a coefficient that is
exactly 0 is not written. Names are sanitized and de-duplicated so the files
load in standard MILP solvers.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np

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
    lp = milp.to_lp()
    cols = _clean_names(milp.names, "x")
    rows = _clean_names(milp.row_names, "r")
    fh.write(f"NAME          {milp.ir.name or 'problem'}\n")
    fh.write("ROWS\n N  OBJ\n")
    for name, sense in zip(rows, lp.senses):
        fh.write(f" {_SENSE_MPS[sense]}  {name}\n")
    fh.write("COLUMNS\n")
    in_int = False
    marker = 0
    for j, col in enumerate(cols):
        if milp.is_binary[j] != in_int:
            kind = "'INTORG'" if milp.is_binary[j] else "'INTEND'"
            fh.write(f"    MARKER{marker}  'MARKER'  {kind}\n")
            marker += 1
            in_int = milp.is_binary[j]
        entries = [("OBJ", lp.obj[j])] if lp.obj[j] != 0.0 else []
        entries += [(rows[i], lp.A[i, j]) for i in np.flatnonzero(lp.A[:, j])]
        for rname, coef in entries or [("OBJ", 0.0)]:
            fh.write(f"    {col}  {rname}  {_num(coef)}\n")
    if in_int:
        fh.write(f"    MARKER{marker}  'MARKER'  'INTEND'\n")
    fh.write("RHS\n")
    for name, b in zip(rows, lp.rhs):
        if b != 0.0:
            fh.write(f"    RHS  {name}  {_num(b)}\n")
    fh.write("BOUNDS\n")
    for j, col in enumerate(cols):
        lo, hi = lp.lo[j], lp.hi[j]
        if milp.is_binary[j]:
            fh.write(f" BV BND  {col}\n")
            continue
        if lo == hi:
            fh.write(f" FX BND  {col}  {_num(lo)}\n")
            continue
        if math.isinf(lo) and math.isinf(hi):
            fh.write(f" FR BND  {col}\n")
            continue
        if math.isinf(lo):
            fh.write(f" MI BND  {col}\n")
        elif lo != 0.0:
            fh.write(f" LO BND  {col}  {_num(lo)}\n")
        if not math.isinf(hi):
            fh.write(f" UP BND  {col}  {_num(hi)}\n")
    fh.write("ENDATA\n")


def write_lp(milp: MilpModel, fh) -> None:
    lp = milp.to_lp()
    cols = _clean_names(milp.names, "x")
    rows = _clean_names(milp.row_names, "r")

    def expr(coefs) -> str:
        parts = []
        for c in np.flatnonzero(coefs):
            sign = "+" if coefs[c] >= 0 else "-"
            parts.append(f"{sign} {_num(abs(coefs[c]))} {cols[c]}")
        return " ".join(parts) if parts else "0 " + cols[0]

    fh.write("Minimize\n obj: ")
    fh.write(expr(lp.obj))
    fh.write("\nSubject To\n")
    for name, a, sense, b in zip(rows, lp.A, lp.senses, lp.rhs):
        fh.write(f" {name}: {expr(a)} {_SENSE_LP[sense]} {_num(b)}\n")
    fh.write("Bounds\n")
    for j, col in enumerate(cols):
        if milp.is_binary[j]:
            continue
        lo, hi = lp.lo[j], lp.hi[j]
        lo_s = "-inf" if math.isinf(lo) else _num(lo)
        hi_s = "+inf" if math.isinf(hi) else _num(hi)
        fh.write(f" {lo_s} <= {col} <= {hi_s}\n")
    binaries = [col for j, col in enumerate(cols) if milp.is_binary[j]]
    if binaries:
        fh.write("Binary\n " + " ".join(binaries) + "\n")
    fh.write("End\n")


def export_milp(milp: MilpModel, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unsupported export format {fmt!r}; choose from {FORMATS}")
    buf = io.StringIO()
    (write_mps if fmt == "mps" else write_lp)(milp, buf)
    return buf.getvalue()
