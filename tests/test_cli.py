"""Command-line interface: exit codes, determinism, reports, exports."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridopt
from gridopt import instancefile, rfe
from gridopt.cli import main, make_parser
from gridopt.export import _clean_names, export_milp
from gridopt.gridtab import make_grid, make_table
from gridopt.model import (
    BINARY,
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)
from gridopt.bnb import solve_milp
from gridopt.opo import build_opo_instance, get_scenario
from gridopt.relax import add_no_good_cut, build_relaxation, extract_fixing

from _oracles import problem_size
from _random_instances import cut_instance


@pytest.fixture
def s1_path(tmp_path):
    path = tmp_path / "s1.json"
    assert main(["generate", "--scenario", "S1", "--seed", "7", "-o", str(path)]) == 0
    return path


@pytest.fixture
def s3_path(tmp_path):
    """Desk S3 seed 0: more cell and binary choices than the oracle enumerates."""
    path = tmp_path / "s3.json"
    assert main(["generate", "--scenario", "S3", "--seed", "0", "-o", str(path)]) == 0
    return path


def _tiny_instance(tmp_path, infeasible=False, name="tiny.json"):
    g = make_grid([[0.0, 0.5, 1.0]])
    tab = make_table(g, [0.0, -1.0, 2.0])
    variables = [VarRef(0, CONTINUOUS, 0, 1), VarRef(1, CONTINUOUS, -10, 10)]
    cons = []
    if infeasible:
        cons.append(LinConstraint(((1.0, 1),), "<=", -5.0))
    ir = build_problem(
        variables, cons, [InterpolantDef(tab, (0,), 1)], objective=[(1.0, 1)]
    )
    path = tmp_path / name
    instancefile.save(str(path), ir)
    return path


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["generate", "--scenario", "S1", "--seed", "7", "-o", str(a)]) == 0
        assert main(["generate", "--scenario", "S1", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_s9_metadata(self, tmp_path):
        p = tmp_path / "s9.json"
        assert main(["generate", "--scenario", "S9", "--seed", "1", "-o", str(p)]) == 0
        doc = json.loads(p.read_text())
        assert doc["scenario"]["wells"] == 9
        assert doc["scenario"]["manifolds"] == 2

    def test_invalid_scenario(self, tmp_path):
        code = main(
            ["generate", "--scenario", "S99", "--seed", "1", "-o", str(tmp_path / "x")]
        )
        assert code == 2


class TestSolve:
    def test_engines_agree(self, tmp_path):
        path = _tiny_instance(tmp_path)
        rep_a = tmp_path / "a.rep"
        rep_b = tmp_path / "b.rep"
        assert main(["solve", str(path), "--engine", "rfe", "--report", str(rep_a)]) == 0
        assert main(["solve", str(path), "--engine", "oracle", "--report", str(rep_b)]) == 0
        a = json.loads(rep_a.read_text())
        b = json.loads(rep_b.read_text())
        assert a["status"] == b["status"] == "Optimal"
        assert a["objective"] == pytest.approx(b["objective"], abs=1e-6)
        assert a["gap"] is not None and a["gap"] >= 0.0

    def test_report_trace_carries_milp_work(self, tmp_path):
        path = tmp_path / "cut0.json"
        instancefile.save(str(path), cut_instance(0))  # two rounds
        rep = tmp_path / "r.json"
        assert main(["solve", str(path), "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert len(doc["trace"]) == doc["iterations"] == 2
        for entry in doc["trace"]:
            assert entry["milp_nodes"] >= 0
            assert entry["frontier"] >= 1
        assert sum(e["milp_nodes"] for e in doc["trace"]) <= doc["milp_nodes"]

    def test_report_counts_spatial_work(self, s1_path, tmp_path):
        rep = tmp_path / "r.json"
        assert main(["solve", str(s1_path), "--engine", "oracle", "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        # every cell not screened took at least its root LP
        assert 0 < doc["cells_screened"] < doc["subproblems"]
        assert doc["spatial_nodes"] >= doc["subproblems"] - doc["cells_screened"]

    def test_unbounded_exit_code(self, tmp_path):
        # w is free and only w + z <= 5 holds it, so z + w has no lower bound
        tab = make_table(make_grid([[0.0, 0.5, 1.0]]), [0.0, 1.0, 0.0])
        variables = [
            VarRef(0, CONTINUOUS, 0, 1),
            VarRef(1, CONTINUOUS, -10, 10),
            VarRef(2, CONTINUOUS, -np.inf, np.inf),
        ]
        ir = build_problem(
            variables,
            [LinConstraint(((1.0, 2), (1.0, 1)), "<=", 5.0)],
            [InterpolantDef(tab, (0,), 1)],
            objective=[(1.0, 1), (1.0, 2)],
        )
        path = tmp_path / "unbounded.json"
        instancefile.save(str(path), ir)
        for engine in ("rfe", "oracle"):
            rep = tmp_path / f"{engine}.json"
            assert main(["solve", str(path), "--engine", engine, "--report", str(rep)]) == 0
            assert json.loads(rep.read_text())["status"] == "Unbounded"

    def test_infeasible_exit_code(self, tmp_path):
        path = _tiny_instance(tmp_path, infeasible=True)
        rep = tmp_path / "r.json"
        assert main(["solve", str(path), "--report", str(rep)]) == 3
        assert json.loads(rep.read_text())["status"] == "Infeasible"

    def test_enumeration_too_large_is_invalid_input(self, s3_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rfe, "solve_box_nlp", lambda *a, **k: pytest.fail("a cell was solved"))
        rep = tmp_path / "r.json"
        assert main(["solve", str(s3_path), "--engine", "oracle", "--report", str(rep)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not rep.exists()

    def test_time_limit_exit_code(self, s1_path, tmp_path):
        rep = tmp_path / "r.json"
        code = main(
            ["solve", str(s1_path), "--time-limit", "0.0", "--report", str(rep)]
        )
        assert code == 4
        assert json.loads(rep.read_text())["status"] == "TimeLimit"

    def test_oracle_time_limit_exit_code(self, tmp_path):
        # the limit used to reach only the rfe engine
        path, rep = tmp_path / "s1.json", tmp_path / "r.json"
        assert main(["generate", "--scenario", "S1", "--seed", "0", "-o", str(path)]) == 0
        argv = ["solve", str(path), "--engine", "oracle", "--time-limit", "0", "--report", str(rep)]
        assert main(argv) == 4
        doc = json.loads(rep.read_text())
        assert doc["status"] == "TimeLimit" and doc["subproblems"] == 0

    @pytest.mark.parametrize("value", ["nan", "-5", "-inf", "soon"])
    def test_time_limit_rejects_nonsense(self, tmp_path, capsys, value):
        # nan once disabled the limit silently, and -5 stopped before any solve
        path = _tiny_instance(tmp_path)
        for argv in (["solve", str(path)], ["bench", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + [f"--time-limit={value}"])
            assert exc.value.code == 2
            assert "--time-limit" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "0", "7.5"])
    def test_time_limit_accepts_nonnegative(self, value):
        args = make_parser().parse_args(["solve", "x.json", "--time-limit", value])
        assert args.time_limit == float(value)

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        assert main(["solve", str(tmp_path / "missing.json")]) == 2
        # JSON of the wrong type: each of these once died with a TypeError
        # traceback and exit 1, and took the whole bench batch with it
        good = _tiny_instance(tmp_path)
        wrong = [5] + [json.loads(good.read_text()) for _ in range(4)]
        wrong[1]["tables"] = 3
        wrong[2]["variables"][0]["id"] = None
        # a NaN right-hand side or objective coefficient once solved to Infeasible
        wrong[3]["constraints"] = [{"terms": [[1.0, 1]], "sense": "<=", "rhs": float("nan")}]
        wrong[4]["objective"][0][0] = float("nan")
        # a malformed reference once loaded as a different problem: a negative
        # table index counts from the end, a fractional id is cut down to an
        # integer, false is variable 0, and the string "false" is truthy
        for key, value in (
            ("table", -1), ("inputs", [0.7]), ("output", 1.9), ("activation", False)
        ):
            wrong.append(json.loads(good.read_text()))
            wrong[-1]["interpolants"][0][key] = value
        wrong.append(json.loads(good.read_text()))
        wrong[-1]["objective"][0][1] = 1.5
        for value in ("false", "no", 0):
            wrong.append(json.loads(good.read_text()))
            wrong[-1]["maximize"] = value
        for doc in wrong:
            bad.write_text(json.dumps(doc))
            assert main(["solve", str(bad)]) == 2
            out = tmp_path / "bad.lp"
            assert main(["export", str(bad), "--format", "lp", "-o", str(out)]) == 2
            assert "cannot load" in capsys.readouterr().err
            out_json = tmp_path / "bench.json"
            assert main(["bench", str(bad), str(good), "--json", str(out_json)]) == 0
            rows = json.loads(out_json.read_text())
            assert rows[0] == {"instance": str(bad), "error": "load failed"}
            assert rows[1]["rfe"]["status"] == "Optimal"

    @pytest.mark.parametrize(
        "edit", ["rhs", "objective", "nan_breakpoint", "inf_breakpoint"]
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, edit):
        # each once loaded: an infinite right-hand side solved to Optimal at a
        # point that broke another row, an infinite objective coefficient kept
        # the solve from returning, a NaN breakpoint ended in IterationLimit,
        # and an infinite one failed only the strictly increasing check
        path = tmp_path / "s1.json"
        assert main(["generate", "--scenario", "S1", "--seed", "0", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        if edit == "rhs":
            (row,) = [c for c in doc["constraints"] if c["name"] == "gl_open_w0"]
            row["rhs"] = float("inf")
        elif edit == "objective":
            doc["objective"][0][0] = float("inf")
        else:
            axis = doc["tables"][0]["axes"][0]
            axis[1 if edit == "nan_breakpoint" else -1] = float(edit[:3])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", str(path)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err


    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_variable_bounds_that_admit_no_value_rejected(self, tmp_path, capsys, value):
        # x0 in [inf, inf] once solved to Optimal 0 at x0 = 0
        ir = build_problem(
            [VarRef(0, CONTINUOUS, 0.0, 1.0), VarRef(1, CONTINUOUS, 0.0, 1.0)],
            [LinConstraint(((1.0, 0), (1.0, 1)), "<=", 5.0)],
            [],
            objective=[(1.0, 1)],
        )
        doc = instancefile.ir_to_dict(ir)
        doc["variables"][0].update(lo=value, hi=value)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", str(path)]) == 2
        assert "admit no value" in capsys.readouterr().err


def _bounds_ir():
    """Every kind of column bound, and names the exporters must clean."""
    inf = float("inf")
    variables = [
        VarRef(0, CONTINUOUS, 2.0, 2.0, "fixed"),
        VarRef(1, CONTINUOUS, -inf, inf, "free"),
        VarRef(2, CONTINUOUS, -inf, 5.0, "neg"),
        VarRef(3, CONTINUOUS, -3.0, inf, "3rd"),
        VarRef(4, CONTINUOUS, 0.0, 1.0, "a b"),
        VarRef(5, CONTINUOUS, 0.0, 1.0, "a_b"),
        VarRef(6, CONTINUOUS, 0.0, 1.0, "idle"),
        VarRef(7, BINARY, 0.0, 1.0, "on"),
    ]
    cons = [
        LinConstraint(tuple((1.0, v) for v in range(6)), "<=", 10.0, "9cap"),
        LinConstraint(((1.0, 1), (-1.0, 7)), ">=", -4.0, "9cap"),
    ]
    return build_problem(variables, cons, objective=[(1.0, 1)])


def _parse_mps(text: str, cols: dict, rows: dict):
    """The objective, A, senses, right-hand sides, column bounds and binary
    mask an MPS file states, over the given column and row indices by name.
    Each entry is checked to appear once, and columns and rows in order."""
    sense = {"L": "<=", "G": ">=", "E": "="}
    n, m = len(cols), len(rows)
    obj, A, rhs = np.zeros(n), np.zeros((m, n)), np.zeros(m)
    lo, hi = np.zeros(n), np.full(n, np.inf)
    senses, marked, bv, seen = [], np.zeros(n, bool), np.zeros(n, bool), set()
    order = []  # columns as COLUMNS meets them
    section, in_int = None, False
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        f = line.split()
        if section == "ROWS":
            if f[0] != "N":
                assert rows[f[1]] == len(senses)
                senses.append(sense[f[0]])
        elif section == "COLUMNS" and f[1] == "'MARKER'":
            in_int = f[2] == "'INTORG'"
        elif section == "COLUMNS":
            j = cols[f[0]]
            if order[-1:] != [j]:
                order.append(j)
            assert (j, f[1]) not in seen
            seen.add((j, f[1]))
            marked[j] = in_int
            if f[1] == "OBJ":
                obj[j] = float(f[2])
            else:
                A[rows[f[1]], j] = float(f[2])
        elif section == "RHS":
            rhs[rows[f[1]]] = float(f[2])
        elif section == "BOUNDS":
            j, value = cols[f[2]], float(f[3]) if len(f) > 3 else None
            if f[0] == "BV":
                bv[j], hi[j] = True, 1.0
            elif f[0] == "FX":
                lo[j] = hi[j] = value
            elif f[0] in ("FR", "MI"):
                lo[j] = -np.inf
            elif f[0] == "LO":
                lo[j] = value
            else:
                assert f[0] == "UP"
                hi[j] = value
    assert order == list(range(n))
    np.testing.assert_array_equal(marked, bv)
    return obj, A, senses, rhs, lo, hi, bv


def _parse_lp(text: str, cols: dict, rows: dict):
    """The same as ``_parse_mps`` from an LP-format file; each expression's
    terms are checked to come in column order."""
    n, m = len(cols), len(rows)
    lo, hi = np.zeros(n), np.full(n, np.inf)
    binary = np.zeros(n, bool)
    A, senses, rhs = np.zeros((m, n)), [], np.zeros(m)

    def expr(tokens: list) -> np.ndarray:
        coefs = np.zeros(n)
        if tokens[0] == "0":  # "0 <first column>": no term
            return coefs
        js = [cols[name] for name in tokens[2::3]]
        assert js == sorted(set(js))
        coefs[js] = [float(v) if s == "+" else -float(v) for s, v in zip(tokens[::3], tokens[1::3])]
        return coefs

    lines = text.splitlines()
    section = None
    for line in lines:
        if not line.startswith(" "):
            section = line
            continue
        f = line.split()
        if section == "Minimize":
            assert f[0] == "obj:"
            obj = expr(f[1:])
        elif section == "Subject To":
            i = rows[f[0].rstrip(":")]
            assert i == len(senses)
            A[i] = expr(f[1:-2])
            senses.append(f[-2])
            rhs[i] = float(f[-1])
        elif section == "Bounds":
            j = cols[f[2]]
            lo[j], hi[j] = float(f[0]), float(f[4])
        else:
            assert section == "Binary"
            for name in f:
                binary[cols[name]] = True
                hi[cols[name]] = 1.0
    assert lines[-1] == "End"
    return obj, A, senses, rhs, lo, hi, binary


def _desk_after_one_cut():
    milp = build_relaxation(build_opo_instance(get_scenario("S1", "desk"), 0).ir)
    add_no_good_cut(milp, extract_fixing(milp, solve_milp(milp.to_lp(), milp.binary_cols()).x))
    return milp


class TestExport:
    @pytest.mark.parametrize("fmt", ["mps", "lp"])
    @pytest.mark.parametrize(
        "make",
        [_desk_after_one_cut, lambda: build_relaxation(cut_instance(0)),
         lambda: build_relaxation(_bounds_ir())],
        ids=["desk-S1-0-cut", "cut-0", "bounds"],
    )
    def test_the_file_is_the_lp_the_solver_sees(self, fmt, make):
        """Read back, an export states exactly the relaxation's LP and its
        binary columns: every coefficient, sense, right-hand side and bound,
        bit for bit, since ``.17g`` round-trips a float64."""
        milp = make()
        lp = milp.to_lp()
        cols = {name: j for j, name in enumerate(_clean_names(milp.names, "x"))}
        rows = {name: i for i, name in enumerate(_clean_names(milp.row_names, "r"))}
        parse = _parse_mps if fmt == "mps" else _parse_lp
        obj, A, senses, rhs, lo, hi, binary = parse(export_milp(milp, fmt), cols, rows)
        for got, want in ((obj, lp.obj), (A, lp.A), (rhs, lp.rhs), (lo, lp.lo), (hi, lp.hi)):
            np.testing.assert_array_equal(got, want)
        assert senses == list(lp.senses)
        np.testing.assert_array_equal(binary, milp.is_binary)

    def test_mps_column_count_matches_size(self, s1_path, tmp_path):
        out = tmp_path / "m.mps"
        assert main(["export", str(s1_path), "--format", "mps", "-o", str(out)]) == 0
        ir, _ = instancefile.load(str(s1_path))
        sz = problem_size(ir)
        text = out.read_text()
        cols = set()
        in_cols = False
        for line in text.splitlines():
            if line.startswith("COLUMNS"):
                in_cols = True
                continue
            if line.startswith(("RHS", "BOUNDS", "ENDATA")):
                in_cols = False
            if in_cols and line.startswith("    ") and "'MARKER'" not in line:
                cols.add(line.split()[0])
        assert len(cols) == sz.cols

    def test_1d_export_contains_identity_marginalization(self, tmp_path):
        path = _tiny_instance(tmp_path)
        out = tmp_path / "m.lp"
        assert main(["export", str(path), "--format", "lp", "-o", str(out)]) == 0
        text = out.read_text()
        # 1-D marginalization rows: each xi equals its single lambda
        assert "marg0_0_0" in text
        assert "xi0_0_0 - 1 lam0_0 = 0" in text

    def test_unsupported_format(self, s1_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", str(s1_path), "--format", "xlsx", "-o", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fmt", ["mps", "lp"])
    def test_exclusion_cuts_are_exported(self, fmt):
        ir = build_opo_instance(get_scenario("S1", "desk"), 0).ir
        milp = build_relaxation(ir)
        assert "cut0" not in export_milp(milp, fmt)
        add_no_good_cut(milp, extract_fixing(milp, solve_milp(milp.to_lp(), milp.binary_cols()).x))
        (cut,) = milp.cuts
        assert milp.row_names[cut] == "cut0"
        assert "cut0" in export_milp(milp, fmt)

    def test_library_rejects_unsupported_format(self):
        milp = build_relaxation(_bounds_ir())
        with pytest.raises(ValueError, match="unsupported export format 'xlsx'"):
            export_milp(milp, "xlsx")

    def test_mps_bound_records_and_names(self):
        lines = export_milp(build_relaxation(_bounds_ir()), "mps").splitlines()
        for record in (
            " FX BND  fixed  2",
            " FR BND  free",
            " MI BND  neg",
            " UP BND  neg  5",
            " LO BND  x3rd  -3",  # a name may not start with a digit
            " UP BND  a_b  1",  # "a b", cleaned
            " UP BND  a_b_5  1",  # "a_b", a duplicate once cleaned
            " BV BND  on",
            "    idle  OBJ  0",  # a column with no entries still gets one
            " L  r9cap",
            " G  r9cap_1",
        ):
            assert record in lines
        assert not any(line.startswith((" UP BND  x3rd", " UP BND  free")) for line in lines)
        assert not any(line.startswith((" LO BND  neg", " LO BND  free")) for line in lines)

    def test_lp_bound_lines_and_names(self):
        lines = export_milp(build_relaxation(_bounds_ir()), "lp").splitlines()
        for line in (
            " 2 <= fixed <= 2",
            " -inf <= free <= +inf",
            " -inf <= neg <= 5",
            " -3 <= x3rd <= +inf",
            " 0 <= a_b <= 1",
            " 0 <= a_b_5 <= 1",
            " 0 <= idle <= 1",
            " r9cap: + 1 fixed + 1 free + 1 neg + 1 x3rd + 1 a_b + 1 a_b_5 <= 10",
            " r9cap_1: + 1 free - 1 on >= -4",
            "Binary",
            " on",
        ):
            assert line in lines

    def test_clean_names_are_unique(self):
        # the third name once became "a_2", the first one's name
        assert _clean_names(["a_2", "a", "a"], "x") == ["a_2", "a", "a_2_2"]
        assert _clean_names(["b", "b_3", "b_3_3", "b"], "x") == ["b", "b_3", "b_3_3", "b_3_3_3"]

    def test_exported_row_names_are_unique(self):
        variables = [VarRef(v, CONTINUOUS, 0.0, 1.0, f"x{v}") for v in range(2)]
        cons = [
            LinConstraint(((1.0, 0), (1.0, 1)), "<=", 1.5, name)
            for name in ("cap_2", "cap", "cap")
        ]
        milp = build_relaxation(build_problem(variables, cons, objective=[(1.0, 0)]))
        mps = export_milp(milp, "mps").splitlines()
        rows = mps[mps.index("ROWS") + 2 : mps.index("COLUMNS")]  # after " N  OBJ"
        lp = export_milp(milp, "lp").splitlines()
        named = lp[lp.index("Subject To") + 1 : lp.index("Bounds")]
        for names in ([r.split()[1] for r in rows], [r.split(":")[0].strip() for r in named]):
            assert names == ["cap_2", "cap", "cap_2_2"]


class TestBench:
    def test_batch_summary(self, tmp_path, capsys):
        paths = [
            str(_tiny_instance(tmp_path)),
            str(_tiny_instance(tmp_path, infeasible=True, name="inf.json")),
        ]
        out_json = tmp_path / "bench.json"
        code = main(["bench", *paths, "--json", str(out_json)])
        assert code == 0
        rows = json.loads(out_json.read_text())
        assert [row["instance"] for row in rows] == paths
        assert [row["rfe"]["status"] for row in rows] == ["Optimal", "Infeasible"]
        for row in rows:
            assert row["rfe"]["status"] == row["oracle"]["status"]
            if row["rfe"]["objective"] is None:
                assert row["oracle"]["objective"] is None
            else:
                assert row["rfe"]["objective"] == pytest.approx(
                    row["oracle"]["objective"], abs=1e-6
                )
        text = capsys.readouterr().out
        assert "mean rfe time" in text

    def test_json_counts_spatial_work(self, tmp_path):
        out_json = tmp_path / "bench.json"
        assert main(["bench", str(_tiny_instance(tmp_path)), "--json", str(out_json)]) == 0
        (row,) = json.loads(out_json.read_text())
        for eng in ("rfe", "oracle"):
            assert row[eng]["spatial_nodes"] >= row[eng]["subproblems"] - row[eng]["cells_screened"]
            assert row[eng]["cells_screened"] >= 0

    def test_mixed_statuses_preserved(self, tmp_path):
        ok = _tiny_instance(tmp_path)
        bad_dir = tmp_path / "d"
        bad_dir.mkdir()
        bad = _tiny_instance(bad_dir, infeasible=True)
        out_json = tmp_path / "bench.json"
        assert main(["bench", str(ok), str(bad), "--json", str(out_json)]) == 0
        rows = json.loads(out_json.read_text())
        assert rows[0]["rfe"]["status"] == "Optimal"
        assert rows[1]["rfe"]["status"] == "Infeasible"

    def test_engine_error_keeps_the_other_engines_row(self, s3_path, tmp_path):
        out_json = tmp_path / "bench.json"
        argv = ["bench", str(s3_path), "--engine", "rfe,oracle", "--json", str(out_json)]
        assert main(argv) == 0
        (row,) = json.loads(out_json.read_text())
        assert list(row["oracle"]) == ["error"]
        assert "exceeds enumeration limit" in row["oracle"]["error"]
        assert row["rfe"]["status"] == "Optimal"

    def test_unknown_engine_is_invalid_input(self, tmp_path, capsys):
        # once every name but "oracle" ran RFE, so "bogus" solved and exited 0
        out_json = tmp_path / "bench.json"
        path = str(_tiny_instance(tmp_path))
        code = main(["bench", path, "--engine", "rfe,bogus", "--json", str(out_json)])
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "'bogus'" in err
        assert out == "" and not out_json.exists()  # nothing loaded or solved


class TestBlasThreads:
    def test_cli_import_pins_one_thread(self):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(gridopt.__file__))
        code = f"import os, gridopt.cli; print([os.environ.get(k) for k in {names!r}])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == str(["1", "1", "1"])
