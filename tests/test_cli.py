"""Command-line interface: exit codes, determinism, reports, exports."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridopt
from gridopt import instancefile
from gridopt.cli import main, make_parser
from gridopt.gridtab import make_grid, make_table
from gridopt.model import (
    CONTINUOUS,
    InterpolantDef,
    LinConstraint,
    VarRef,
    build_problem,
)

from _oracles import problem_size
from _random_instances import cut_instance


@pytest.fixture
def s1_path(tmp_path):
    path = tmp_path / "s1.json"
    assert main(["generate", "--scenario", "S1", "--seed", "7", "-o", str(path)]) == 0
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

    def test_time_limit_exit_code(self, s1_path, tmp_path):
        rep = tmp_path / "r.json"
        code = main(
            ["solve", str(s1_path), "--time-limit", "0.0", "--report", str(rep)]
        )
        assert code == 4
        assert json.loads(rep.read_text())["status"] == "TimeLimit"

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


class TestExport:
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

    def test_unsupported_format(self, s1_path, tmp_path):
        code = main(
            ["export", str(s1_path), "--format", "xlsx", "-o", str(tmp_path / "x")]
        )
        assert code == 2


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
