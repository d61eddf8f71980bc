"""Source checks that a linter would make: no unused module-level imports, no
import inside a function or class, no private function or method that
nothing in ``src/gridopt`` calls, no dataclass field and no module-level
constant that nothing reads, no exception class that nothing raises, no
environment read outside the command line, no clock read outside the
simplex, rfe and the command line, no kept simplex tableau outside the two
trees, no write into an LP's coefficient matrix, one simplex tableau per LP
solve, one start path in the simplex, one pivot site in the simplex, one row
screen in spatial, one table of corner bits, in gridtab, and one dual bound,
in the simplex, read by spatial's dual screen only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "gridopt").glob("*.py"))
READERS = SRC + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module loads, names inside string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_string_annotations_count_as_use():
    tree = ast.parse("from x import A, B\ndef f(a: 'A') -> 'list[B]': pass\n")
    assert {"A", "B"} <= _used_names(tree)


def _nested_imports(path: Path) -> list[str]:
    """Imports inside a function or class body, which run on every call or
    hide a dependency from the top of the module."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = {
        node.lineno
        for scope in ast.walk(tree) if isinstance(scope, scopes)
        for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_imports_are_at_module_level():
    assert [line for path in SRC for line in _nested_imports(path)] == []


def test_nested_imports_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\n"
        "def f():\n"
        "    import math\n"
        "    for _ in range(2):\n"
        "        from re import sub\n"
        "class C:\n"
        "    import io\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert _nested_imports(mod) == ["mod.py:3", "mod.py:5", "mod.py:7"]


def _private_defs(tree: ast.Module):
    """Module-level functions and methods of module-level classes whose name
    starts with one underscore."""
    defs = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in members:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                d.name.startswith("_") and not d.name.startswith("__")
            ):
                defs.append(d)
    return defs


def _uncalled_private(paths: list[Path]) -> list[str]:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    refs = []  # (path, line, name) of every name loaded and attribute read
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    uncalled = []
    for path, tree in trees.items():
        for d in _private_defs(tree):
            outside = [
                r for r in refs
                if r[2] == d.name and not (r[0] == path and d.lineno <= r[1] <= d.end_lineno)
            ]
            if not outside:
                uncalled.append(f"{path.name}:{d.lineno} {d.name}")
    return uncalled


def test_every_private_function_is_referenced():
    assert _uncalled_private(SRC) == []


def test_self_reference_does_not_count(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def _used(): pass\n"
        "def _recursive(k): return _recursive(k - 1)\n"
        "class C:\n"
        "    def _method(self): return self._method()\n"
        "    def __init__(self): _used()\n"
    )
    assert _uncalled_private([mod]) == ["mod.py:2 _recursive", "mod.py:4 _method"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _unread_fields(defining: list[Path], reading: list[Path]) -> list[str]:
    """Fields of the dataclasses in ``defining`` that no attribute read in
    ``reading`` names."""
    reads = {
        node.attr
        for path in reading
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in defining:
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for st in cls.body:
                if isinstance(st, ast.AnnAssign) and st.target.id not in reads:
                    unread.append(f"{path.name} {cls.name}.{st.target.id}")
    return unread


def test_every_dataclass_field_is_read():
    assert _unread_fields(SRC, READERS) == []


def test_a_field_only_written_is_unread(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    read: int\n"
        "    written: int\n"
        "    def f(self): return self.read\n"
        "class Plain:\n"
        "    other: int\n"
        "def g(p): p.written = 1\n"
    )
    assert _unread_fields([mod], [mod]) == ["mod.py P.written"]


def _unread_constants(defining: list[Path], reading: list[Path]) -> list[str]:
    """Module-level UPPER_CASE names assigned in ``defining`` that no name or
    attribute loaded in ``reading`` names."""
    reads = set()
    for path in reading:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    unread = []
    for path in defining:
        for st in ast.parse(path.read_text(), filename=str(path)).body:
            targets = st.targets if isinstance(st, ast.Assign) else [getattr(st, "target", None)]
            for target in targets:
                for name in ast.walk(target) if target is not None else ():
                    if isinstance(name, ast.Name) and name.id.isupper() and name.id not in reads:
                        unread.append(f"{path.name} {name.id}")
    return unread


def test_every_constant_is_read():
    assert _unread_constants(SRC, READERS) == []


def test_a_constant_only_assigned_is_unread(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import other\n"
        "READ = 1\n"
        "QUALIFIED = 2\n"
        "UNREAD: int = 3\n"
        "PAIR_A, PAIR_B = 4, 5\n"
        "lower = 6\n"
        "def f(): return READ + other.QUALIFIED + PAIR_B + lower\n"
        "def g(): UNREAD = READ\n"
    )
    assert _unread_constants([mod], [mod]) == ["mod.py UNREAD", "mod.py PAIR_A"]


def _unraised_errors(errors: Path, paths: list[Path]) -> list[str]:
    """Exception classes defined in ``errors`` that no ``raise`` in ``paths``
    names, the base class ``GridOptError`` excepted."""
    defined = [
        node.name for node in ast.parse(errors.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name != "GridOptError"
    ]
    raised = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [name for name in defined if name not in raised]


def test_every_error_is_raised():
    errors = ROOT / "src" / "gridopt" / "errors.py"
    assert _unraised_errors(errors, SRC) == []


def test_an_error_only_defined_is_unraised(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class GridOptError(Exception): pass\n"
        "class Raised(GridOptError): pass\n"
        "class Qualified(GridOptError): pass\n"
        "class Unraised(GridOptError): pass\n"
    )
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from errors import Raised, Unraised\n"
        "import errors\n"
        "def f(): raise Raised('x')\n"
        "def g(): raise errors.Qualified\n"
        "def h(): return Unraised\n"
    )
    assert _unraised_errors(errors, [errors, mod]) == ["Unraised"]


def _environment_reads(paths: list[Path]) -> list[str]:
    """Places in ``paths`` that name ``os.environ`` or ``os.getenv``, as an
    attribute of ``os`` or imported from it."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(a.name in ("environ", "getenv") for a in node.names)
            ):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_the_command_line_reads_the_environment():
    """A switch read from the environment stays off the solve path."""
    assert _environment_reads([p for p in SRC if p.name != "cli.py"]) == []


def test_environment_reads_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\n"
        "from os import getenv\n"
        "A = os.environ.get('A')\n"
        "B = os.getenv('B')\n"
        "C = os.path.join('c')\n"
    )
    assert _environment_reads([mod]) == ["mod.py:2", "mod.py:3", "mod.py:4"]


def _clock_reads(paths: list[Path]) -> list[str]:
    """Places in ``paths`` that import ``time``, whole or in part."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "time" for a in node.names)) or (
                isinstance(node, ast.ImportFrom) and node.module == "time"
            ):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_the_simplex_rfe_and_command_line_read_the_clock():
    """One deadline: ``rfe`` turns the time limit into it and checks it
    between rounds and cells, the simplex stops every LP at it, and bnb and
    spatial only pass it on. The command line reads the clock to time a run."""
    allowed = ("cli.py", "rfe.py", "simplex.py")
    assert _clock_reads([p for p in SRC if p.name not in allowed]) == []


def test_clock_reads_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os, time\n"
        "from time import monotonic\n"
        "import time as clock\n"
        "import datetime\n"
        "def f():\n"
        "    from time import perf_counter\n"
        "    return os.times()\n"
    )
    assert _clock_reads([mod]) == ["mod.py:1", "mod.py:2", "mod.py:3", "mod.py:6"]


def _callee(call: ast.Call) -> str | None:
    """The name a call is made by, plain or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(path: Path, function: str, callee: str) -> int:
    """Calls to ``callee``, by name or as an attribute, in the body of the
    module-level ``function``, nested functions included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    calls = 0
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            calls += _callee(node) == callee
    return calls


@pytest.mark.parametrize("module, function", [("bnb", "solve_milp"), ("spatial", "solve_box_nlp")])
def test_each_tree_solves_its_node_lps_in_one_place(module, function):
    """Every node of the tree, its root included, takes one path from LP solve to heap."""
    assert _calls(ROOT / "src" / "gridopt" / f"{module}.py", function, "solve_lp") == 1


def _readers(path: Path, name: str) -> list[str]:
    """The module-level functions whose body, nested functions included,
    loads ``name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for n in ast.walk(top)
        )
    ]


def test_spatial_screens_cells_and_pinned_steps_with_one_function():
    """A row screen reads bounds and right-hand sides ``FEAS_TOL`` wider, so
    that it rejects only what the simplex would call infeasible. One function
    in spatial does, and both the cell's root and every pinned step call it."""
    path = ROOT / "src" / "gridopt" / "spatial.py"
    assert _readers(path, "FEAS_TOL") == ["_rows_exclude_box"]
    for caller in ("solve_box_nlp", "_pinned_step"):
        assert _calls(path, caller, "_rows_exclude_box") == 1


def test_name_readers_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "TOL = 1\n"
        "def direct(x): return x + TOL\n"
        "def nested(x):\n"
        "    def inner(): return TOL\n"
        "    return inner\n"
        "def writes(x):\n"
        "    TOL = 2\n"
        "    return x\n"
        "def attribute(m): return m.TOL\n"
    )
    assert _readers(mod, "TOL") == ["direct", "nested"]


def test_solve_lp_calls_are_counted(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import s\n"
        "from s import solve_lp\n"
        "def tree(lp):\n"
        "    solve_lp(lp)\n"
        "    def inner(): return solve_lp(lp, basis=None)\n"
        "    return s.solve_lp(lp), solve_lp\n"
        "def other(lp): return solve_lp(lp)\n"
    )
    assert _calls(mod, "tree", "solve_lp") == 3


def test_each_lp_solve_builds_one_tableau():
    """A cold start and the fallback after a failed warm start both start the
    one tableau from a basis: the slack basis is a start over no row."""
    assert _calls(ROOT / "src" / "gridopt" / "simplex.py", "solve_lp", "_Tableau") == 1


def test_tableau_constructions_are_counted(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import simplex\n"
        "from simplex import _Tableau\n"
        "def solve_lp(lp):\n"
        "    tab = _Tableau(lp)\n"
        "    if lp.warm:\n"
        "        tab = simplex._Tableau(lp)\n"
        "    return tab, _Tableau, _Tableau.refactorize(tab)\n"
        "def other(lp): return _Tableau(lp)\n"
    )
    assert _calls(mod, "solve_lp", "_Tableau") == 2


def _call_sites(path: Path, callee: str, cost_none: bool = False) -> list[str]:
    """The top-level function (or class) of each call to ``callee`` in the
    module, once per call; with ``cost_none``, only the calls that pass the
    constant None as the second argument or as ``cost``."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call) or _callee(node) != callee:
                continue
            cost = node.args[1:2] + [k.value for k in node.keywords if k.arg == "cost"]
            if not cost_none or any(isinstance(a, ast.Constant) and a.value is None for a in cost):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_the_simplex_has_one_start_path():
    """A solve, cold or warm, runs the dual simplex from its start basis, and
    phase 1 from the slack basis only when that fails: one call site each."""
    path = ROOT / "src" / "gridopt" / "simplex.py"
    assert _call_sites(path, "_dual_iterate") == ["solve_lp"]
    assert _call_sites(path, "_iterate", cost_none=True) == ["solve_lp"]


def test_second_start_paths_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import simplex\n"
        "def solve_lp(tab, cost):\n"
        "    if simplex._dual_iterate(tab, cost, 9) is None:\n"
        "        _iterate(tab, None, 9)\n"
        "    return _iterate(tab, cost, 9)\n"
        "def cold(tab, cost):\n"
        "    _dual_iterate(tab, cost, 9)\n"
        "    return _iterate(tab, cost=None, max_iter=9)\n"
        "class Phase1:\n"
        "    def run(self, tab): return _iterate(tab, None, 9)\n"
    )
    assert _call_sites(mod, "_dual_iterate") == ["solve_lp", "cold"]
    assert _call_sites(mod, "_iterate", cost_none=True) == ["solve_lp", "cold", "Phase1"]
    assert _call_sites(mod, "_iterate") == ["solve_lp", "solve_lp", "cold", "Phase1"]


def _tableau_passers(paths: list[Path]) -> list[str]:
    """``module.function`` (``module.<module>`` at module level) of every call
    to ``solve_lp`` that passes ``tableaus``, by keyword or as the third
    positional argument."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if _callee(node) == "solve_lp" and (
                    len(node.args) > 2 or any(k.arg == "tableaus" for k in node.keywords)
                ):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_the_two_trees_keep_tableaus():
    """Each tree passes its node LPs one dict of kept tableaus. A kept tableau
    is corrected for the columns of A that changed since it was kept, and a
    pinned step or a relaxation LP has no use for one."""
    assert _tableau_passers(SRC) == ["bnb.solve_milp", "spatial.solve_box_nlp"]


def test_tableau_passers_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import s\n"
        "def plain(lp, b): return s.solve_lp(lp, basis=b)\n"
        "def keyword(lp, d): return s.solve_lp(lp, tableaus=d)\n"
        "class C:\n"
        "    def positional(self, lp, b, d): return solve_lp(lp, b, d)\n"
        "solve_lp(None, None, {})\n"
    )
    assert _tableau_passers([mod]) == ["mod.keyword", "mod.C", "mod.<module>"]


def _writes_into_a(paths: list[Path]) -> list[str]:
    """``module.function`` of every assignment, plain or augmented, into a
    subscript of an attribute named ``A`` (``lp.A[...] = ...``)."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in ast.walk(target):
                        if (
                            isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Attribute)
                            and t.value.attr == "A"
                        ):
                            found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_no_lp_coefficient_matrix_is_written_in_place():
    """A kept tableau holds its LP's A by reference and is corrected only for
    the columns that differ from it: a write into that A would leave the
    tableau stale with nothing to show it."""
    assert _writes_into_a(SRC) == []


def test_writes_into_a_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def plain(lp): lp.A[0, 1] = 2.0\n"
        "def read(lp, A): A[0] = lp.A[0]\n"
        "def augmented(lp): lp.A[:, 0] *= 2.0\n"
        "class C:\n"
        "    def unpacked(self): self.lp.A[0], x = 1.0, 2.0\n"
        "lp.B[0] = lp.A\n"
    )
    assert _writes_into_a([mod]) == ["mod.plain", "mod.augmented", "mod.C"]


def _references(path: Path, name: str) -> list[str]:
    """Each place in the module that names ``name``, as ``"<site> <form>"``:
    the site is the top-level function, class, ``Class.method`` or
    ``<module>`` it sits in, and the form is the expression that names it
    (``mod.name`` or ``name``), or the import that binds it."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.ClassDef):
            scopes = [
                (f"{top.name}.{m.name}" if isinstance(m, ast.FunctionDef) else top.name, m)
                for m in top.body
            ]
        else:
            scopes = [(getattr(top, "name", "<module>"), top)]
        for site, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and node.attr == name:
                    found.append(f"{site} {ast.unparse(node)}")
                elif isinstance(node, ast.Name) and node.id == name:
                    found.append(f"{site} {name}")
                elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
                    found.append(f"{site} from {node.module} import {name}")
    return found


def test_the_simplex_pivots_at_one_site():
    """Every tableau pivot goes through ``_Tableau.pivot``, which reaches the
    kernel as an attribute of ``_kernels``: the name perfbench's tracer wraps
    to time and count pivots."""
    path = ROOT / "src" / "gridopt" / "simplex.py"
    assert _references(path, "tableau_pivot") == ["_Tableau.pivot _kernels.tableau_pivot"]


def test_second_pivot_sites_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import _kernels\n"
        "from _kernels import tableau_pivot\n"
        "class Tab:\n"
        "    step = _kernels.tableau_pivot\n"
        "    def pivot(self, r, j): _kernels.tableau_pivot(self.T, r, j)\n"
        "def fast(T):\n"
        "    tableau_pivot(T, 0, 0)\n"
        "    return _kernels.other(T)\n"
    )
    assert _references(mod, "tableau_pivot") == [
        "<module> from _kernels import tableau_pivot",
        "Tab _kernels.tableau_pivot",
        "Tab.pivot _kernels.tableau_pivot",
        "fast tableau_pivot",
    ]


def _bit_reads(paths: list[Path]) -> list[str]:
    """``module.function`` of every right shift, plain or augmented: the
    operation that reads the bits of an index."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_gridtab_builds_the_corner_bits():
    """Corner b of a cell or a box is at its upper end on axis j when bit j
    of b is set. ``gridtab.corner_bits`` is the one table of those bits: the
    evaluator and spatial's box writer read it from there. The other bit
    read enumerates the binary assignments, one mask at a time."""
    assert _bit_reads(SRC) == ["gridtab.corner_bits", "rfe._enumerate_fixings"]


def test_bit_reads_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "def plain(k): return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1\n"
        "def shifted_left(k): return 1 << k\n"
        "class C:\n"
        "    def augmented(self, b):\n"
        "        b >>= 1\n"
        "        return b\n"
        "BITS = [(b >> 0) & 1 for b in range(4)]\n"
    )
    assert _bit_reads([mod]) == ["mod.plain", "mod.C", "mod.<module>"]


def _transposes_of_a(paths: list[Path]) -> list[str]:
    """``module.function`` of every transpose of a coefficient matrix named
    ``A``, plain or as an attribute (``A.T``, ``lp.A.T``): the product A^T y
    that prices rows into columns."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Attribute) and node.attr == "T"):
                    continue
                inner = node.value
                if (isinstance(inner, ast.Name) and inner.id == "A") or (
                    isinstance(inner, ast.Attribute) and inner.attr == "A"
                ):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_one_function_computes_the_dual_bound():
    """The projected Lagrangian bound y^T b + sum_j min(r_j lo_j, r_j hi_j),
    with r = c - A^T y and an explicit float-error term, is computed in
    ``simplex.dual_bound`` only, and spatial's dual screen in
    ``solve_box_nlp`` is its one caller."""
    assert _transposes_of_a(SRC) == ["simplex.dual_bound"]
    sites = {path.stem: _references(path, "dual_bound") for path in SRC}
    assert {stem: refs for stem, refs in sites.items() if refs} == {
        "spatial": ["<module> from simplex import dual_bound", "solve_box_nlp dual_bound"]
    }


def test_transposes_of_a_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "def plain(A, y): return A.T @ y\n"
        "def attribute(lp, y): return lp.obj - lp.A.T @ y\n"
        "def other(xs, B): return xs.T, B.T, np.abs(xs).T\n"
        "class C:\n"
        "    def method(self, y): return np.dot(self.lp.A.T, y)\n"
        "AT = np.eye(2).T\n"
    )
    assert _transposes_of_a([mod]) == ["mod.plain", "mod.attribute", "mod.C"]
