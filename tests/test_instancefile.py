"""Instance serialization round-trips and validation."""

import json

import numpy as np
import pytest

from gridopt import instancefile
from gridopt.gridtab import make_grid, make_table
from gridopt.model import BINARY, CONTINUOUS, InterpolantDef, VarRef, build_problem
from gridopt.opo import build_opo_instance, get_scenario

from _random_instances import random_instance


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_instance_round_trip(self, seed):
        ir = random_instance(seed)
        doc = instancefile.ir_to_dict(ir, seed=seed)
        ir2 = instancefile.ir_from_dict(json.loads(json.dumps(doc)))
        assert ir2.variables == ir.variables
        assert ir2.constraints == ir.constraints
        assert ir2.objective == ir.objective
        assert ir2.maximize == ir.maximize
        for a, b in zip(ir.interpolants, ir2.interpolants):
            assert a.inputs == b.inputs
            assert a.output == b.output
            assert a.activation == b.activation
            np.testing.assert_array_equal(a.table.values, b.table.values)
            for ax, bx in zip(a.table.grid.axes, b.table.grid.axes):
                np.testing.assert_array_equal(ax, bx)

    def test_canonical_serialization_identity(self, tmp_path):
        ir = build_opo_instance(get_scenario("S1"), 5).ir
        p1 = tmp_path / "a.json"
        instancefile.save(str(p1), ir, seed=5)
        ir2, doc = instancefile.load(str(p1))
        p2 = tmp_path / "b.json"
        with open(p2, "w") as fh:
            fh.write(instancefile.dumps(instancefile.ir_to_dict(ir2, scenario=doc["scenario"], seed=doc["seed"])))
        assert p1.read_text() == p2.read_text()


def _tables_doc():
    """Desk S2 seed 0: four tables; well 0's lift curve is table 0, well 1's table 2."""
    return instancefile.ir_to_dict(build_opo_instance(get_scenario("S2", "desk"), 0).ir)


def _binary_first_doc():
    """Variable 0 is a binary that no interpolant reads as its activation."""
    g = make_grid([[0.0, 1.0]])
    ir = build_problem(
        [VarRef(0, BINARY, 0, 1), VarRef(1, CONTINUOUS, 0, 1), VarRef(2, CONTINUOUS, -5, 5)],
        [],
        [InterpolantDef(make_table(g, [0.0, 1.0]), (1,), 2)],
        objective=[(1.0, 2), (1.0, 0)],
    )
    return instancefile.ir_to_dict(ir)


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


MALFORMED = {
    # each of these once loaded as another problem, or as the same one
    # from a reference that is not an integer
    "negative table": (_tables_doc, _set(("interpolants", 2, "table"), -4)),
    "table past the end": (_tables_doc, _set(("interpolants", 2, "table"), 4)),
    "bool table": (_tables_doc, _set(("interpolants", 3, "table"), True)),
    "fractional inputs": (_tables_doc, _set(("interpolants", 0, "inputs"), [0.7, 1.7, 2.7])),
    "fractional output": (_tables_doc, _set(("interpolants", 0, "output"), 3.5)),
    "fractional objective id": (_tables_doc, _set(("objective", 0, 1), 2.9)),
    "fractional variable id": (_tables_doc, _set(("variables", 0, "id"), 0.25)),
    "fractional term id": (_tables_doc, _set(("constraints", 0, "terms", 0, 1), 0.5)),
    "false activation": (_binary_first_doc, _set(("interpolants", 0, "activation"), False)),
    "string maximize": (_binary_first_doc, _set(("maximize",), "false")),
    "word maximize": (_binary_first_doc, _set(("maximize",), "no")),
    "integer maximize": (_binary_first_doc, _set(("maximize",), 1)),
}


class TestValidation:
    def test_missing_version(self):
        doc = instancefile.ir_to_dict(random_instance(0))
        del doc["version"]
        with pytest.raises(ValueError, match="version"):
            instancefile.ir_from_dict(doc)

    def test_wrong_version(self):
        doc = instancefile.ir_to_dict(random_instance(0))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            instancefile.ir_from_dict(doc)

    def test_wrong_ordering_tag(self):
        ir = random_instance(0)
        doc = instancefile.ir_to_dict(ir)
        if doc["tables"]:
            doc["tables"][0]["ordering"] = "first-axis-fastest"
            with pytest.raises(ValueError, match="ordering"):
                instancefile.ir_from_dict(doc)

    def test_objective_sense_preserved(self):
        ir = build_opo_instance(get_scenario("S1"), 2).ir
        assert ir.maximize
        doc = instancefile.ir_to_dict(ir)
        # the file stores the objective in the user's (maximization) sense
        stored = {v: c for c, v in doc["objective"]}
        internal = {v: c for c, v in ir.objective}
        for v, c in stored.items():
            assert internal[v] == -c
        ir2 = instancefile.ir_from_dict(doc)
        assert ir2.objective == ir.objective

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_reference_rejected(self, case):
        make, edit = MALFORMED[case]
        doc = json.loads(json.dumps(make()))
        edit(doc)
        with pytest.raises(ValueError):
            instancefile.ir_from_dict(doc)

    @pytest.mark.parametrize("make", [_tables_doc, _binary_first_doc])
    def test_well_formed_references_load(self, make):
        doc = make()
        ir = instancefile.ir_from_dict(json.loads(json.dumps(doc)))
        assert instancefile.ir_to_dict(ir) == doc
