"""JSON configuration schema validation and object builders."""

import argparse
import copy
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
from maxbound.cli import _field_name, build_parser
from maxbound.config import (
    _OPTIMIZE_CFG_SCHEMA,
    CHECK_SPEC_SCHEMA,
    CONFIG_SCHEMA,
    _check_schema,
    grid_from_config,
    load_config,
    materials_from_config,
    problem_from_config,
)
from maxbound.errors import ConfigError
from maxbound.majorant import THEOREMS, ZERO_VARIANTS
from maxbound.problem import BUMPS


def _base_cfg():
    return {
        "grid": {"nx": 4, "ny": 4, "nz": 4, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                 "nt": 9, "T": 1.0},
        "case": {"name": "cavity_mode", "parameters": {"m": 1, "n": 1}},
    }


def test_load_config_accepts_dict_path_and_reports_error_location(tmp_path):
    cfg = load_config(_base_cfg())
    assert cfg["grid"]["nx"] == 4
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_base_cfg()))
    assert load_config(str(path))["case"]["name"] == "cavity_mode"

    bad = _base_cfg()
    bad["grid"]["nx"] = 1
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "grid" in err.value.path and "nx" in err.value.path


def test_unknown_keys_and_bad_enums_are_rejected():
    bad = _base_cfg()
    bad["surprise"] = 1
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = _base_cfg()
    bad["majorant"] = {"theorem": "T2"}
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = _base_cfg()
    bad["solver"] = {"method": "spectral"}
    with pytest.raises(ConfigError):
        load_config(bad)


def test_every_optimize_config_key_names_an_optimize_config_field():
    keys = _OPTIMIZE_CFG_SCHEMA["properties"]
    fields = {f.name for f in dataclasses.fields(mb.OptimizeConfig)}
    assert {_field_name(key) for key in keys} == fields


def test_each_schema_enum_is_its_source_list():
    # the schema restates no list: a theorem, variant, bump or optimize
    # mode added at its source is admitted by the config at once
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    optimize = next(a for a in subcommands.choices["certify"]._actions
                    if "--optimize" in a.option_strings)
    majorant = CONFIG_SCHEMA["properties"]["majorant"]["properties"]
    bump = CONFIG_SCHEMA["properties"]["perturbation"]["properties"]["bump"]
    assert majorant["theorem"]["enum"] == list(THEOREMS)
    assert majorant["zeroTermVariant"]["enum"] == list(ZERO_VARIANTS)
    assert majorant["optimize"]["enum"] == optimize.choices
    assert bump["enum"] == list(BUMPS)


def test_missing_file_and_invalid_json_are_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_grid_and_materials_builders():
    cfg = _base_cfg()
    cfg["materials"] = {
        "eps": {"kind": "scalar", "value": 2.0},
        "mu": {"kind": "diagonal", "values": [1.0, 2.0, 3.0]},
    }
    doc = load_config(cfg)
    grid = grid_from_config(doc)
    assert grid.nt == 9
    eps, mu = materials_from_config(doc, grid)
    assert eps.kind == "scalar" and eps.lambda_max == 2.0
    assert mu.kind == "diagonal" and mu.lambda_max == 3.0


def test_material_spec_errors_carry_their_location():
    cfg = _base_cfg()
    cfg["materials"] = {"eps": {"kind": "scalar"}}
    doc = load_config(cfg)
    with pytest.raises(ConfigError) as err:
        materials_from_config(doc, grid_from_config(doc))
    assert "eps" in err.value.path


def test_problem_builder_assembles_case_sources():
    doc = load_config(_base_cfg())
    p, case = problem_from_config(doc)
    assert case.name == "cavity_mode"
    assert p.grid.nx == 4
    # source-free standing mode: K is identically zero
    assert max(abs(c).max() for c in p.K.node(4).components()) == 0.0


# A config and a check spec that set every key their schemas name.
_FULL_CONFIG = {
    "grid": {"nx": 4, "ny": 5, "nz": 6, "lx": 1.0, "ly": 2, "lz": 0.5, "nt": 9, "T": 1.0},
    "materials": {"eps": {"kind": "scalar", "value": 2.0},
                  "mu": {"kind": "diagonal", "values": [1.0, 2.0, 3.0]}},
    "case": {"name": "cavity_mode", "parameters": {"m": 1, "n": 2}},
    "perturbation": {"bump": "poly_t2", "delta": 0.01},
    "solver": {"method": "leapfrog", "cfl": 0.5},
    "majorant": {"theorem": "T5", "rho": 0.5, "gamma": 1.0, "zeroTermVariant": "z_hat",
                 "optimize": "full",
                 "optimizeConfig": {"gammaBracket": [0.1, 10.0], "cgMaxIter": 50,
                                    "cgTol": 1e-8, "sweeps": 2}},
    "verify": {"levels": 2},
}
_FULL_SPEC = {
    "cases": [
        {"name": "a", "phi": {"kind": "constant", "value": 1.0},
         "psi": {"kind": "sin", "amplitude": 1.0, "frequency": 2.0, "offset": 0.0},
         "u0": 0.0, "T": 1.0, "nt": 101, "tol": 1e-6, "injectViolation": False},
        {"phi": {"kind": "linear", "slope": -1, "offset": 2}, "psi": {"kind": "constant"}},
    ],
}


def _oracle(schema):
    """The jsonschema validator load_config used to run: draft 2020-12, with
    an integer that must be an int (9.0 is not)."""
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    return jsonschema.validators.extend(base, type_checker=base.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))(schema)


def _places(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _places(child, path + (key,))


_FINITE = st.floats(-3.0, 12.0, allow_nan=False, allow_infinity=False)
_BOUNDARIES = [0, 0.0, 1, 1.0, 2, 2.0, 3, 3.0, 4, -1, 0.5, 1e-300, 1e300, -1e300]
_VALUES = st.one_of(
    st.booleans(), st.none(), st.sampled_from(["", "x", "T5", "scalar", "zero"]),
    st.integers(-3, 12), _FINITE, st.sampled_from(_BOUNDARIES),
    st.lists(st.one_of(st.integers(-1, 3), _FINITE, st.booleans()), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "value", "x"]), st.integers(0, 2), max_size=2))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw, doc):
    """doc with one to three of its places deleted, given unknown keys, cut
    short (a list), or given another value: of another kind, or, for a
    number, 9 for 9.0 and back or a value at or beyond a schema bound."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["delete", "add", "cut", "number", "value"]))
        kind = {"add": dict, "cut": list, "number": (int, float)}.get(how, object)
        places = [path for path in _places(doc)
                  if (path or how == "add") and isinstance(_at(doc, path), kind)]
        if not places:
            continue
        path = draw(st.sampled_from(places))
        target = _at(doc, path)
        if how == "add":
            for key in draw(st.lists(st.sampled_from(["surprise", "Nx", "values", "0", "zz"]),
                                     min_size=1, max_size=3)):
                target[key] = draw(_VALUES)
        elif how == "cut":
            del target[draw(st.integers(0, len(target))):]
        else:
            parent = _at(doc, path[:-1])
            if how == "delete":
                del parent[path[-1]]
            elif how == "number":
                twin = float(target) if isinstance(target, int) else int(target)
                parent[path[-1]] = draw(st.sampled_from([twin, *_BOUNDARIES]))
            else:
                parent[path[-1]] = draw(_VALUES)
    return doc


def _first_violation(schema, doc):
    """(path, message) of load_config's ConfigError for doc, None if valid."""
    try:
        load_config(doc, schema)
    except ConfigError as err:
        return err.path, str(err)
    return None


def _oracle_first_violation(schema, doc):
    errors = sorted(_oracle(schema).iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "$" + "".join(f"[{p!r}]" for p in errors[0].absolute_path), errors[0].message


_DOCS = ((CONFIG_SCHEMA, _FULL_CONFIG), (CHECK_SPEC_SCHEMA, _FULL_SPEC))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_checker_agrees_with_jsonschema_on_finite_documents(data):
    for schema, valid in _DOCS:
        doc = data.draw(_mutated(valid))
        assert _first_violation(schema, doc) == _oracle_first_violation(schema, doc)


def test_the_checker_agrees_with_jsonschema_on_every_number_at_every_bound():
    for schema, valid in _DOCS:
        for path in _places(valid):
            target = _at(valid, path)
            if not isinstance(target, (int, float)) or isinstance(target, bool):
                continue
            twin = float(target) if isinstance(target, int) else int(target)
            for value in [twin, True, *_BOUNDARIES]:
                doc = copy.deepcopy(valid)
                _at(doc, path[:-1])[path[-1]] = value
                assert _first_violation(schema, doc) == _oracle_first_violation(schema, doc)


def test_the_full_documents_are_valid():
    assert load_config(copy.deepcopy(_FULL_CONFIG)) == _FULL_CONFIG
    assert load_config(copy.deepcopy(_FULL_SPEC), CHECK_SPEC_SCHEMA) == _FULL_SPEC


# an int that no double holds has no float value either
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   pytest.param(-10**400, id="int-beyond-double")])
@pytest.mark.parametrize("schema, full, path", [
    (CONFIG_SCHEMA, _FULL_CONFIG, ("majorant", "rho")),
    (CONFIG_SCHEMA, _FULL_CONFIG, ("majorant", "gamma")),
    (CONFIG_SCHEMA, _FULL_CONFIG, ("grid", "lx")),
    (CONFIG_SCHEMA, _FULL_CONFIG, ("perturbation", "delta")),
    (CHECK_SPEC_SCHEMA, _FULL_SPEC, ("cases", 0, "u0")),
    (CHECK_SPEC_SCHEMA, _FULL_SPEC, ("cases", 0, "T")),
    (CHECK_SPEC_SCHEMA, _FULL_SPEC, ("cases", 1, "phi", "slope")),
    (CHECK_SPEC_SCHEMA, _FULL_SPEC, ("cases", 0, "tol")),
])
def test_a_non_finite_number_is_a_config_error_at_its_path(schema, full, path, value):
    doc = copy.deepcopy(full)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    where, message = _first_violation(schema, doc)
    assert where == "$" + "".join(f"[{p!r}]" for p in path)
    assert message == f"{value!r} is not a finite number"


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"^x": {"type": "number"}}},
    {"type": "object", "additionalProperties": True},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "object", "properties": {"a": {"type": "number", "multipleOf": 2}}},
    {"type": "array", "items": {"type": "array", "uniqueItems": True}},
    {"type": "null"},
])
def test_a_schema_keyword_the_checker_does_not_implement_is_refused(schema):
    with pytest.raises(ValueError, match="not supported"):
        _check_schema(schema)


@pytest.mark.parametrize("values", [[], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0],
                                    [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                                    [1.0, True, 3.0], [1.0, 2.0, "3"], [0, 2.0, 3.0],
                                    [1.0, 2.0, 3.0, -4.0], "1 2 3"])
def test_the_checker_agrees_with_jsonschema_on_diagonal_material_values(values):
    doc = copy.deepcopy(_FULL_CONFIG)
    doc["materials"] = {"eps": {"kind": "diagonal", "values": values}}
    assert _first_violation(CONFIG_SCHEMA, doc) == _oracle_first_violation(CONFIG_SCHEMA, doc)
    assert (_first_violation(CONFIG_SCHEMA, doc) is None) == (values == [1.0, 2.0, 3.0])
