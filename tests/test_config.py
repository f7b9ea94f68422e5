"""JSON configuration schema validation and object builders."""

import dataclasses
import json

import pytest

import maxbound as mb
from maxbound.cli import _field_name
from maxbound.config import (
    _OPTIMIZE_CFG_SCHEMA,
    grid_from_config,
    load_config,
    materials_from_config,
    problem_from_config,
)
from maxbound.errors import ConfigError


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
