"""JSON experiment configuration: strict schema and object builders."""

from __future__ import annotations

import json
from typing import Union

import jsonschema

from .errors import ConfigError
from .fields import GridSpec, MaterialField
from .problem import assemble_problem, get_case

_MATERIAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["scalar", "diagonal", "full"]},
        "value": {"type": "number", "exclusiveMinimum": 0},
        "values": {"type": "array"},
    },
    "required": ["kind"],
}

_OPTIMIZE_CFG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "gammaBracket": {"type": "array", "items": {"type": "number"}, "minItems": 2},
        "rhoGrid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "cgMaxIter": {"type": "integer", "minimum": 1},
        "cgTol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "yInit": {"enum": ["zero", "muInvCurlE"]},
        "sweeps": {"type": "integer", "minimum": 0},
        "gammaTol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "gammaPieces": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid"],
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["nx", "ny", "nz", "lx", "ly", "lz", "nt", "T"],
            "properties": {
                "nx": {"type": "integer", "minimum": 2},
                "ny": {"type": "integer", "minimum": 2},
                "nz": {"type": "integer", "minimum": 2},
                "lx": {"type": "number", "exclusiveMinimum": 0},
                "ly": {"type": "number", "exclusiveMinimum": 0},
                "lz": {"type": "number", "exclusiveMinimum": 0},
                "nt": {"type": "integer", "minimum": 2},
                "T": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "materials": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"eps": _MATERIAL_SCHEMA, "mu": _MATERIAL_SCHEMA},
        },
        "case": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "parameters": {"type": "object"},
            },
        },
        "perturbation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["bump", "delta"],
            "properties": {
                "bump": {"type": "string"},
                "delta": {"type": "number"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["leapfrog", "exact"]},
                "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "trackEnergy": {"type": "boolean"},
            },
        },
        "majorant": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theorem": {"enum": ["T1", "T3", "T4", "T5"]},
                "rho": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "zeroTermVariant": {"enum": ["z", "z_tilde", "z_hat"]},
                "optimize": {"enum": ["none", "params", "full"]},
                "optimizeConfig": _OPTIMIZE_CFG_SCHEMA,
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "levels": {"type": "integer", "minimum": 2, "maximum": 3},
            },
        },
    },
}


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_COEFFICIENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": dict(
        {key: _NUMBER for key in ("value", "slope", "offset", "amplitude", "frequency")},
        kind={"enum": ["constant", "linear", "sin"]},
    ),
}

CHECK_SPEC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["phi", "psi"],
                "properties": {
                    "name": {"type": "string"},
                    "phi": _COEFFICIENT_SCHEMA,
                    "psi": _COEFFICIENT_SCHEMA,
                    "u0": _NUMBER,
                    "T": _POSITIVE,
                    "nt": {"type": "integer", "minimum": 2},
                    "tol": _POSITIVE,
                    "injectViolation": {"type": "boolean"},
                },
            },
        },
    },
}


def load_config(source, schema=CONFIG_SCHEMA):
    """Read a JSON document from a path (or take a dict) and validate it
    against schema, the run config by default or CHECK_SPEC_SCHEMA; the first
    violation is a ConfigError at its JSON path."""
    if isinstance(source, dict):
        doc = source
    else:
        origin = str(source)
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", origin)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", origin)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "$" + "".join(
            f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in err.absolute_path
        )
        raise ConfigError(f"{err.message}", path)
    return doc


def grid_from_config(cfg):
    g = cfg["grid"]
    return GridSpec(g["nx"], g["ny"], g["nz"], g["lx"], g["ly"], g["lz"], g["nt"], g["T"])


def _material_from_spec(spec, grid, which):
    kind = spec["kind"]
    try:
        if kind == "scalar":
            if "value" not in spec:
                raise ConfigError("scalar material needs 'value'", f"$['materials']['{which}']")
            return MaterialField.scalar(grid, spec["value"])
        if "values" not in spec:
            raise ConfigError(f"{kind} material needs 'values'", f"$['materials']['{which}']")
        if kind == "diagonal":
            vals = spec["values"]
            if len(vals) != 3:
                raise ConfigError("diagonal material needs 3 values", f"$['materials']['{which}']")
            return MaterialField.diagonal(grid, *[float(v) for v in vals])
        return MaterialField.full(grid, spec["values"])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid material: {exc}", f"$['materials']['{which}']")


def materials_from_config(cfg, grid):
    block = cfg.get("materials", {})
    eps = _material_from_spec(block["eps"], grid, "eps") if "eps" in block else None
    mu = _material_from_spec(block["mu"], grid, "mu") if "mu" in block else None
    return eps, mu


def case_from_config(cfg):
    block = cfg.get("case")
    if block is None:
        return None
    return get_case(block["name"], **block.get("parameters", {}))


def problem_from_config(cfg):
    """Build (ProblemData, case-or-None) from a validated config dict."""
    grid = grid_from_config(cfg)
    eps, mu = materials_from_config(cfg, grid)
    case = case_from_config(cfg)
    p = assemble_problem(grid, eps=eps, mu=mu, case=case)
    return p, case
