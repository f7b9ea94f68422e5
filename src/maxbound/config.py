"""JSON experiment configuration: strict schema and object builders."""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys

from .errors import ConfigError
from .fields import GridSpec, MaterialField
from .majorant import THEOREMS, ZERO_VARIANTS
from .problem import BUMPS, assemble_problem, get_case

# what certify optimizes: nothing, (gamma, rho), or (gamma, rho) and Y in turn
OPTIMIZE_MODES = ("none", "params", "full")

_MATERIAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["scalar", "diagonal"]},
        "value": {"type": "number", "exclusiveMinimum": 0},
        "values": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                   "minItems": 3, "maxItems": 3},
    },
    "required": ["kind"],
}

_OPTIMIZE_CFG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "gammaBracket": {"type": "array", "items": {"type": "number"},
                         "minItems": 2, "maxItems": 2},
        "cgMaxIter": {"type": "integer", "minimum": 1},
        "cgTol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "sweeps": {"type": "integer", "minimum": 0},
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
                "bump": {"enum": list(BUMPS)},
                "delta": {"type": "number"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["leapfrog", "exact"]},
                "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "majorant": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theorem": {"enum": list(THEOREMS)},
                "rho": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "zeroTermVariant": {"enum": list(ZERO_VARIANTS)},
                "optimize": {"enum": list(OPTIMIZE_MODES)},
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
            "minItems": 1,
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


def _real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _finite_number(v):
    return _real(v) and (isinstance(v, numbers.Integral) or math.isfinite(v))


# The JSON Schema types the schemas above name, with two departures from the
# standard: 9.0 is not an integer (a grid size or an iteration count must be
# 9), and nan, +-inf and an int beyond the range of a double are not numbers
# (json reads 1e999 as inf).
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: _finite_number(v) and abs(v) <= sys.float_info.max,
}

# keyword: (the test a number fails it by, the wording of the failure)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}

_KEYWORDS = {"type", "enum", *_BOUNDS, "required", "properties", "additionalProperties",
             "items", "minItems", "maxItems"}


def _check_schema(schema):
    """Refuse a schema that uses a keyword, a type or an additionalProperties
    other than False that _violations does not implement: it would pass
    unchecked."""
    unknown = set(schema) - _KEYWORDS
    if unknown or schema.get("type", "object") not in tuple(_TYPES) \
            or schema.get("additionalProperties", False) is not False:
        raise ValueError(f"schema not supported by the config checker: {schema!r}")
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)
    if "items" in schema:
        _check_schema(schema["items"])


def _violations(schema, value, path=()):
    """Yield (path, message) for each way value breaks schema, keyword by
    keyword in the schema's order, in the wording of the jsonschema package
    (draft 2020-12)."""
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                kind = "a finite number" if arg == "number" and _real(value) else f"of type {arg!r}"
                yield path, f"{value!r} is not {kind}"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            beyond, wording = _BOUNDS[key]
            if _finite_number(value) and beyond(value, arg):
                yield path, f"{value!r} is {wording} of {arg!r}"
        elif isinstance(value, list):
            if key == "minItems" and len(value) < arg:
                yield path, f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
            elif key == "maxItems" and len(value) > arg:
                yield path, f"{value!r} is too long"
            elif key == "items":
                for i, item in enumerate(value):
                    yield from _violations(arg, item, path + (i,))
        elif isinstance(value, dict):
            if key == "required":
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _violations(sub, value[name], path + (name,))
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extra = sorted((k for k in value if k not in known), key=str)
                if extra:
                    yield path, ("Additional properties are not allowed "
                                 f"({', '.join(map(repr, extra))} "
                                 f"{'was' if len(extra) == 1 else 'were'} unexpected)")


_check_schema(CONFIG_SCHEMA)
_check_schema(CHECK_SPEC_SCHEMA)


def load_config(source, schema=CONFIG_SCHEMA):
    """Read a JSON document from a path (or take a dict) and validate it
    against schema, the run config by default or CHECK_SPEC_SCHEMA; the first
    violation is a ConfigError at its JSON path.  The literals NaN, Infinity
    and -Infinity are refused, and so is any other non-finite number (1e999
    reads as inf) where the schema asks for a number."""
    if isinstance(source, dict):
        doc = source
    else:
        origin = str(source)
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", origin)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", origin)

        def refuse(literal):
            raise ConfigError(f"invalid JSON: {literal} is not a finite number", origin)

        try:
            doc = json.loads(text, parse_constant=refuse)
        except (json.JSONDecodeError, RecursionError) as exc:
            # a document nested deeper than the interpreter's recursion limit
            raise ConfigError(f"invalid JSON: {exc}", origin)
    # the first violation in path order, the first by schema order at its path
    first = min(_violations(schema, doc), key=lambda v: v[0], default=None)
    if first is not None:
        path, message = first
        raise ConfigError(message, "$" + "".join(f"[{p!r}]" for p in path))
    return doc


def grid_from_config(cfg):
    g = cfg["grid"]
    return GridSpec(g["nx"], g["ny"], g["nz"], g["lx"], g["ly"], g["lz"], g["nt"], g["T"])


def _material_from_spec(spec, grid, which):
    """The material of a validated spec, whose numbers the schema has typed."""
    where = f"$['materials']['{which}']"
    if spec["kind"] == "scalar":
        if "value" not in spec:
            raise ConfigError("scalar material needs 'value'", where)
        return MaterialField.scalar(grid, spec["value"])
    if "values" not in spec:
        raise ConfigError("diagonal material needs 'values'", where)
    return MaterialField.diagonal(grid, *spec["values"])


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
