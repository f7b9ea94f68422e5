"""Random and mutated run configs through `solve` and `certify`.

Whatever the config, the CLI ends with a documented exit code (0-5),
prints no traceback, and explains a non-zero exit in one stderr line.
Sizes and iteration counts stay small so that every case runs quickly.
"""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maxbound.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STABILITY,
    EXIT_VERIFY_FAIL,
    main,
)

BASE = {
    "grid": {"nx": 3, "ny": 3, "nz": 2, "lx": 1.0, "ly": 1.0, "lz": 1.0, "nt": 9, "T": 1.0},
    "case": {"name": "cavity_mode", "parameters": {"m": 1, "n": 1, "amplitude": 1.0}},
    "materials": {"eps": {"kind": "scalar", "value": 1.0},
                  "mu": {"kind": "diagonal", "values": [1.0, 1.0, 1.0]}},
    "perturbation": {"bump": "poly_t2", "delta": 0.01},
    "solver": {"method": "leapfrog", "cfl": 0.9},
    "majorant": {"theorem": "T5", "rho": 0.5, "gamma": 1.0, "zeroTermVariant": "z_hat",
                 "optimize": "none",
                 "optimizeConfig": {"sweeps": 1, "cgMaxIter": 5,
                                    "gammaBracket": [0.1, 10.0]}},
}

# small integers only: a mutated grid size or iteration count stays cheap
leaves = (st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=8)
          | st.floats(allow_nan=False) | st.sampled_from(
              ["T1", "T3", "T4", "T5", "full", "params", "exact", "diagonal", "z", "static",
               "polynomial_source", float("nan"), float("inf")]))
values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8)


def _paths(doc, prefix=()):
    """Every key path of the nested dicts and lists of doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def configs(draw):
    doc = copy.deepcopy(BASE)
    for block in draw(st.lists(st.sampled_from(sorted(BASE)), unique=True, max_size=3)):
        if block != "grid":
            del doc[block]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("set", "delete", "add")))
        if action == "set":
            parent[path[-1]] = draw(values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(values)
    return doc


def _run(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_CONFIG, EXIT_STABILITY, EXIT_MISMATCH,
                    EXIT_PRECONDITION)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert len(err.strip().splitlines()) == 1, err
    return code


def _solve_and_certify(doc, work, capsys, text=None):
    cfg = os.path.join(work, "run.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) if text is None else text)
    out = os.path.join(work, "out")
    codes = [_run(["solve", "--config", cfg, "--out", out], capsys)]
    if codes[0] == EXIT_OK:
        codes.append(_run(["certify", "--config", cfg, "--snapshot",
                           os.path.join(out, "snapshot.bin"), "--out", out], capsys))
    return codes


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=configs())
def test_a_mutated_config_ends_in_a_documented_exit(tmp_path, capsys, doc):
    _solve_and_certify(doc, tempfile.mkdtemp(dir=tmp_path), capsys)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=values)
def test_a_random_document_ends_in_a_documented_exit(tmp_path, capsys, doc):
    _solve_and_certify(doc, tempfile.mkdtemp(dir=tmp_path), capsys)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(max_size=40))
def test_random_text_ends_in_a_documented_exit(tmp_path, capsys, text):
    _solve_and_certify(None, tempfile.mkdtemp(dir=tmp_path), capsys, text=text)


def _unstable():
    doc = copy.deepcopy(BASE)
    doc["grid"].update(nx=12, ny=12, nz=12, nt=3)
    return doc


def _with(block, **entries):
    doc = copy.deepcopy(BASE)
    doc[block].update(entries)
    return doc


# a config for every exit code the README documents, with the codes that
# solve and then certify end in; a mismatched snapshot (4) is below
EXIT_CASES = {
    "ok": (BASE, [EXIT_OK, EXIT_OK]),
    "no-finite-bound": (_with("perturbation", delta=1e200), [EXIT_OK, EXIT_VERIFY_FAIL]),
    "bad-config": (_with("grid", nt=1), [EXIT_CONFIG]),
    "unstable": (_unstable(), [EXIT_STABILITY]),
    "precondition": (_with("majorant", theorem="T1") | {
        "grid": dict(BASE["grid"], nt=4), "solver": {"method": "exact"}},
        [EXIT_OK, EXIT_PRECONDITION]),
}


@pytest.mark.parametrize("name", sorted(EXIT_CASES))
def test_every_documented_exit_code_is_reached(tmp_path, capsys, name):
    doc, want = EXIT_CASES[name]
    assert _solve_and_certify(doc, str(tmp_path), capsys) == want


def test_a_snapshot_of_another_grid_exits_with_mismatch(tmp_path, capsys):
    work = str(tmp_path)
    assert _solve_and_certify(BASE, work, capsys) == [EXIT_OK, EXIT_OK]
    other = os.path.join(work, "other.json")
    with open(other, "w", encoding="utf-8") as fh:
        json.dump(_with("grid", nx=4), fh)
    snap = os.path.join(work, "out", "snapshot.bin")
    assert _run(["certify", "--config", other, "--snapshot", snap, "--out", work],
                capsys) == EXIT_MISMATCH


@pytest.mark.parametrize("block, entries", [
    ("grid", {"nt": 9.0}), ("grid", {"lx": 5e-324}), ("grid", {"T": 5e-324}),
    ("case", {"parameters": {"m": "a"}}), ("case", {"parameters": {"m": 1.5}}),
    ("case", {"parameters": {"amplitude": [1]}}), ("case", {"parameters": {"m": True}}),
    ("case", {"parameters": {"amplitude": True}}), ("case", {"parameters": {"amplitude": "2"}}),
    ("case", {"parameters": {"amplitude": "nan"}}),
    ("majorant", {"optimize": "full", "optimizeConfig": {"sweeps": 1.0}}),
])
def test_malformed_values_are_config_errors(tmp_path, capsys, block, entries):
    assert _solve_and_certify(_with(block, **entries), str(tmp_path), capsys) in (
        [EXIT_CONFIG], [EXIT_OK, EXIT_CONFIG])
