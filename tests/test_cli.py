"""End-to-end command-line workflows, exit codes, and report determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maxbound as mb
from maxbound.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STABILITY,
    EXIT_VERIFY_FAIL,
    build_parser,
    main,
)
from maxbound.config import CONFIG_SCHEMA
from maxbound.majorant import THEOREMS

from conftest import traced_peak


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _cavity_cfg(n=6, nt=13, extra=None):
    doc = {
        "grid": {"nx": n, "ny": n, "nz": n, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                 "nt": nt, "T": 1.0},
        "case": {"name": "cavity_mode"},
    }
    if extra:
        doc.update(extra)
    return doc


def test_solve_then_certify_pipeline(tmp_path, capsys):
    cfg = _write(tmp_path, "run.json", _cavity_cfg())
    out = str(tmp_path / "out")
    snap = os.path.join(out, "snapshot.bin")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert os.path.exists(snap)
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "bound_b(T)" in captured

    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["metadata"]["tool"] == "maxbound"
    rows = doc["rows"]
    assert len(rows) == 13
    assert all(row["bound_b"] >= row["trueN"] - 1e-12 for row in rows)

    with open(os.path.join(out, "report.csv")) as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 13
    # CSV and JSON carry the same 17-digit values
    for row_c, row_j in zip(table, rows):
        assert float(row_c["bound_b"]) == row_j["bound_b"]
        assert float(row_c["t"]) == row_j["t"]


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = _write(tmp_path, "run.json", _cavity_cfg())
    blobs = {}
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        snap = os.path.join(out, "snapshot.bin")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blobs[tag + ".json"] = fh.read()
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            blobs[tag + ".csv"] = fh.read()
        with open(snap, "rb") as fh:
            blobs[tag + ".bin"] = fh.read()
    assert blobs["a.json"] == blobs["b.json"]
    assert blobs["a.csv"] == blobs["b.csv"]
    assert blobs["a.bin"] == blobs["b.bin"]


def test_full_optimization_reports_each_cg_solve_byte_identically(tmp_path):
    doc = _cavity_cfg(n=4, nt=9, extra={
        "perturbation": {"bump": "poly_t2", "delta": 0.01},
        "solver": {"method": "exact"},
        "majorant": {"optimize": "full", "optimizeConfig": {"sweeps": 2, "cgMaxIter": 7}},
    })
    cfg = _write(tmp_path, "run.json", doc)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        snap = os.path.join(out, "snapshot.bin")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    params = json.loads(blobs[0])["parameters"]
    sweeps = params["cg_sweeps"]
    assert len(sweeps) == 2
    for solve in sweeps:
        assert solve["iterations"] == 7
        # the Hessian work in blocks: at most one per time node and step
        assert 7 <= solve["block_iterations"] <= 9 * 7
        assert 0.0 < solve["relative_residual"] < 1.0
    assert params["cg_iterations"] == 7 * sum(solve["accepted"] for solve in sweeps)


def _cli_in_subprocess(argv, src, threads):
    """Run the CLI in a fresh interpreter with the given BLAS thread count."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-m", "maxbound.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=300)


def test_full_optimization_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the PCG's dot products are pairwise sums, and its vectors here are
    # long enough for a threaded BLAS dot to split them
    doc = {
        "grid": {"nx": 6, "ny": 6, "nz": 6, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                 "nt": 17, "T": 1.0},
        "case": {"name": "polynomial_source"},
        "solver": {"method": "exact"},
        "perturbation": {"bump": "poly_t2", "delta": 0.01},
        "majorant": {"theorem": "T5", "optimize": "full", "optimizeConfig": {"sweeps": 2}},
    }
    cfg = _write(tmp_path, "run.json", doc)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mb.__file__)))
    blobs = []
    for threads in (1, 2):
        out = str(tmp_path / f"threads{threads}")
        snap = os.path.join(out, "snapshot.bin")
        for argv in (["solve", "--config", cfg, "--out", out],
                     ["certify", "--config", cfg, "--snapshot", snap, "--out", out]):
            done = _cli_in_subprocess(argv, src, threads)
            assert done.returncode == EXIT_OK, done.stderr
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_certify_with_parameter_optimization(tmp_path):
    doc = _cavity_cfg(extra={
        "perturbation": {"bump": "poly_t2", "delta": 0.01},
        "solver": {"method": "exact"},
        "majorant": {"optimize": "params",
                     "optimizeConfig": {"gammaBracket": [0.1, 10.0]}},
    })
    cfg = _write(tmp_path, "run.json", doc)
    out = str(tmp_path / "out")
    snap = os.path.join(out, "snapshot.bin")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json")) as fh:
        docr = json.load(fh)
    rows = docr["rows"]
    assert all(row["bound_b"] >= row["trueN"] for row in rows)


def test_parameter_optimization_makes_one_series_pass(tmp_path, monkeypatch):
    # the (gamma, rho) search and the report read the one pass, which takes
    # the true error too
    import maxbound.majorant
    import maxbound.optimize

    doc = _cavity_cfg(n=4, nt=9, extra={
        "perturbation": {"bump": "poly_t2", "delta": 0.01},
        "solver": {"method": "exact"},
        "majorant": {"optimize": "params"},
    })
    cfg = _write(tmp_path, "run.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    calls = []
    stream = maxbound.majorant.series

    def counted(*args, **kwargs):
        calls.append(kwargs.get("exact", args[4] if len(args) > 4 else None))
        return stream(*args, **kwargs)

    for module in (maxbound.majorant, maxbound.optimize):
        monkeypatch.setattr(module, "series", counted)
    snap = os.path.join(out, "snapshot.bin")
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
    assert len(calls) == 1 and calls[0] is not None
    with open(os.path.join(out, "report.json")) as fh:
        assert all(row["trueN"] is not None for row in json.load(fh)["rows"])


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    # schema violation
    bad = _cavity_cfg()
    bad["grid"]["nt"] = 1
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    # missing config: a bad argument, one "usage error:" line, as an unknown
    # flag is; an "error:" line is kept for exit 1
    for command in ("solve", "certify", "verify"):
        capsys.readouterr()
        assert main([command]) == EXIT_CONFIG
        assert capsys.readouterr().err == "usage error: --config is required\n"

    # unstable time step
    unstable = _cavity_cfg(n=16, nt=5)
    cfg = _write(tmp_path, "unstable.json", unstable)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_STABILITY

    capsys.readouterr()


# a spec of each material kind the config schema admits; a kind added to
# the schema without an entry here fails the test below
_MATERIAL_SPECS = {"scalar": {"value": 2.0}, "diagonal": {"values": [1.5, 0.5, 3.0]}}
_MATERIAL_KINDS = [(which, kind)
                   for which, schema in CONFIG_SCHEMA["properties"]["materials"]["properties"].items()
                   for kind in schema["properties"]["kind"]["enum"]]


@pytest.mark.parametrize("which, kind", _MATERIAL_KINDS)
def test_every_material_kind_the_schema_admits_solves_and_certifies(tmp_path, capsys, which,
                                                                    kind):
    doc = {
        "grid": {"nx": 4, "ny": 4, "nz": 4, "lx": 1.0, "ly": 1.0, "lz": 1.0, "nt": 9, "T": 0.5},
        "materials": {which: dict(kind=kind, **_MATERIAL_SPECS[kind])},
        "perturbation": {"bump": "poly_t2", "delta": 1e-2},
    }
    cfg = _write(tmp_path, "run.json", doc)
    out = str(tmp_path / "out")
    snap = os.path.join(out, "snapshot.bin")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json")) as fh:
        rows = json.load(fh)["rows"]
    assert 0.0 < rows[-1]["bound_b"] < math.inf
    capsys.readouterr()


@pytest.mark.parametrize("which", ["eps", "mu"])
def test_a_full_tensor_material_is_a_config_error_before_any_snapshot(tmp_path, capsys, which):
    doc = _cavity_cfg(n=4, nt=9)
    doc["materials"] = {which: {"kind": "full", "values": np.eye(3).tolist()}}
    cfg = _write(tmp_path, "run.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert f"$['materials']['{which}']['kind']" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "snapshot.bin"))


def test_snapshot_grid_mismatch_exit_code(tmp_path, capsys):
    cfg_a = _write(tmp_path, "a.json", _cavity_cfg(n=6))
    out = str(tmp_path / "out")
    snap = os.path.join(out, "snapshot.bin")
    assert main(["solve", "--config", cfg_a, "--out", out]) == EXIT_OK
    cfg_b = _write(tmp_path, "b.json", _cavity_cfg(n=5))
    assert main(["certify", "--config", cfg_b, "--snapshot", snap, "--out", out]) == EXIT_MISMATCH
    capsys.readouterr()


def test_theorem_precondition_exit_code(tmp_path, capsys):
    doc = _cavity_cfg(nt=4)
    doc["grid"]["T"] = 0.2
    cfg = _write(tmp_path, "short.json", doc)
    out = str(tmp_path / "out")
    snap = os.path.join(out, "snapshot.bin")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    code = main(["certify", "--config", cfg, "--snapshot", snap, "--out", out,
                 "--theorem", "T1"])
    assert code == EXIT_PRECONDITION
    capsys.readouterr()


def test_refinement_study_passes_for_the_leapfrog_cavity(tmp_path, capsys):
    doc = _cavity_cfg(n=6, nt=13, extra={"verify": {"levels": 2}})
    cfg = _write(tmp_path, "verify.json", doc)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "verification passed" in captured
    with open(tmp_path / "verify.json") as fh:
        table = json.load(fh)
    assert all(o >= 1.9 for o in table["orders_bound"] + table["orders_true"])


def test_refinement_study_passes_for_exact_samples(tmp_path, capsys):
    doc = _cavity_cfg(n=4, nt=9)
    doc["case"] = {"name": "polynomial_source"}
    doc["solver"] = {"method": "exact"}
    cfg = _write(tmp_path, "config.json", doc)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()

    # the error is 0, so the efficiency and the orders are undefined: null,
    # which a strict reader takes, where a NaN literal is refused
    def refuse(literal):
        raise ValueError(f"verify.json holds {literal}")

    table = json.loads((tmp_path / "verify.json").read_text(), parse_constant=refuse)
    assert [row["efficiency_T"] for row in table["rows"]] == [None, None]
    assert table["orders_bound"] == table["orders_true"] == [None]


def test_gronwall_subcommand_runs_builtin_suite(tmp_path, capsys):
    assert main(["gronwall"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert captured.count("PASS") == 6
    assert "gronwall suite passed" in captured


def test_gronwall_subcommand_detects_injected_violations(tmp_path, capsys):
    spec = {"cases": [{"name": "broken", "phi": {"kind": "constant", "value": 1.0},
                       "psi": {"kind": "constant", "value": 1.0}, "u0": 0.5,
                       "T": 1.0, "nt": 201, "injectViolation": True}]}
    path = _write(tmp_path, "check.json", spec)
    assert main(["gronwall", "--config", path]) == EXIT_VERIFY_FAIL
    captured = capsys.readouterr().out
    assert "FAIL broken" in captured


@pytest.mark.parametrize("case", [
    {"phi": {"value": 800}, "psi": {"value": 1}},
    {"phi": {"value": 1e300}, "psi": {"value": 1}},
    {"phi": {"value": 1}, "psi": {"value": 1}, "T": 1e300},
    {"phi": {"value": 1}, "psi": {"value": 1e308}, "u0": 1e308},
], ids=["phi-800", "phi-1e300", "T-1e300", "psi-u0-1e308"])
def test_a_gronwall_case_whose_bound_overflows_fails_and_says_so(tmp_path, capsys, case):
    # the bound and the oracle solution overflow to inf, so nothing is
    # compared: the line names what is not finite and prints no nan
    path = _write(tmp_path, "check.json", {"cases": [case]})
    capsys.readouterr()
    assert main(["gronwall", "--config", path]) == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "FAIL unnamed (bound and oracle solution not finite)"
    assert "nan" not in out


def test_a_gronwall_coefficient_not_finite_at_a_node_is_a_config_error(tmp_path, capsys):
    # slope and offset are finite, but phi(1) overflows to inf: the oracle
    # check refuses it as the Gronwall forms refuse a non-finite phi
    spec = {"cases": [{"phi": {"kind": "linear", "slope": 1e308, "offset": 1e308},
                       "psi": {"value": 1.0}}]}
    path = _write(tmp_path, "check.json", spec)
    err = _one_line_error(capsys, ["gronwall", "--config", path], EXIT_CONFIG)
    assert err == "config error: phi must lie in [0.0, inf) on all nodes\n"


def test_a_gronwall_source_that_overflows_with_both_signs_is_a_config_error(tmp_path, capsys):
    # psi is finite at both nodes, but 0.5 * dt * psi is +inf at t = 0 and
    # -inf at t = T: the bound's recursion would add them to a NaN
    spec = {"cases": [{"phi": {"kind": "constant", "value": 0.0},
                       "psi": {"kind": "linear", "slope": -1.5e307, "offset": 5e307},
                       "T": 10.0, "nt": 2}]}
    path = _write(tmp_path, "check.json", spec)
    err = _one_line_error(capsys, ["gronwall", "--config", path], EXIT_CONFIG)
    assert err == "config error: the half-step source 0.5*dt*psi overflows with both signs\n"


_CONSTANT = {"kind": "constant", "value": 1.0}


@pytest.mark.parametrize("spec", [
    {"cases": [{"name": "x"}]},
    {"cases": [{"phi": _CONSTANT, "psi": _CONSTANT, "nt": 1}]},
    {"cases": [{"phi": {"kind": "constant", "value": "a"}, "psi": _CONSTANT}]},
    {"cases": "abc"},
    {"cases": []},
], ids=["missing-phi", "one-node", "string-value", "cases-not-a-list", "no-cases"])
def test_malformed_gronwall_spec_is_a_config_error(tmp_path, capsys, spec):
    path = _write(tmp_path, "check.json", spec)
    capsys.readouterr()
    assert main(["gronwall", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error at $['cases']") and "Traceback" not in err


# ---------------------------------------------------------------------------
# failures that must exit with a one-line message and no report


def _small_snapshot(tmp_path):
    cfg = _write(tmp_path, "small.json", _cavity_cfg(n=4, nt=9))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    return cfg, out, os.path.join(out, "snapshot.bin")


def _certify_fails(cfg, snap, out, capsys, code):
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_truncated_snapshot_exits_with_mismatch(tmp_path, capsys):
    cfg, out, snap = _small_snapshot(tmp_path)
    with open(snap, "rb") as fh:
        blob = fh.read()
    with open(snap, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    _certify_fails(cfg, snap, out, capsys, EXIT_MISMATCH)


def test_snapshot_with_trailing_bytes_exits_with_mismatch(tmp_path, capsys):
    cfg, out, snap = _small_snapshot(tmp_path)
    with open(snap, "ab") as fh:
        fh.write(b"\x00\x01\x02")
    _certify_fails(cfg, snap, out, capsys, EXIT_MISMATCH)


def test_corrupt_snapshot_header_exits_with_mismatch(tmp_path, capsys):
    cfg, out, snap = _small_snapshot(tmp_path)
    with open(snap, "r+b") as fh:
        fh.seek(12)
        fh.write(b"{not json")
    _certify_fails(cfg, snap, out, capsys, EXIT_MISMATCH)


def test_missing_snapshot_file_exits_with_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "small.json", _cavity_cfg(n=4, nt=9))
    out = str(tmp_path / "out")
    _certify_fails(cfg, str(tmp_path / "absent.bin"), out, capsys, EXIT_MISMATCH)


def test_snapshot_with_a_nan_is_refused(tmp_path, capsys):
    cfg, out, snap = _small_snapshot(tmp_path)
    with open(snap, "r+b") as fh:
        fh.seek(8)
        (hlen,) = np.frombuffer(fh.read(4), dtype="<u4")
        fh.seek(12 + int(hlen) + 8 * 17)
        fh.write(np.array([np.nan], dtype="<f8").tobytes())
    _certify_fails(cfg, snap, out, capsys, EXIT_MISMATCH)


def _value_offset(snap, field, comp, index):
    """Byte offset of value `index` of one archived array, from the header."""
    with open(snap, "rb") as fh:
        fh.seek(8)
        (hlen,) = np.frombuffer(fh.read(4), dtype="<u4")
        header = json.loads(fh.read(int(hlen)))
    offset = 12 + int(hlen)
    for entry in header["arrays"]:
        if (entry["field"], entry["component"]) == (field, comp):
            return offset + 8 * index
        offset += 8 * int(np.prod(entry["shape"]))
    raise KeyError((field, comp))


@pytest.mark.parametrize("field, comp, node", [("Htilde", "y", 4), ("Etilde_t", "x", -1),
                                               ("Etilde_t", "z", -1)])
def test_a_nan_in_any_node_of_any_field_is_refused_before_a_report(tmp_path, capsys, field,
                                                                 comp, node):
    # T5 never reads Htilde, and the last node of Etilde_t is the last one read
    cfg, out, snap = _small_snapshot(tmp_path)
    grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 9, 1.0)
    kind = mb.FACE if field == "Htilde" else mb.EDGE
    node_values = int(np.prod(grid.shape(kind, comp)))
    index = (node % grid.nt) * node_values + node_values // 2
    with open(snap, "r+b") as fh:
        fh.seek(_value_offset(snap, field, comp, index))
        fh.write(np.array([np.nan], dtype="<f8").tobytes())
    _certify_fails(cfg, snap, out, capsys, EXIT_MISMATCH)


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    """A valid 4^3 x 9 cavity archive: (config path, archive bytes, header end)."""
    work = tmp_path_factory.mktemp("archive")
    cfg = _write(work, "small.json", _cavity_cfg(n=4, nt=9))
    assert main(["solve", "--config", cfg, "--out", str(work)]) == EXIT_OK
    blob = (work / "snapshot.bin").read_bytes()
    return cfg, blob, 12 + int(np.frombuffer(blob[8:12], dtype="<u4")[0])


def _certify_damaged(cfg, damaged, tmp_path, capsys):
    """Exit code, whether a report was written, and stderr of certify on an archive."""
    work = tempfile.mkdtemp(dir=tmp_path)
    snap, out = os.path.join(work, "snapshot.bin"), os.path.join(work, "out")
    with open(snap, "wb") as fh:
        fh.write(damaged)
    capsys.readouterr()
    code = main(["certify", "--config", cfg, "--snapshot", snap, "--out", out])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, os.path.exists(os.path.join(out, "report.json")), err


def _check_outcome(outcome, value=None):
    """Exit 4 in one line with no report, unless `value`, the changed body
    value, is finite: then the archive is valid and is certified, or, when
    the value is so large that the bound overflows, refused with exit 1."""
    code, reported, err = outcome
    if value is None or not np.isfinite(value):
        assert (code, reported, len(err.strip().splitlines())) == (EXIT_MISMATCH, False, 1)
    elif code == EXIT_OK or abs(value) < 1e100:
        assert (code, reported, err) == (EXIT_OK, True, "")
    else:
        assert (code, reported) == (EXIT_VERIFY_FAIL, False)
        assert len(err.strip().splitlines()) == 1 and "not finite" in err


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=st.sampled_from(("truncate", "header", "body", "append")), data=st.data())
def test_a_damaged_snapshot_is_refused_in_one_line_or_certified(small_archive, tmp_path,
                                                                 capsys, damage, data):
    cfg, blob, body = small_archive
    damaged = bytearray(blob)
    value = None
    if damage == "truncate":
        del damaged[data.draw(st.integers(0, len(blob) - 1)):]
    elif damage == "append":
        damaged += data.draw(st.binary(min_size=1, max_size=64))
    else:
        lo, hi = (0, body) if damage == "header" else (body, len(blob))
        at = data.draw(st.integers(lo, hi - 1))
        damaged[at] ^= data.draw(st.integers(1, 255))
        if damage == "body":
            word = at - (at - body) % 8
            value = float(np.frombuffer(bytes(damaged[word:word + 8]), dtype="<f8")[0])
    _check_outcome(_certify_damaged(cfg, bytes(damaged), tmp_path, capsys), value)


def test_damage_that_leaves_valid_json_or_finite_values_is_handled(small_archive, tmp_path,
                                                                   capsys):
    cfg, blob, body = small_archive
    # a tab for a space leaves the header valid JSON with the same contents
    retabbed = blob[:body].replace(b": ", b":\t", 1) + blob[body:]
    _check_outcome(_certify_damaged(cfg, retabbed, tmp_path, capsys))
    for value in (3.5, 1e300):
        damaged = bytearray(blob)
        damaged[body + 800:body + 808] = np.array([value], dtype="<f8").tobytes()
        _check_outcome(_certify_damaged(cfg, bytes(damaged), tmp_path, capsys), value)


def test_non_finite_bound_is_an_error_not_a_report(tmp_path, capsys, monkeypatch):
    import maxbound.majorant as majorant

    cfg, out, snap = _small_snapshot(tmp_path)
    bound_b_and_B = majorant.bound_b_and_B

    def poisoned(*args, **kwargs):
        b, B = bound_b_and_B(*args, **kwargs)
        b[-1] = np.inf
        return b, B

    monkeypatch.setattr(majorant, "bound_b_and_B", poisoned)
    _certify_fails(cfg, snap, out, capsys, EXIT_VERIFY_FAIL)


def test_negative_bound_is_an_error_not_a_report(tmp_path, capsys, monkeypatch):
    import maxbound.majorant as majorant

    cfg, out, snap = _small_snapshot(tmp_path)
    bound_b_and_B = majorant.bound_b_and_B

    def negated(*args, **kwargs):
        b, B = bound_b_and_B(*args, **kwargs)
        b[-1] = -b[-1]
        return b, B

    monkeypatch.setattr(majorant, "bound_b_and_B", negated)
    _certify_fails(cfg, snap, out, capsys, EXIT_VERIFY_FAIL)


def test_solve_refuses_a_non_finite_node_and_leaves_no_file(tmp_path, capsys):
    # Etilde + 1e308 * bump overflows to inf on the nodes where the bump is not 0
    doc = _cavity_cfg(n=4, nt=9, extra={"perturbation": {"bump": "poly_t2", "delta": 1e308}})
    cfg = _write(tmp_path, "huge.json", doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "non-finite" in err and "Traceback" not in err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_unknown_bump_is_a_config_error_before_any_snapshot(tmp_path, capsys, delta):
    doc = _cavity_cfg(n=4, nt=9, extra={"perturbation": {"bump": "bogus", "delta": delta}})
    cfg = _write(tmp_path, "bump.json", doc)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error at $['perturbation']['bump']")
    assert not out.exists()


def test_an_overflowing_number_is_a_config_error_before_any_snapshot(tmp_path, capsys):
    # json reads 1e999 as inf, which the NaN/Infinity literal check never sees
    doc = _cavity_cfg(n=4, nt=9, extra={"perturbation": {"bump": "poly_t2", "delta": 0.5}})
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc).replace('"delta": 0.5', '"delta": 1e999'))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error at $['perturbation']['delta']")
    assert not out.exists()


def _start_up_modules(*packages):
    """The modules of packages that `import maxbound, maxbound.cli` loads in a
    fresh interpreter, sorted."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mb.__file__)))
    code = ("import sys, maxbound, maxbound.cli; print(sorted(m for m in sys.modules if "
            f"m.split('.')[0] in {packages!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_start_up_imports_no_schema_validator():
    assert _start_up_modules("jsonschema", "referencing", "rpds",
                             "jsonschema_specifications") == "[]"


def test_cli_start_up_imports_no_thread_pool():
    # certify's helper pool imports concurrent.futures (5-10 ms) when it is made
    assert _start_up_modules("concurrent") == "[]"


def test_unknown_case_parameter_is_a_config_error(tmp_path, capsys):
    doc = _cavity_cfg(n=4, nt=9)
    doc["case"]["parameters"] = {"bogus": 1}
    cfg = _write(tmp_path, "bogus.json", doc)
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bogus" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"grid": {"nx": 3, "ny": 3, "nz": 3, "lx": 1e300, "ly": 1e300, "lz": 1e300, "nt": 9,
              "T": 1.0}, "case": {"name": "cavity_mode"}},
    {"grid": {"nx": 3, "ny": 3, "nz": 3, "lx": 1e200, "ly": 1.0, "lz": 1.0, "nt": 9, "T": 1.0},
     "case": {"name": "polynomial_source"}, "solver": {"method": "exact"}},
])
def test_a_box_length_whose_square_overflows_is_a_config_error(tmp_path, capsys, doc):
    cfg = _write(tmp_path, "huge.json", doc)
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "squared overflows" in err
    assert not os.path.exists(tmp_path / "out" / "snapshot.bin")


# the flags each subcommand reads; every other flag is refused as unknown
_FLAGS_READ = {
    "solve": ("--config", "--snapshot", "--out"),
    "certify": ("--config", "--snapshot", "--out", "--theorem", "--optimize"),
    "verify": ("--config", "--out", "--theorem"),
    "gronwall": ("--config",),
}
_FLAG_VALUES = {"--config": "run.json", "--snapshot": "missing.bin", "--out": "out",
                "--theorem": "T1", "--optimize": "full"}


@pytest.mark.parametrize("command", sorted(_FLAGS_READ))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command):
    parser = build_parser()
    for flag, value in _FLAG_VALUES.items():
        if flag in _FLAGS_READ[command]:
            assert getattr(parser.parse_args([command, flag, value]), flag[2:]) == value
        else:
            assert main([command, flag, value]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["verify", "--snapshot", "x"],
                                  ["certify", "--theorem", "T9"], ["solve", "--config"]])
def test_a_bad_command_line_returns_a_config_error_in_one_line(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["certify", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("length, volume", [(1e150, "inf"), (1e-120, "0.0")])
@pytest.mark.parametrize("case", ["cavity_mode", "polynomial_source"])
def test_a_cell_volume_that_is_not_finite_and_positive_is_a_config_error(tmp_path, capsys,
                                                                         length, volume, case):
    # h^3 overflows at 1e150 and underflows at 1e-120, while h and h^2 do not;
    # every norm, and with them b, would read inf or 0
    doc = {"grid": {"nx": 3, "ny": 3, "nz": 3, "lx": length, "ly": length, "lz": length,
                    "nt": 9, "T": 1.0}, "case": {"name": case}, "solver": {"method": "exact"}}
    cfg = _write(tmp_path, "box.json", doc)
    capsys.readouterr()
    for argv in (["solve", "--config", cfg, "--out", str(tmp_path / "out")],
                 ["certify", "--config", cfg, "--snapshot", str(tmp_path / "missing.bin"),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"cell volume {volume} is not finite and positive" in err
    assert not os.path.exists(tmp_path / "out" / "snapshot.bin")


def test_the_removed_track_energy_key_is_a_config_error(tmp_path, capsys):
    doc = _cavity_cfg(n=4, nt=9, extra={"solver": {"method": "leapfrog", "trackEnergy": True}})
    cfg = _write(tmp_path, "energy.json", doc)
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "trackEnergy" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_failed_solve_leaves_neither_a_snapshot_nor_a_temporary_file(tmp_path, capsys):
    cfg = _write(tmp_path, "unstable.json", _cavity_cfg(n=16, nt=5))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_STABILITY
    capsys.readouterr()
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("command, doc", [
    ("certify", _cavity_cfg(n=4, nt=9, extra={"majorant": {"gamma": float("nan")}})),
    ("gronwall", {"cases": [{"phi": {"value": float("inf")}, "psi": _CONSTANT}]}),
], ids=["run-config-nan", "check-spec-infinity"])
def test_non_finite_json_literals_are_config_errors(tmp_path, capsys, command, doc):
    path = _write(tmp_path, "doc.json", doc)
    text = (tmp_path / "doc.json").read_text()
    assert "NaN" in text or "Infinity" in text
    argv = [command, "--config", path]
    if command == "certify":
        _, out, snap = _small_snapshot(tmp_path)
        argv += ["--snapshot", snap, "--out", out]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# memory: the CLI holds its output (solve) or its input (certify), and little else


def _cavity_run(tmp_path, n, nt):
    """solve and certify argv of an n^3 x nt cavity, each run once already,
    so that lazy imports and caches are settled before anything is traced;
    and the bytes of one edge trajectory and of the three solver outputs
    (Etilde, Htilde, Etilde_t)."""
    cfg = _write(tmp_path, "run.json", _cavity_cfg(n=n, nt=nt))
    out = str(tmp_path / "out")
    solve = ["solve", "--config", cfg, "--out", out]
    cert = ["certify", "--config", cfg, "--snapshot", os.path.join(out, "snapshot.bin"),
            "--out", out]
    assert main(solve) == EXIT_OK and main(cert) == EXIT_OK
    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, 1.0)
    edge, face = (8 * nt * sum(int(np.prod(grid.shape(kind, c))) for c in "xyz")
                  for kind in (mb.EDGE, mb.FACE))
    return solve, cert, edge, 2 * edge + face


def _traced_exit(argv):
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [EXIT_OK]
    return peak


def test_solve_peak_is_its_output_plus_less_than_one_edge_trajectory(tmp_path, capsys):
    solve, _, edge, outputs = _cavity_run(tmp_path, 8, 33)
    peak = _traced_exit(solve)
    capsys.readouterr()
    assert peak < outputs + edge


def test_certify_peak_is_its_snapshot_plus_less_than_one_edge_trajectory(tmp_path, capsys):
    _, cert, edge, snapshot = _cavity_run(tmp_path, 8, 33)
    peak = _traced_exit(cert)
    capsys.readouterr()
    assert peak < snapshot + edge


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_cli_peak_does_not_grow_with_the_time_nodes(tmp_path, capsys, command):
    peaks = []
    for nt in (17, 129):
        work = tmp_path / f"nt{nt}"
        work.mkdir()
        solve, cert, edge, _ = _cavity_run(work, 8, nt)
        peaks.append(_traced_exit(solve if command == "solve" else cert))
    capsys.readouterr()
    # edge is the bytes of one edge trajectory at nt = 129
    assert peaks[1] - peaks[0] < edge / 4


# ---------------------------------------------------------------------------
# one snapshot path: every mode reads through snapshot_reader


@pytest.mark.parametrize("theorem", list(THEOREMS))
@pytest.mark.parametrize("mode", ["none", "params", "full"])
def test_certify_loads_only_the_trajectories_the_optimizer_differentiates(
        tmp_path, capsys, monkeypatch, mode, theorem):
    # H~ enters no bound that certify reports, so no mode reads it whole, and
    # T1/T3 read dEtilde/dt where T4/T5 read E~_t
    from maxbound import snapshot

    loaded = []
    if mode == "full":
        loaded = ["Etilde"] if THEOREMS[theorem].derived_velocity else ["Etilde", "Etilde_t"]
    doc = _cavity_cfg(n=4, nt=9, extra={
        "perturbation": {"bump": "poly_t2", "delta": 0.01}, "solver": {"method": "exact"},
        "majorant": {"optimize": mode, "theorem": theorem, "optimizeConfig": {"sweeps": 1}}})
    cfg = _write(tmp_path, "run.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    names = []
    load = snapshot._Stored.load

    def recorded(self):
        names.append(self.name)
        return load(self)

    monkeypatch.setattr(snapshot._Stored, "load", recorded)
    snap = os.path.join(out, "snapshot.bin")
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert names == loaded


@pytest.mark.parametrize("theorem", ["T4", "T5"])
@pytest.mark.parametrize("mode", ["none", "params", "full"])
def test_two_time_nodes_under_a_velocity_theorem_are_an_unmet_precondition(
        tmp_path, capsys, mode, theorem):
    # the time derivative of T4/T5 needs three nodes, as T1/T3 need five:
    # exit 5 before any pass, not a config error raised in the middle of one
    doc = _cavity_cfg(n=4, nt=2, extra={
        "solver": {"method": "exact"},
        "majorant": {"optimize": mode, "theorem": theorem, "optimizeConfig": {"sweeps": 1}}})
    cfg = _write(tmp_path, "two.json", doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    snap = os.path.join(out, "snapshot.bin")
    assert main(["certify", "--config", cfg, "--snapshot", snap, "--out", out]) == \
        EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("precondition violated:") and "nt >= 3" in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_the_solve_passes_cfl_only_when_the_solver_block_gives_it(tmp_path, capsys,
                                                                  monkeypatch):
    import maxbound.cli as cli

    calls = []
    solve = cli.leapfrog_solve

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "leapfrog_solve", recorded)
    for solver in ({}, {"method": "leapfrog"}, {"cfl": 0.5}):
        cfg = _write(tmp_path, "run.json", _cavity_cfg(n=4, nt=17, extra={"solver": solver}))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert [sorted(kw) for kw in calls] == [["out"], ["out"], ["cfl", "out"]]
    assert calls[2]["cfl"] == 0.5


# ---------------------------------------------------------------------------
# inputs that once ended in a traceback: one stderr line and an exit code


def _one_line_error(capsys, argv, code):
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["solve", "certify", "verify"])
def test_an_output_directory_that_cannot_be_made_is_a_config_error(tmp_path, capsys,
                                                                  command):
    cfg, _, snap = _small_snapshot(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "x", blocker):  # below a file, and a file itself
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "certify":
            argv += ["--snapshot", snap]
        err = _one_line_error(capsys, argv, EXIT_CONFIG)
        assert err.startswith("config error: cannot write ") and str(out) in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("where", ["below-a-file", "a-directory"])
def test_a_snapshot_path_that_cannot_be_written_is_a_config_error_and_leaves_no_file(
        tmp_path, capsys, where):
    cfg = _write(tmp_path, "run.json", _cavity_cfg(n=4, nt=9))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    snap = tmp_path / ("file/s.bin" if where == "below-a-file" else "dir")
    before = sorted(os.listdir(tmp_path))
    err = _one_line_error(capsys, ["solve", "--config", cfg, "--out", str(tmp_path),
                                   "--snapshot", str(snap)], EXIT_CONFIG)
    assert err.startswith("config error: cannot write ") and str(snap) in err
    # neither the archive nor its temporary sibling is left behind
    assert sorted(os.listdir(tmp_path)) == before
    assert not os.listdir(tmp_path / "dir")


@pytest.mark.parametrize("name", ["report.json", "report.csv"])
def test_a_report_that_cannot_be_written_is_a_config_error(tmp_path, capsys, name):
    cfg, out, snap = _small_snapshot(tmp_path)
    os.mkdir(os.path.join(out, name))  # a directory where the report goes
    err = _one_line_error(capsys, ["certify", "--config", cfg, "--snapshot", snap,
                                   "--out", out], EXIT_CONFIG)
    assert err.startswith("config error: cannot write ") and os.path.join(out, name) in err


@pytest.mark.parametrize("command", ["solve", "gronwall"])
@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_a_config_that_cannot_be_read_as_json_is_a_config_error(tmp_path, capsys, command,
                                                                text):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    # a run config and a gronwall check spec go through the same loader
    err = _one_line_error(capsys, [command, "--config", str(path)], EXIT_CONFIG)
    assert err.startswith(f"config error at {path}: invalid JSON: ")


@pytest.mark.parametrize("n", [10**12, 10**400], ids=["1e12", "1e400"])
def test_a_grid_too_large_to_index_is_a_config_error(tmp_path, capsys, n):
    doc = _cavity_cfg(n=4, nt=9)
    doc["grid"].update(nx=n, ny=n, nz=n)
    cfg = _write(tmp_path, "big.json", doc)
    for argv in (["solve", "--config", cfg, "--out", str(tmp_path / "out")],
                 ["certify", "--config", cfg, "--snapshot", str(tmp_path / "missing.bin")]):
        err = _one_line_error(capsys, argv, EXIT_CONFIG)
        assert "too large" in err
    assert not (tmp_path / "out").exists()


def test_a_gronwall_case_too_long_to_index_is_a_config_error(tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", {"cases": [
        {"phi": {"value": 1.0}, "psi": {"value": 1.0}, "nt": 10**19}]})
    err = _one_line_error(capsys, ["gronwall", "--config", spec], EXIT_CONFIG)
    assert "nt=10000000000000000000 is too large" in err


def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    import maxbound.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 56.8 PiB for an array")

    monkeypatch.setattr(cli, "leapfrog_solve", exhausted)
    cfg = _write(tmp_path, "run.json", _cavity_cfg(n=4, nt=9))
    out = tmp_path / "out"
    err = _one_line_error(capsys, ["solve", "--config", cfg, "--out", str(out)],
                          EXIT_VERIFY_FAIL)
    assert err == "error: out of memory: Unable to allocate 56.8 PiB for an array\n"
    assert not os.listdir(out)


@pytest.mark.parametrize("item", ["true", '"2"', "1e400", "1" + "0" * 400, "0", "-1.5"],
                         ids=["true", "string", "1e400", "int-1e400", "zero", "negative"])
def test_a_diagonal_material_value_that_is_not_a_positive_number_is_a_config_error(
        tmp_path, capsys, item):
    # written as JSON text: 1e400 reads as inf, and 10^400 as an int no double holds
    doc = _cavity_cfg(n=4, nt=9)
    text = json.dumps(dict(doc, materials={"eps": {"kind": "diagonal",
                                                   "values": [1.0, 1.0, "ITEM"]}}))
    path = tmp_path / "run.json"
    path.write_text(text.replace('"ITEM"', item))
    err = _one_line_error(capsys, ["solve", "--config", str(path), "--out",
                                   str(tmp_path / "out")], EXIT_CONFIG)
    assert err.startswith("config error at $['materials']['eps']['values'][2]: ")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the poly-optimize kind of input on a 4^3 x 17 grid


def _poly_doc(majorant=None):
    doc = _cavity_cfg(n=4, nt=17, extra={
        "case": {"name": "polynomial_source"}, "solver": {"method": "exact"},
        "perturbation": {"bump": "poly_t2", "delta": 8e-3}})
    doc["majorant"] = dict({"theorem": "T5", "optimizeConfig": {"sweeps": 2}}, **(majorant or {}))
    return doc


def _poly_certify(tmp_path, capsys, doc, mode):
    """solve, then certify under mode: (exit code, stderr, b(T) or None)."""
    cfg = _write(tmp_path, "poly.json", doc)
    out = str(tmp_path / mode)
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    code = main(["certify", "--config", cfg, "--snapshot", os.path.join(out, "snapshot.bin"),
                 "--out", out, "--optimize", mode])
    err = capsys.readouterr().err
    if code != EXIT_OK:
        return code, err, None
    with open(os.path.join(out, "report.json")) as fh:
        return code, err, json.load(fh)["rows"][-1]["bound_b"]


@pytest.mark.parametrize("start", [{"gamma": 720}, {"rho": 1e-100}, {"gamma": 1e-200}],
                         ids=["gamma-720", "rho-1e-100", "gamma-1e-200"])
@pytest.mark.parametrize("theorem", ["T1", "T5"])
def test_full_optimization_skips_a_y_step_whose_quadratic_cannot_be_formed(
        tmp_path, capsys, start, theorem):
    # b(T) is finite at each start, but its Y-quadratic's Gronwall weights
    # overflow (gamma 720) or its time matrix fails Cholesky: the (gamma, rho)
    # step moves off, and full gives a bound no higher than none's
    doc = _poly_doc(dict(start, theorem=theorem))
    code, _, plain = _poly_certify(tmp_path, capsys, doc, "none")
    assert code == EXIT_OK and math.isfinite(plain)
    code, err, optimized = _poly_certify(tmp_path, capsys, doc, "full")
    assert code == EXIT_OK, err
    assert optimized <= plain
    with open(os.path.join(tmp_path, "full", "report.json")) as fh:
        assert json.load(fh)["parameters"]["cg_sweeps"][0] is None


def test_full_optimization_from_a_start_whose_bound_overflows(tmp_path, capsys):
    doc = _poly_doc({"gamma": 800})
    code, err, _ = _poly_certify(tmp_path, capsys, doc, "none")
    assert code == EXIT_VERIFY_FAIL and "not finite" in err
    code, err, optimized = _poly_certify(tmp_path, capsys, doc, "full")
    assert code == EXIT_OK, err
    assert optimized == pytest.approx(4.6375e-4, rel=1e-4)


@pytest.mark.parametrize("mode, gammas, T", [
    ("params", [700, 800], 1.0), ("full", None, 1e-12),
], ids=["bracket-end", "tiny-T"])
def test_a_warning_is_one_stderr_line(tmp_path, capsys, mode, gammas, T):
    # the gamma search warns that it chose an end of its bracket
    doc = _poly_doc()
    doc["grid"]["T"] = T
    if gammas:
        doc["majorant"]["optimizeConfig"]["gammaBracket"] = gammas
    code, err, _ = _poly_certify(tmp_path, capsys, doc, mode)
    assert code == EXIT_OK
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: gamma search selected")
    assert ".py:" not in err


@pytest.mark.parametrize("key, value, where", [
    ("rhoGrid", [0.5], ""), ("yInit", "zero", ""), ("gammaTol", 1e-3, ""),
    ("gammaPieces", 1, ""), ("gammaPieces", 2, ""),
    ("gammaBracket", [1, 10, 100], "['gammaBracket']"),
], ids=["rhoGrid", "yInit", "gammaTol", "gammaPieces-1", "gammaPieces-2",
        "three-value-gammaBracket"])
def test_a_removed_optimize_setting_is_a_config_error(tmp_path, capsys, key, value, where):
    # the rho grid, the gamma tolerance and the start are fixed, and the
    # gamma search is always a golden section for one scalar gamma on a
    # two-value bracket
    doc = _poly_doc()
    doc["majorant"]["optimizeConfig"][key] = value
    cfg = _write(tmp_path, "removed.json", doc)
    out = tmp_path / "out"
    for argv in (["solve", "--config", cfg, "--out", str(out)],
                 ["certify", "--config", cfg, "--snapshot", str(tmp_path / "missing.bin"),
                  "--out", str(out), "--optimize", "full"]):
        err = _one_line_error(capsys, argv, EXIT_CONFIG)
        assert err.startswith(f"config error at $['majorant']['optimizeConfig']{where}: ")
        assert (key in err) if not where else ("too long" in err)
    assert not out.exists()


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_full_optimization_refuses_z_tilde_before_it_loads_a_trajectory(
        tmp_path, capsys, monkeypatch, theorem):
    # |<Ktilde(0), curl e(0)>| has no gradient in Y: with a Y step due the
    # admission refuses it, before a load and before the output directory;
    # with no sweep it reports
    from maxbound import snapshot

    doc = _poly_doc({"theorem": theorem, "zeroTermVariant": "z_tilde"})
    doc["majorant"]["optimizeConfig"]["sweeps"] = 0
    code, err, bound = _poly_certify(tmp_path, capsys, doc, "full")
    assert code == EXIT_OK and bound > 0.0, err
    doc["majorant"]["optimizeConfig"]["sweeps"] = 1
    cfg = _write(tmp_path, "z_tilde.json", doc)
    names = []
    monkeypatch.setattr(snapshot._Stored, "load", lambda self: names.append(self.name))
    out = tmp_path / "out"
    err = _one_line_error(capsys, ["certify", "--config", cfg, "--snapshot",
                                   str(tmp_path / "full" / "snapshot.bin"), "--out", str(out),
                                   "--optimize", "full"], EXIT_CONFIG)
    assert err == "config error: Y-optimization needs a smooth zero-term variant, got 'z_tilde'\n"
    assert names == [] and not out.exists()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_full_optimization_of_an_independent_velocity_certifies_a_bound_or_refuses(
        tmp_path, capsys):
    # a snapshot written elsewhere: E~ perturbed by 1e-2 poly_t2, E~_t left
    # exact, so that E~_t is not dE~/dt; today b < trueN at 12 of 17 rows
    doc = _poly_doc()
    del doc["perturbation"]
    cfg = _write(tmp_path, "run.json", doc)
    grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 17, 1.0)
    exact = mb.project_exact(mb.polynomial_source(), grid)
    snap = str(tmp_path / "independent.bin")
    mb.save_snapshot(snap, grid, mb.SolveOutput(mb.perturb(exact.Etilde, 1e-2, "poly_t2"),
                                                exact.Htilde, exact.Etilde_t))
    out = str(tmp_path / "out")
    code = main(["certify", "--config", cfg, "--snapshot", snap, "--out", out,
                 "--optimize", "full"])
    capsys.readouterr()
    if code != EXIT_OK:
        return
    with open(os.path.join(out, "report.json")) as fh:
        rows = json.load(fh)["rows"]
    assert all(row["bound_b"] >= row["trueN"] for row in rows)
