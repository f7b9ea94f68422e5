"""End-to-end command-line workflows, exit codes, and report determinism."""

import csv
import json
import os

import numpy as np
import pytest

from maxbound.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STABILITY,
    EXIT_VERIFY_FAIL,
    main,
)


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


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    # schema violation
    bad = _cavity_cfg()
    bad["grid"]["nt"] = 1
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    # missing config
    assert main(["solve"]) == EXIT_CONFIG

    # unstable time step
    unstable = _cavity_cfg(n=16, nt=5)
    cfg = _write(tmp_path, "unstable.json", unstable)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_STABILITY

    capsys.readouterr()


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
    cfg = _write(tmp_path, "verify.json", doc)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()


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


_CONSTANT = {"kind": "constant", "value": 1.0}


@pytest.mark.parametrize("spec", [
    {"cases": [{"name": "x"}]},
    {"cases": [{"phi": _CONSTANT, "psi": _CONSTANT, "nt": 1}]},
    {"cases": [{"phi": {"kind": "constant", "value": "a"}, "psi": _CONSTANT}]},
    {"cases": "abc"},
], ids=["missing-phi", "one-node", "string-value", "cases-not-a-list"])
def test_malformed_gronwall_spec_is_a_config_error(tmp_path, capsys, spec):
    path = _write(tmp_path, "check.json", spec)
    capsys.readouterr()
    assert main(["gronwall", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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


def test_unknown_case_parameter_is_a_config_error(tmp_path, capsys):
    doc = _cavity_cfg(n=4, nt=9)
    doc["case"]["parameters"] = {"bogus": 1}
    cfg = _write(tmp_path, "bogus.json", doc)
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bogus" in err and "Traceback" not in err
