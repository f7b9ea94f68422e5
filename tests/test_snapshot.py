"""Binary field archive round trips and mismatch detection."""

import json
import os

import numpy as np
import pytest

import maxbound as mb
from maxbound.cli import main
from maxbound.config import load_config, problem_from_config
from maxbound.errors import GridMismatchError, MaxboundError
from maxbound.fields import EDGE, FieldTrajectory
from maxbound.problem import bump_field, bump_field_dt
from maxbound.snapshot import load_snapshot, save_snapshot, snapshot_writer
from maxbound.solver import SolveOutput

from conftest import cavity_setup


def test_round_trip_is_bit_exact(tmp_path):
    # a leapfrog output holds three trajectories, an exact projection four
    p, approx, exact = cavity_setup(6, 13)
    for label, output in (("leapfrog", approx), ("exact", exact)):
        path = tmp_path / f"{label}.bin"
        save_snapshot(path, p.grid, output)
        grid, back = load_snapshot(path)
        assert grid == p.grid
        for name in ("Etilde", "Htilde", "Etilde_t", "Htilde_t"):
            a, b = getattr(output, name), getattr(back, name)
            if label == "leapfrog" and name == "Htilde_t":
                assert a is None and b is None
                continue
            for ca, cb in zip(a.components(), b.components()):
                assert np.array_equal(ca, cb)


def test_round_trip_without_the_optional_magnetic_derivative(tmp_path):
    p, approx, _ = cavity_setup(6, 13)
    partial = SolveOutput(approx.Etilde, approx.Htilde, approx.Etilde_t, None)
    path = tmp_path / "partial.bin"
    save_snapshot(path, p.grid, partial)
    _, back = load_snapshot(path)
    assert back.Htilde_t is None


def test_grid_mismatch_is_rejected(tmp_path):
    p, approx, _ = cavity_setup(6, 13)
    path = tmp_path / "run.bin"
    save_snapshot(path, p.grid, approx)
    other = mb.GridSpec(8, 6, 6, 1.0, 1.0, 1.0, 13, 1.0)
    with pytest.raises(GridMismatchError):
        load_snapshot(path, other)


def test_non_archive_file_is_rejected(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"definitely not an archive")
    with pytest.raises(GridMismatchError):
        load_snapshot(path)


def test_unsupported_version_is_rejected(tmp_path):
    import json
    import struct

    from maxbound.snapshot import MAGIC

    header = json.dumps({"version": 99, "grid": {}, "arrays": []}).encode()
    path = tmp_path / "future.bin"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(GridMismatchError):
        load_snapshot(path)


def _in_memory(p, case, doc):
    """The solver output of a run config, built from whole trajectories."""
    if doc.get("solver", {}).get("method") != "exact":
        return mb.leapfrog_solve(p)
    out = mb.project_exact(case, p.grid)
    key, delta, grid = doc["perturbation"]["bump"], doc["perturbation"]["delta"], p.grid
    shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field(key, grid, t))
    shift_dt = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field_dt(key, grid, t))
    return SolveOutput(out.Etilde + delta * shift, out.Htilde, out.Etilde_t + delta * shift_dt,
                       out.Htilde_t)


@pytest.mark.parametrize("doc", [
    {"case": {"name": "cavity_mode"}},
    {"case": {"name": "polynomial_source"}, "solver": {"method": "exact"},
     "perturbation": {"bump": "poly_t2", "delta": 0.01}},
], ids=["leapfrog-cavity", "perturbed-exact"])
def test_a_streamed_snapshot_is_byte_identical_to_the_in_memory_one(tmp_path, doc):
    doc = dict(doc, grid={"nx": 6, "ny": 6, "nz": 6, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                          "nt": 13, "T": 1.0})
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    p, case = problem_from_config(load_config(str(cfg)))
    save_snapshot(tmp_path / "memory.bin", p.grid, _in_memory(p, case, doc))
    streamed = (tmp_path / "snapshot.bin").read_bytes()
    assert streamed == (tmp_path / "memory.bin").read_bytes()


def test_a_write_that_misses_nodes_or_fails_leaves_no_file(tmp_path):
    p, approx, _ = cavity_setup(6, 13)
    path = tmp_path / "run.bin"
    names = ("Etilde", "Htilde", "Etilde_t")
    with pytest.raises(MaxboundError):
        with snapshot_writer(path, p.grid, names) as out:
            for name in names:  # every node but the last
                for k in range(p.grid.nt - 1):
                    getattr(out, name).set_node(k, getattr(approx, name).node(k))
    with pytest.raises(KeyboardInterrupt):
        with snapshot_writer(path, p.grid, names) as out:
            out.Etilde.set_node(0, approx.Etilde.node(0))
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == []
