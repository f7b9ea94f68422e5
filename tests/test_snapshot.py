"""Binary field archive round trips and mismatch detection."""

import numpy as np
import pytest

import maxbound as mb
from maxbound.errors import GridMismatchError
from maxbound.snapshot import load_snapshot, save_snapshot
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
