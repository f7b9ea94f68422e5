"""Binary field archive round trips and mismatch detection."""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

import maxbound as mb
from maxbound.cli import main
from maxbound.config import load_config, problem_from_config
from maxbound.errors import GridMismatchError, MaxboundError
from maxbound.fields import EDGE, FieldTrajectory
from maxbound.problem import bump_field, bump_field_dt
from maxbound.snapshot import load_snapshot, save_snapshot, snapshot_reader, snapshot_writer
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


class _YieldingFile:
    """A file whose seek lets the other threads run before the read at it."""

    def __init__(self, fh):
        self._fh = fh

    def seek(self, pos):
        self._fh.seek(pos)
        time.sleep(1e-4)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_threads_reading_one_open_archive_each_read_their_own_node(tmp_path, helper_thread,
                                                                  monkeypatch):
    # certify's helper thread reads the exact reference while the caller
    # reads the approximation: here both from one open file, whose position
    # the other thread may move between a seek and the read at it
    p, approx, _ = cavity_setup(8, 33)
    path = tmp_path / "snapshot.bin"
    save_snapshot(path, p.grid, approx)
    with snapshot_reader(path, p.grid) as (_, held):
        shared = _YieldingFile(held.Etilde._fh)
        for name in ("Etilde", "Htilde", "Etilde_t"):
            monkeypatch.setattr(getattr(held, name), "_fh", shared)
        for _ in range(20):
            report = mb.certify(p, held, mb.MajorantParams(), "T5", exact=held)
            assert np.array_equal(report.trueN, np.zeros(p.grid.nt))
    assert helper_thread and all(helper_thread)


def test_more_threads_than_cores_each_read_their_own_node(tmp_path, monkeypatch):
    p, approx, _ = cavity_setup(6, 13)
    path = tmp_path / "snapshot.bin"
    save_snapshot(path, p.grid, approx)
    names = ("Etilde", "Htilde", "Etilde_t") * 2
    wrong = []
    with snapshot_reader(path, p.grid) as (_, held):
        shared = _YieldingFile(held.Etilde._fh)
        for name in set(names):
            monkeypatch.setattr(getattr(held, name), "_fh", shared)

        def read(name):
            for k in list(range(p.grid.nt)) * 3:
                got, want = getattr(held, name).node(k), getattr(approx, name).node(k)
                if not all(map(np.array_equal, got.components(), want.components())):
                    wrong.append((name, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(name,)) for name in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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
