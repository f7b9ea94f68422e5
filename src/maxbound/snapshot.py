"""Self-describing binary archive for solver field trajectories.

Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON
header (format version, grid parameters, ordered array directory), then
the raw little-endian float64 component arrays in directory order.  The
format round-trips bit-exactly and needs no external dependencies.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import GridMismatchError, ParameterError
from .fields import EDGE, FACE, FieldTrajectory, GridSpec
from .solver import SolveOutput

MAGIC = b"MXBSNAP1"
FORMAT_VERSION = 1

_COMPONENTS = ("x", "y", "z")
_FIELDS = (("Etilde", EDGE), ("Htilde", FACE), ("Etilde_t", EDGE), ("Htilde_t", FACE))


def _grid_dict(grid):
    return {
        "nx": grid.nx, "ny": grid.ny, "nz": grid.nz,
        "lx": grid.lx, "ly": grid.ly, "lz": grid.lz,
        "nt": grid.nt, "T": grid.T,
    }


def save_snapshot(path, grid, output):
    """Write the solver output trajectories for the given grid to path."""
    directory = []
    blobs = []
    for name, kind in _FIELDS:
        traj = getattr(output, name)
        if traj is None:
            continue
        for comp in _COMPONENTS:
            arr = np.ascontiguousarray(getattr(traj, comp), dtype="<f8")
            directory.append({"field": name, "component": comp, "kind": kind,
                              "shape": list(arr.shape)})
            blobs.append(arr)
    header = {
        "magic": MAGIC.decode("ascii"),
        "version": FORMAT_VERSION,
        "grid": _grid_dict(grid),
        "arrays": directory,
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for blob in blobs:
            fh.write(blob)  # the buffer itself, no bytes copy


def load_snapshot(path, grid=None):
    """Read an archive; returns (GridSpec, SolveOutput).

    When a grid is supplied it must match the archived one exactly.  An
    unreadable, truncated or corrupt archive, one with bytes after its last
    array, or one holding non-finite values, raises GridMismatchError.
    """
    try:
        with open(path, "rb") as fh:
            stored, fields = _read_archive(fh, path, grid)
    except OSError as exc:
        raise GridMismatchError(f"{path}: cannot read snapshot: {exc.strerror}") from None

    trajs = {}
    for name, kind in _FIELDS:
        comps = fields.get(name)
        if comps is not None and len(comps) != len(_COMPONENTS):
            raise GridMismatchError(f"{path}: {name} lacks components")
        trajs[name] = None if comps is None else FieldTrajectory(
            kind, stored, comps["x"], comps["y"], comps["z"])
    if trajs["Etilde"] is None or trajs["Htilde"] is None or trajs["Etilde_t"] is None:
        raise GridMismatchError(f"{path}: archive is missing required field trajectories")
    return stored, SolveOutput(trajs["Etilde"], trajs["Htilde"], trajs["Etilde_t"],
                               trajs["Htilde_t"])


def _read_archive(fh, path, grid):
    """Header grid and {field: {component: array}} of an open archive."""
    if fh.read(len(MAGIC)) != MAGIC:
        raise GridMismatchError(f"{path}: not a field snapshot archive")
    try:
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise GridMismatchError(
                f"{path}: unsupported snapshot version {header.get('version')}"
            )
        gd = header["grid"]
        stored = GridSpec(gd["nx"], gd["ny"], gd["nz"], gd["lx"], gd["ly"], gd["lz"],
                          gd["nt"], gd["T"])
        entries = [(e["field"], e["component"], tuple(e["shape"])) for e in header["arrays"]]
    except (struct.error, ValueError, KeyError, TypeError, AttributeError,
            ParameterError) as exc:
        raise GridMismatchError(f"{path}: corrupt snapshot header ({exc})") from None
    if grid is not None and _grid_dict(grid) != _grid_dict(stored):
        raise GridMismatchError(
            f"snapshot grid {_grid_dict(stored)} does not match configured "
            f"grid {_grid_dict(grid)}"
        )
    kinds = dict(_FIELDS)
    fields = {}
    for name, comp, shape in entries:
        if name not in kinds or comp not in _COMPONENTS:
            raise GridMismatchError(f"{path}: unknown array {name}.{comp}")
        expect = (stored.nt,) + stored.shape(kinds[name], comp)
        if shape != expect:
            raise GridMismatchError(f"{path}: {name}.{comp} has shape {shape}, expected {expect}")
        data = np.empty(expect, dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise GridMismatchError(f"{path}: truncated snapshot, {name}.{comp} is incomplete")
        if not np.isfinite(data).all():
            raise GridMismatchError(f"{path}: {name}.{comp} holds non-finite values")
        fields.setdefault(name, {})[comp] = data
    if fh.read(1):
        raise GridMismatchError(f"{path}: trailing bytes after the last array")
    return stored, fields
