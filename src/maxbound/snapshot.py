"""Self-describing binary archive for solver field trajectories.

Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON
header (format version, grid parameters, ordered array directory), then
the raw little-endian float64 component arrays in directory order, each
time first, so node k of a component is one contiguous slice.  The format
round-trips bit-exactly and needs no external dependencies.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import GridMismatchError, MaxboundError, ParameterError
from .fields import EDGE, FACE, FieldTrajectory, GridSpec, StaggeredField
from .solver import SolveOutput

MAGIC = b"MXBSNAP1"
FORMAT_VERSION = 1

_COMPONENTS = ("x", "y", "z")
_FIELDS = (("Etilde", EDGE), ("Htilde", FACE), ("Etilde_t", EDGE), ("Htilde_t", FACE))
# values per block of the finiteness check, whose memory is thus fixed
_BLOCK = 1 << 17


def _grid_dict(grid):
    return {key: getattr(grid, key) for key in ("nx", "ny", "nz", "lx", "ly", "lz", "nt", "T")}


def _header(grid, names):
    """The header bytes of an archive holding the named fields."""
    directory = [{"field": name, "component": comp, "kind": kind,
                  "shape": [grid.nt, *grid.shape(kind, comp)]}
                 for name, kind in _FIELDS if name in names for comp in _COMPONENTS]
    return json.dumps({"magic": MAGIC.decode("ascii"), "version": FORMAT_VERSION,
                       "grid": _grid_dict(grid), "arrays": directory}, sort_keys=True).encode()


class _Stored:
    """One archived trajectory: node k of each component at offset + k * node bytes."""

    def __init__(self, fh, grid, name, kind, offset):
        self.grid, self.name, self.kind, self._fh, self.written = grid, name, kind, fh, set()
        self._shapes = [grid.shape(kind, comp) for comp in _COMPONENTS]
        self._node_bytes = [8 * int(np.prod(shape)) for shape in self._shapes]
        self._offsets = [offset + grid.nt * sum(self._node_bytes[:i]) for i in range(3)]
        self.end = offset + grid.nt * sum(self._node_bytes)

    def _seek(self, i, k):
        self._fh.seek(self._offsets[i] + k * self._node_bytes[i])
        return self._shapes[i]

    def set_node(self, k, f):
        """Write node k; a non-finite value is refused, as the reader would."""
        for comp, arr in zip(_COMPONENTS, f.components()):
            if not np.isfinite(arr).all():
                raise GridMismatchError(f"node {k} of {self.name}.{comp} holds non-finite "
                                        "values; no snapshot written")
        for i, arr in enumerate(f.components()):
            self._seek(i, k)
            self._fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        self.written.add(k)

    def _read(self, i, k, count):
        arr = np.empty((count,) + self._seek(i, k), dtype="<f8")
        if self._fh.readinto(arr) != arr.nbytes:
            raise GridMismatchError(f"{self._fh.name}: snapshot shrank while it was read")
        return arr

    def node(self, k):
        return StaggeredField(self.kind, *(self._read(i, k, 1)[0] for i in range(3)))

    def load(self):
        return FieldTrajectory(self.kind, self.grid,
                               *(self._read(i, 0, self.grid.nt) for i in range(3)))


def _layout(fh, grid, names, base):
    """{field: _Stored} of the named fields laid out from byte base, and the end."""
    stored = {}
    for name, kind in _FIELDS:
        if name in names:
            stored[name] = _Stored(fh, grid, name, kind, base)
            base = stored[name].end
    return stored, base


@contextlib.contextmanager
def snapshot_writer(path, grid, names):
    """Yield a SolveOutput whose named fields (the others None) take node k
    by set_node(k, field) and write it to its place in a temporary sibling
    of path.  That file is moved onto path only when the block ends with
    every node written, and removed otherwise: path never holds a partial
    archive."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    raw = _header(grid, names)
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", len(raw)) + raw)
            sinks, _ = _layout(fh, grid, names, fh.tell())
            yield SolveOutput(**sinks)
            if any(len(s.written) != grid.nt for s in sinks.values()):
                raise MaxboundError(f"{path}: nodes were left unwritten; no snapshot written")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_snapshot(path, grid, output):
    """Write the solver output trajectories for the given grid to path."""
    names = [name for name, _ in _FIELDS if getattr(output, name) is not None]
    with snapshot_writer(path, grid, names) as out:
        for name in names:
            for k in range(grid.nt):
                getattr(out, name).set_node(k, getattr(output, name).node(k))


@contextlib.contextmanager
def snapshot_reader(path, grid=None):
    """Open an archive; yields (GridSpec, SolveOutput) whose fields read
    node k from the file on node(k), or all nodes on load().  First it
    checks magic, version, that the header is byte for byte the writer's,
    the grid (against `grid` when supplied), the exact file size and that
    every value is finite, raising GridMismatchError on any failure."""
    path = os.fspath(path)
    with contextlib.ExitStack() as stack:
        try:
            fh = stack.enter_context(open(path, "rb"))
            stored, fields = _check(fh, path, grid)
        except OSError as exc:
            raise GridMismatchError(f"{path}: cannot read snapshot: {exc.strerror}") from None
        yield stored, SolveOutput(**fields)


def _check(fh, path, grid):
    """The archived grid and {field: _Stored} of a fully checked archive."""
    if fh.read(len(MAGIC)) != MAGIC:
        raise GridMismatchError(f"{path}: not a field snapshot archive")
    try:
        (hlen,) = struct.unpack("<I", fh.read(4))
        raw = fh.read(hlen)
        header = json.loads(raw.decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise GridMismatchError(f"{path}: unsupported snapshot version "
                                    f"{header.get('version')}")
        gd = header["grid"]
        stored = GridSpec(int(gd["nx"]), int(gd["ny"]), int(gd["nz"]),
                          gd["lx"], gd["ly"], gd["lz"], int(gd["nt"]), gd["T"])
        names = [entry["field"] for entry in header["arrays"]]
        if header["magic"] != MAGIC.decode("ascii") or raw != _header(stored, names):
            raise ValueError("the header is not the one its contents are written with")
    except (struct.error, ValueError, KeyError, TypeError, AttributeError,
            ParameterError) as exc:
        raise GridMismatchError(f"{path}: corrupt snapshot header ({exc})") from None
    if grid is not None and _grid_dict(grid) != _grid_dict(stored):
        raise GridMismatchError(f"snapshot grid {_grid_dict(stored)} does not match "
                                f"configured grid {_grid_dict(grid)}")
    if not {"Etilde", "Htilde", "Etilde_t"} <= set(names):
        raise GridMismatchError(f"{path}: archive is missing required field trajectories")
    fields, end = _layout(fh, stored, names, fh.tell())
    size = os.fstat(fh.fileno()).st_size
    if size != end:
        raise GridMismatchError(f"{path}: " + ("truncated snapshot" if size < end else
                                              "trailing bytes after the last array"))
    buf = np.empty(_BLOCK, dtype="<f8")
    for entry in header["arrays"]:
        left = int(np.prod(entry["shape"]))
        while left:
            block = buf[: min(left, _BLOCK)]
            if fh.readinto(block) != block.nbytes:
                raise GridMismatchError(f"{path}: snapshot shrank while it was read")
            if not np.isfinite(block).all():
                raise GridMismatchError(
                    f"{path}: {entry['field']}.{entry['component']} holds non-finite values")
            left -= block.size
    return stored, fields


def load_snapshot(path, grid=None):
    """Read an archive into memory after every check of snapshot_reader;
    returns (GridSpec, SolveOutput)."""
    with snapshot_reader(path, grid) as (stored, out):
        fields = [getattr(out, name) for name, _ in _FIELDS]
        return stored, SolveOutput(*(None if f is None else f.load() for f in fields))
