"""Staggered-grid field containers and per-cell material coefficients.

Electric-type quantities live on cell edges, magnetic-type quantities on
cell faces of a uniform rectangular grid covering the box
(0, lx) x (0, ly) x (0, lz).  Time samples sit on a uniform node grid
t_k = k * dt over [0, T].

The Yee layout is one rule, nodal_axes: a component sits on the n + 1 grid
nodes along the axes across its edge (two) or its face (one), and on the n
cell midpoints along the others.  Grid shapes, dof coordinates, the cell
average and its adjoint (the two dofs across each nodal axis) and the
tangential trace (both ends of an edge component's nodal axes) all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, ParameterError

EDGE = "edge"
FACE = "face"
_COMPONENTS = ("x", "y", "z")
# the most float64 values one numpy array can hold: its bytes must fit an intp
MAX_FLOATS = np.iinfo(np.intp).max // 8


def nodal_axes(kind, i):
    """The axes along which component i of a field of this kind sits on grid
    nodes: the two axes across an edge, the one axis across a face."""
    return _NODAL_AXES[kind, i]


_NODAL_AXES = {(kind, i): tuple(d for d in range(3) if (d == i) == (kind == FACE))
               for kind in (EDGE, FACE) for i in range(3)}


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: cell counts, box edge lengths, time nodes."""

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float
    nt: int
    T: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            if getattr(self, name) < 2:
                raise ParameterError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.nt < 2:
            raise ParameterError(f"nt must be >= 2, got {self.nt}")
        if self.nt * 3 * math.prod(n + 1 for n in (self.nx, self.ny, self.nz)) > MAX_FLOATS:
            # the nt rows of a trajectory's dofs are one array
            raise ParameterError(f"a {self.nx}x{self.ny}x{self.nz} grid with {self.nt} time "
                                 "nodes is too large for its trajectories to fit an array")
        for name in ("lx", "ly", "lz", "T"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if not min(self.hx, self.hy, self.hz, self.dt) > 0:
            raise ParameterError("a cell size or the time step underflows to 0")
        if not all(math.isfinite(length * length) for length in (self.lx, self.ly, self.lz)):
            # the case profiles and the stability limit square the lengths
            raise ParameterError("a box length squared overflows")
        if not 0.0 < self.cell_volume < math.inf:
            # every norm is a sum times the cell volume
            raise ParameterError(f"the cell volume {self.cell_volume} is not finite and positive")
        n = (self.nx, self.ny, self.nz)
        object.__setattr__(self, "_shapes", {
            (kind, c): tuple(n[d] + (d in nodal_axes(kind, i)) for d in range(3))
            for kind in (EDGE, FACE) for i, c in enumerate(_COMPONENTS)})

    @property
    def hx(self):
        return self.lx / self.nx

    @property
    def hy(self):
        return self.ly / self.ny

    @property
    def hz(self):
        return self.lz / self.nz

    @property
    def dt(self):
        return self.T / (self.nt - 1)

    @property
    def cell_volume(self):
        return self.hx * self.hy * self.hz

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.nt)

    def shape(self, kind, comp):
        """Dof counts of one component: n + 1 along its nodal axes, n along the others."""
        return self._shapes[kind, comp]

    def component_coords(self, kind, comp):
        """Physical coordinates (sparse meshgrids, ij indexing) of the dofs of one component."""
        h = (self.hx, self.hy, self.hz)
        nodal = nodal_axes(kind, _COMPONENTS.index(comp))
        axes = [(np.arange(m) + (d not in nodal) * 0.5) * h[d]
                for d, m in enumerate(self.shape(kind, comp))]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


class _Components:
    """Elementwise arithmetic of a field kind with component arrays x, y, z.

    Results are rebuilt through dataclasses.replace, so they keep every
    other attribute and pass the constructor's shape check; the augmented
    operators (+=, -=, *=) write into the left operand's own arrays.
    _LEAD is the number of axes ahead of the three spatial ones.
    """

    _LEAD = 0

    def components(self):
        return (self.x, self.y, self.z)

    def check_extents(self, grid):
        for c, arr in zip(_COMPONENTS, self.components()):
            shape = arr.shape[self._LEAD:]
            if shape != grid.shape(self.kind, c):
                raise DimensionError(
                    f"{type(self).__name__} {self.kind} component {c}: shape {shape} "
                    f"does not match grid layout {grid.shape(self.kind, c)}"
                )

    def copy(self):
        return replace(self, x=self.x.copy(), y=self.y.copy(), z=self.z.copy())

    def apply(self, op, other, out=None):
        """The ufunc op of this field and other (a field of the same kind or a
        scalar) componentwise: into new arrays, or into the field out."""
        is_field = isinstance(other, _Components)
        if is_field and other.kind != self.kind:
            raise DimensionError(f"kind mismatch: {self.kind} vs {other.kind}")
        pairs = zip(self.components(), other.components() if is_field else (other,) * 3)
        if out is None:
            return replace(self, **{c: op(a, b) for c, (a, b) in zip(_COMPONENTS, pairs)})
        for (a, b), o in zip(pairs, out.components()):
            op(a, b, out=o)
        return out

    def __add__(self, other):
        return self.apply(np.add, other)

    def __sub__(self, other):
        return self.apply(np.subtract, other)

    def __mul__(self, scalar):
        return self.apply(np.multiply, scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __iadd__(self, other):
        return self.apply(np.add, other, self)

    def __isub__(self, other):
        return self.apply(np.subtract, other, self)

    def __imul__(self, scalar):
        return self.apply(np.multiply, scalar, self)


@dataclass
class StaggeredField(_Components):
    """Three component arrays on Yee edge or face locations."""

    kind: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if self.kind not in (EDGE, FACE):
            raise DimensionError(f"unknown field kind {self.kind!r}")

    @classmethod
    def zeros(cls, grid, kind):
        return cls(kind, *(np.zeros(grid.shape(kind, c)) for c in _COMPONENTS))

    @classmethod
    def sample(cls, grid, kind, fx, fy, fz):
        """Sample three scalar callables f(x, y, z) at the component dofs."""
        comps = []
        for c, f in zip(_COMPONENTS, (fx, fy, fz)):
            X, Y, Z = grid.component_coords(kind, c)
            # f may not read all three sparse axes; adding zeros fills the rest
            comps.append(np.asarray(f(X, Y, Z), dtype=float) + np.zeros(grid.shape(kind, c)))
        return cls(kind, *comps)


@dataclass
class FieldTrajectory(_Components):
    """Time-indexed staggered field: component arrays with a leading time axis."""

    kind: str
    grid: GridSpec
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    _LEAD = 1

    def __post_init__(self):
        nt = self.grid.nt
        for c, arr in zip(_COMPONENTS, self.components()):
            want = (nt,) + self.grid.shape(self.kind, c)
            if arr.shape != want:
                raise DimensionError(
                    f"trajectory component {c}: shape {arr.shape}, expected {want}"
                )

    @classmethod
    def zeros(cls, grid, kind):
        return cls(
            kind,
            grid,
            *(np.zeros((grid.nt,) + grid.shape(kind, c)) for c in _COMPONENTS),
        )

    @classmethod
    def from_fields(cls, grid, fields):
        if len(fields) != grid.nt:
            raise DimensionError(f"expected {grid.nt} samples, got {len(fields)}")
        kind = fields[0].kind
        comps = []
        for c in _COMPONENTS:
            comps.append(np.stack([getattr(f, c) for f in fields]))
        return cls(kind, grid, *comps)

    @classmethod
    def sample(cls, grid, kind, sampler):
        """Build from a callable sampler(t) -> StaggeredField, node by node."""
        return NodeSource.sampled(grid, kind, lambda g, t: sampler(t)).load()

    def __len__(self):
        return self.grid.nt

    def load(self):
        """The whole trajectory, as NodeSource.load gives it: this one."""
        return self

    def node(self, k):
        return StaggeredField(self.kind, self.x[k], self.y[k], self.z[k])

    def set_node(self, k, f):
        """Copy the StaggeredField f into node k."""
        for dst, src in zip(self.components(), f.components()):
            dst[k] = src


class NodeSource:
    """A trajectory holding no node: node(k) makes node k, load() all of them."""

    def __init__(self, grid, kind, node):
        self.grid, self.kind, self.node = grid, kind, node

    @classmethod
    def sampled(cls, grid, kind, sample):
        """Node k is sample(grid, t_k)."""
        times = grid.times
        return cls(grid, kind, lambda k: sample(grid, times[k]))

    @classmethod
    def zeros(cls, grid, kind):
        """Every node is one shared read-only zero field, which holds one float."""
        zero = StaggeredField(kind, *(np.broadcast_to(0.0, grid.shape(kind, c))
                                      for c in _COMPONENTS))
        return cls(grid, kind, lambda k: zero)

    def load(self):
        traj = FieldTrajectory.zeros(self.grid, self.kind)
        for k in range(self.grid.nt):
            traj.set_node(k, self.node(k))
        return traj


@dataclass
class MaterialField:
    """Positive per-cell material coefficients: scalar or diagonal.

    values shape: (nx, ny, nz) for scalar, (nx, ny, nz, 3) for diagonal
    (one coefficient per Cartesian component).
    """

    kind: str
    values: np.ndarray
    lambda_max: float = field(init=False)
    # whether values are all ones (all identity matrices), set once from values
    _identity: bool = field(init=False, repr=False, compare=False)
    # dof-located coefficients by field kind, filled on first use
    dof_cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("scalar", "diagonal"):
            raise ParameterError(f"unknown material kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        lam_min, lam_max = float(v.min()), float(v.max())
        if not lam_min > 0:  # a NaN coefficient fails too
            raise ParameterError(f"material not positive definite (min eigenvalue {lam_min})")
        self.lambda_max = lam_max
        self._identity = lam_min == lam_max == 1.0

    @classmethod
    def scalar(cls, grid, value):
        return cls("scalar", np.full((grid.nx, grid.ny, grid.nz), float(value)))

    @classmethod
    def identity(cls, grid):
        """Ones in a read-only broadcast of one float: every path skips them."""
        return cls("scalar", np.broadcast_to(1.0, (grid.nx, grid.ny, grid.nz)))

    @classmethod
    def diagonal(cls, grid, dx, dy, dz):
        v = np.empty((grid.nx, grid.ny, grid.nz, 3))
        v[..., 0], v[..., 1], v[..., 2] = dx, dy, dz
        return cls("diagonal", v)

    def inverse(self):
        return MaterialField(self.kind, self.values if self._identity else 1.0 / self.values)

    def is_identity(self):
        return self._identity
