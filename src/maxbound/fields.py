"""Staggered-grid field containers and material tensors.

Electric-type quantities live on cell edges, magnetic-type quantities on
cell faces of a uniform rectangular grid covering the box
(0, lx) x (0, ly) x (0, lz).  Time samples sit on a uniform node grid
t_k = k * dt over [0, T].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

EDGE = "edge"
FACE = "face"
_COMPONENTS = ("x", "y", "z")


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
        for name in ("lx", "ly", "lz", "T"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")

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

    def edge_shape(self, comp):
        nx, ny, nz = self.nx, self.ny, self.nz
        return {
            "x": (nx, ny + 1, nz + 1),
            "y": (nx + 1, ny, nz + 1),
            "z": (nx + 1, ny + 1, nz),
        }[comp]

    def face_shape(self, comp):
        nx, ny, nz = self.nx, self.ny, self.nz
        return {
            "x": (nx + 1, ny, nz),
            "y": (nx, ny + 1, nz),
            "z": (nx, ny, nz + 1),
        }[comp]

    def shape(self, kind, comp):
        return self.edge_shape(comp) if kind == EDGE else self.face_shape(comp)

    def component_coords(self, kind, comp):
        """Physical coordinates (meshgrids, ij indexing) of the dofs of one component."""
        h = (self.hx, self.hy, self.hz)
        n = (self.nx, self.ny, self.nz)
        # Edge components are staggered along their own axis, face components
        # along the two transverse axes.
        axes = []
        own = _COMPONENTS.index(comp)
        for d in range(3):
            staggered = (d == own) if kind == EDGE else (d != own)
            if staggered:
                axes.append((np.arange(n[d]) + 0.5) * h[d])
            else:
                axes.append(np.arange(n[d] + 1) * h[d])
        return np.meshgrid(*axes, indexing="ij")


@dataclass
class StaggeredField:
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
            comps.append(np.asarray(f(X, Y, Z), dtype=float) + np.zeros(X.shape))
        return cls(kind, *comps)

    def components(self):
        return (self.x, self.y, self.z)

    def check_extents(self, grid):
        for c, arr in zip(_COMPONENTS, self.components()):
            if arr.shape != grid.shape(self.kind, c):
                raise DimensionError(
                    f"{self.kind} component {c}: shape {arr.shape} does not "
                    f"match grid layout {grid.shape(self.kind, c)}"
                )

    def copy(self):
        return StaggeredField(self.kind, self.x.copy(), self.y.copy(), self.z.copy())

    def _binary(self, other, op):
        if isinstance(other, StaggeredField):
            if other.kind != self.kind:
                raise DimensionError(f"kind mismatch: {self.kind} vs {other.kind}")
            return StaggeredField(
                self.kind,
                op(self.x, other.x),
                op(self.y, other.y),
                op(self.z, other.z),
            )
        return StaggeredField(self.kind, op(self.x, other), op(self.y, other), op(self.z, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return StaggeredField(self.kind, self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


@dataclass
class FieldTrajectory:
    """Time-indexed staggered field: component arrays with a leading time axis."""

    kind: str
    grid: GridSpec
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        nt = self.grid.nt
        for c, arr in zip(_COMPONENTS, (self.x, self.y, self.z)):
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
        traj = cls.zeros(grid, kind)
        for k, t in enumerate(grid.times):
            for dst, src in zip(traj.components(), sampler(t).components()):
                dst[k] = src
        return traj

    def __len__(self):
        return self.grid.nt

    def node(self, k):
        return StaggeredField(self.kind, self.x[k], self.y[k], self.z[k])

    def components(self):
        return (self.x, self.y, self.z)

    def check_extents(self, grid):
        for c, arr in zip(_COMPONENTS, self.components()):
            if arr.shape[1:] != grid.shape(self.kind, c):
                raise DimensionError(
                    f"trajectory {self.kind} component {c}: shape {arr.shape[1:]} "
                    f"does not match grid layout {grid.shape(self.kind, c)}"
                )

    def copy(self):
        return FieldTrajectory(self.kind, self.grid, self.x.copy(), self.y.copy(), self.z.copy())

    def _binary(self, other, op):
        if isinstance(other, FieldTrajectory):
            if other.kind != self.kind:
                raise DimensionError(f"kind mismatch: {self.kind} vs {other.kind}")
            return FieldTrajectory(
                self.kind, self.grid, op(self.x, other.x), op(self.y, other.y), op(self.z, other.z)
            )
        return FieldTrajectory(self.kind, self.grid, op(self.x, other), op(self.y, other), op(self.z, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return FieldTrajectory(self.kind, self.grid, self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__


@dataclass
class MaterialField:
    """Symmetric positive-definite 3x3 tensor per cell (scalar / diagonal / full).

    values shape: (nx, ny, nz) for scalar, (nx, ny, nz, 3) for diagonal,
    (nx, ny, nz, 3, 3) for full tensors.
    """

    kind: str
    values: np.ndarray
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)
    # dof-located coefficients by (field kind, component), filled on first use
    dof_cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.kind == "scalar":
            lam_min, lam_max = float(v.min()), float(v.max())
        elif self.kind == "diagonal":
            lam_min, lam_max = float(v.min()), float(v.max())
        elif self.kind == "full":
            asym = np.abs(v - np.swapaxes(v, -1, -2)).max()
            if asym > 0:
                raise ParameterError(f"material tensor not symmetric (max |a_ij - a_ji| = {asym})")
            eig = np.linalg.eigvalsh(v)
            lam_min, lam_max = float(eig.min()), float(eig.max())
        else:
            raise ParameterError(f"unknown material kind {self.kind!r}")
        if lam_min <= 0:
            raise ParameterError(f"material not positive definite (min eigenvalue {lam_min})")
        self.lambda_min = lam_min
        self.lambda_max = lam_max

    @classmethod
    def scalar(cls, grid, value):
        return cls("scalar", np.full((grid.nx, grid.ny, grid.nz), float(value)))

    @classmethod
    def identity(cls, grid):
        return cls.scalar(grid, 1.0)

    @classmethod
    def diagonal(cls, grid, dx, dy, dz):
        v = np.empty((grid.nx, grid.ny, grid.nz, 3))
        v[..., 0], v[..., 1], v[..., 2] = dx, dy, dz
        return cls("diagonal", v)

    @classmethod
    def full(cls, grid, tensor):
        t = np.asarray(tensor, dtype=float)
        if t.shape == (3, 3):
            t = np.broadcast_to(t, (grid.nx, grid.ny, grid.nz, 3, 3)).copy()
        return cls("full", t)

    def inverse(self):
        if self.kind == "full":
            inv = np.linalg.inv(self.values)
            inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
            return MaterialField("full", inv)
        return MaterialField(self.kind, 1.0 / self.values)

    def is_identity(self):
        if self.kind == "scalar":
            return bool(np.all(self.values == 1.0))
        if self.kind == "diagonal":
            return bool(np.all(self.values == 1.0))
        eye = np.eye(3)
        return bool(np.all(self.values == eye))

    def apply_cells(self, v):
        """Apply the tensor to a cell-centered vector array of shape (..., 3)."""
        if self.kind == "scalar":
            return v * self.values[..., None]
        if self.kind == "diagonal":
            return v * self.values
        return np.einsum("...ij,...j->...i", self.values, v)

    def component_values(self, comp):
        """Per-cell coefficient seen by one Cartesian component (scalar/diagonal only)."""
        if self.kind == "scalar":
            return self.values
        if self.kind == "diagonal":
            return self.values[..., _COMPONENTS.index(comp)]
        raise ParameterError(
            "full-tensor materials cannot be applied componentwise to staggered fields"
        )
