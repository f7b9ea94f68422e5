"""Problem assembly and the manufactured-solution catalog.

Catalog entries provide exact (E, H) pairs with their time derivatives
sampled on the staggered grid.  The box cavity modes are source-free
standing waves; the polynomial case carries manufactured sources chosen
so that every staggered difference stencil evaluates its derivatives
exactly (quadratic polynomials per coordinate), making the sampled exact
solution residual-free at the discrete level as well.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from .errors import DimensionError, UnsupportedCaseError
from .fields import EDGE, FACE, FieldTrajectory, GridSpec, MaterialField, StaggeredField
from .operators import (
    apply_material_staggered,
    curl_face_to_edge,
    trajectory_derivative,
)


@dataclass
class ManufacturedCase:
    """Named exact solution with closures sampling fields at time t."""

    name: str
    parameters: Dict[str, float]
    sample_E: Callable[[GridSpec, float], StaggeredField]
    sample_H: Callable[[GridSpec, float], StaggeredField]
    sample_dtE: Callable[[GridSpec, float], StaggeredField]
    sample_dtH: Callable[[GridSpec, float], StaggeredField]
    sample_F: Callable[[GridSpec, float], StaggeredField]
    sample_G: Callable[[GridSpec, float], StaggeredField]
    requires_unit_materials: bool = True


@dataclass
class ProblemData:
    """Grid, materials, sources and the derived second-order data."""

    grid: GridSpec
    eps: MaterialField
    mu: MaterialField
    eps_inv: MaterialField = field(repr=False)
    mu_inv: MaterialField = field(repr=False)
    F: FieldTrajectory = field(repr=False)
    G: FieldTrajectory = field(repr=False)
    E0: StaggeredField = field(repr=False)
    H0: StaggeredField = field(repr=False)
    K: FieldTrajectory = field(repr=False)
    E0prime: StaggeredField = field(repr=False)


def _zero(grid, kind):
    return lambda g, t: StaggeredField.zeros(g, kind)


def cavity_mode(m=1, n=1, amplitude=1.0):
    """Source-free TM standing mode of the unit-material box cavity.

    E = (0, 0, A sin(m pi x / lx) sin(n pi y / ly) cos(w t)) with
    w = pi sqrt((m / lx)^2 + (n / ly)^2); H follows from the magnetic
    equation with G = 0.  Requires eps = mu = identity.
    """
    if m < 1 or n < 1:
        raise UnsupportedCaseError(f"cavity mode indices must be positive, got ({m}, {n})")
    A = float(amplitude)

    def _omega(grid):
        return math.pi * math.hypot(m / grid.lx, n / grid.ly)

    def _bx(grid):
        return m * math.pi / grid.lx

    def _by(grid):
        return n * math.pi / grid.ly

    def sample_E(grid, t):
        w = _omega(grid)
        bx, by = _bx(grid), _by(grid)
        return StaggeredField.sample(
            grid,
            EDGE,
            lambda X, Y, Z: 0.0 * X,
            lambda X, Y, Z: 0.0 * X,
            lambda X, Y, Z: A * np.sin(bx * X) * np.sin(by * Y) * math.cos(w * t),
        )

    def sample_dtE(grid, t):
        w = _omega(grid)
        bx, by = _bx(grid), _by(grid)
        return StaggeredField.sample(
            grid,
            EDGE,
            lambda X, Y, Z: 0.0 * X,
            lambda X, Y, Z: 0.0 * X,
            lambda X, Y, Z: -A * w * np.sin(bx * X) * np.sin(by * Y) * math.sin(w * t),
        )

    def sample_H(grid, t):
        w = _omega(grid)
        bx, by = _bx(grid), _by(grid)
        s = math.sin(w * t) / w
        return StaggeredField.sample(
            grid,
            FACE,
            lambda X, Y, Z: -A * by * np.sin(bx * X) * np.cos(by * Y) * s,
            lambda X, Y, Z: A * bx * np.cos(bx * X) * np.sin(by * Y) * s,
            lambda X, Y, Z: 0.0 * X,
        )

    def sample_dtH(grid, t):
        w = _omega(grid)
        bx, by = _bx(grid), _by(grid)
        c = math.cos(w * t)
        return StaggeredField.sample(
            grid,
            FACE,
            lambda X, Y, Z: -A * by * np.sin(bx * X) * np.cos(by * Y) * c,
            lambda X, Y, Z: A * bx * np.cos(bx * X) * np.sin(by * Y) * c,
            lambda X, Y, Z: 0.0 * X,
        )

    return ManufacturedCase(
        name="cavity_mode",
        parameters={"m": m, "n": n, "amplitude": A},
        sample_E=sample_E,
        sample_H=sample_H,
        sample_dtE=sample_dtE,
        sample_dtH=sample_dtH,
        sample_F=_zero(None, EDGE),
        sample_G=_zero(None, FACE),
    )


def polynomial_source(amplitude=1.0):
    """Polynomial exact solution with manufactured sources and H = 0.

    E = (0, 0, A X(x) Y(y) q(t)) with X, Y quadratic bubbles and q
    quadratic in time; F := dE/dt and G := curl E keep both first-order
    equations satisfied with H identically zero.  All staggered stencils
    are exact on these polynomials, so the sampled solution has zero
    discrete residual.
    """
    A = float(amplitude)

    def _xy(grid):
        def X(x):
            return 4.0 * x * (grid.lx - x) / grid.lx**2

        def dX(x):
            return 4.0 * (grid.lx - 2.0 * x) / grid.lx**2

        def Y(y):
            return 4.0 * y * (grid.ly - y) / grid.ly**2

        def dY(y):
            return 4.0 * (grid.ly - 2.0 * y) / grid.ly**2

        return X, dX, Y, dY

    def _q(grid, t):
        s = t / grid.T
        return 1.0 + s + 0.5 * s * s

    def _dq(grid, t):
        return (1.0 + t / grid.T) / grid.T

    def sample_E(grid, t):
        X, _, Y, _ = _xy(grid)
        q = _q(grid, t)
        return StaggeredField.sample(
            grid,
            EDGE,
            lambda Xc, Yc, Zc: 0.0 * Xc,
            lambda Xc, Yc, Zc: 0.0 * Xc,
            lambda Xc, Yc, Zc: A * X(Xc) * Y(Yc) * q,
        )

    def sample_dtE(grid, t):
        X, _, Y, _ = _xy(grid)
        dq = _dq(grid, t)
        return StaggeredField.sample(
            grid,
            EDGE,
            lambda Xc, Yc, Zc: 0.0 * Xc,
            lambda Xc, Yc, Zc: 0.0 * Xc,
            lambda Xc, Yc, Zc: A * X(Xc) * Y(Yc) * dq,
        )

    def _curl_E_spatial(grid, scale):
        X, dX, Y, dY = _xy(grid)
        return StaggeredField.sample(
            grid,
            FACE,
            lambda Xc, Yc, Zc: A * X(Xc) * dY(Yc) * scale,
            lambda Xc, Yc, Zc: -A * dX(Xc) * Y(Yc) * scale,
            lambda Xc, Yc, Zc: 0.0 * Xc,
        )

    def sample_G(grid, t):
        return _curl_E_spatial(grid, _q(grid, t))

    return ManufacturedCase(
        name="polynomial_source",
        parameters={"amplitude": A},
        sample_E=sample_E,
        sample_H=_zero(None, FACE),
        sample_dtE=sample_dtE,
        sample_dtH=_zero(None, FACE),
        sample_F=sample_dtE,
        sample_G=sample_G,
    )


_CASE_BUILDERS = {
    "cavity_mode": cavity_mode,
    "polynomial_source": polynomial_source,
}


def get_case(name, **parameters):
    if name not in _CASE_BUILDERS:
        raise UnsupportedCaseError(
            f"unknown catalog case {name!r}; known: {sorted(_CASE_BUILDERS)}"
        )
    builder = _CASE_BUILDERS[name]
    try:
        inspect.signature(builder).bind(**parameters)
    except TypeError as exc:
        raise UnsupportedCaseError(f"catalog case {name!r}: {exc}") from None
    return builder(**parameters)


# ---------------------------------------------------------------------------
# perturbation bumps


def _bump_spatial(grid):
    bx = math.pi / grid.lx
    by = math.pi / grid.ly
    bz = math.pi / grid.lz
    return StaggeredField.sample(
        grid,
        EDGE,
        lambda X, Y, Z: 0.0 * X,
        lambda X, Y, Z: 0.0 * X,
        lambda X, Y, Z: np.sin(bx * X) * np.sin(by * Y) * (1.0 + 0.5 * np.cos(bz * Z)),
    )


def bump_field(key, grid, t):
    """Smooth edge-type bump with zero tangential trace, sampled at time t."""
    w = _bump_spatial(grid)
    if key == "poly_t2":
        return w * (t / grid.T) ** 2
    if key == "static":
        return w
    raise UnsupportedCaseError(f"unknown bump key {key!r}")


def bump_field_dt(key, grid, t):
    """Analytic time derivative of bump_field."""
    w = _bump_spatial(grid)
    if key == "poly_t2":
        return w * (2.0 * t / grid.T**2)
    if key == "static":
        return w * 0.0
    raise UnsupportedCaseError(f"unknown bump key {key!r}")


def perturb(traj, delta, bump):
    """Trajectory plus delta times the named bump sampled per node."""
    if delta == 0.0:
        return traj.copy()
    grid = traj.grid
    shift = FieldTrajectory.sample(grid, traj.kind, lambda t: bump_field(bump, grid, t))
    return traj + delta * shift


# ---------------------------------------------------------------------------
# problem assembly


def assemble_problem(grid, eps=None, mu=None, case=None, F=None, G=None, E0=None, H0=None):
    """Build ProblemData with the derived second-order source and initial slope.

    K_k = eps * (dF/dt)_k + curl(G_k) on every node and
    E0' = eps^-1 curl(H0) + F(0); dF/dt uses centered differences with
    second-order one-sided stencils at the endpoints.
    """
    eps = eps if eps is not None else MaterialField.identity(grid)
    mu = mu if mu is not None else MaterialField.identity(grid)
    if case is not None:
        if case.requires_unit_materials and not (eps.is_identity() and mu.is_identity()):
            raise UnsupportedCaseError(
                f"case {case.name!r} requires unit materials"
            )
        F = FieldTrajectory.sample(grid, EDGE, lambda t: case.sample_F(grid, t))
        G = FieldTrajectory.sample(grid, FACE, lambda t: case.sample_G(grid, t))
        E0 = case.sample_E(grid, 0.0)
        H0 = case.sample_H(grid, 0.0)
    F = F if F is not None else FieldTrajectory.zeros(grid, EDGE)
    G = G if G is not None else FieldTrajectory.zeros(grid, FACE)
    E0 = E0 if E0 is not None else StaggeredField.zeros(grid, EDGE)
    H0 = H0 if H0 is not None else StaggeredField.zeros(grid, FACE)
    if F.kind != EDGE or G.kind != FACE or E0.kind != EDGE or H0.kind != FACE:
        raise DimensionError("sources/initial data have wrong staggering kinds")
    E0.check_extents(grid)
    H0.check_extents(grid)

    eps_inv = eps.inverse()
    mu_inv = mu.inverse()

    K = apply_material_staggered(trajectory_derivative(F), eps, grid) + curl_face_to_edge(G, grid)
    E0prime = apply_material_staggered(curl_face_to_edge(H0, grid), eps_inv, grid) + F.node(0)
    return ProblemData(grid, eps, mu, eps_inv, mu_inv, F, G, E0, H0, K, E0prime)
