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
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .errors import DimensionError, ParameterError, UnsupportedCaseError
from .fields import (EDGE, FACE, FieldTrajectory, GridSpec, MaterialField, NodeSource,
                     StaggeredField)
from .operators import NodeWindow, apply_material_staggered, curl_face_to_edge, ddt_node


@dataclass
class ManufacturedCase:
    """Named exact solution with closures sampling fields at time t."""

    name: str
    parameters: Dict[str, float]
    sample_E: Callable[[GridSpec, float], StaggeredField]
    sample_H: Callable[[GridSpec, float], StaggeredField]
    sample_dtE: Callable[[GridSpec, float], StaggeredField]
    sample_dtH: Callable[[GridSpec, float], StaggeredField]
    # None declares a source-free case
    sample_F: Optional[Callable[[GridSpec, float], StaggeredField]]
    sample_G: Optional[Callable[[GridSpec, float], StaggeredField]]
    requires_unit_materials: bool = True


@dataclass
class ProblemData:
    """Grid, materials, node sources and the derived second-order data."""

    grid: GridSpec
    eps: MaterialField
    mu: MaterialField
    eps_inv: MaterialField = field(repr=False)
    mu_inv: MaterialField = field(repr=False)
    F: NodeSource = field(repr=False)
    G: NodeSource = field(repr=False)
    E0: StaggeredField = field(repr=False)
    H0: StaggeredField = field(repr=False)
    K: NodeSource = field(repr=False)
    E0prime: StaggeredField = field(repr=False)


def _profile_sampler(profiles):
    """sample(grid, name, factor): the named time-free profile times factor.
    profiles(grid) gives {name: (kind, fx, fy, fz)}, f(X, Y, Z) on the sparse
    dof coordinates or None for zero; they are evaluated once per grid.  The
    sample (f * factor) + 0.0 is StaggeredField.sample's, signed zeros included."""
    kept = {}

    def sample(grid, name, factor):
        if grid not in kept:
            kept[grid] = {
                key: (kind, [None if f is None
                             else np.asarray(f(*grid.component_coords(kind, c)), dtype=float)
                             for c, f in zip("xyz", fs)])
                for key, (kind, *fs) in profiles(grid).items()
            }
        kind, comps = kept[grid][name]
        return StaggeredField(kind, *(
            np.zeros(grid.shape(kind, c)) if prof is None
            else np.add(prof * factor, 0.0, out=np.empty(grid.shape(kind, c)))
            for c, prof in zip("xyz", comps)))

    return sample


def _amplitude(value):
    """value as a float; float() would also read a boolean as 0 or 1 and a
    string such as "2" or "nan", so only a finite real number passes."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise UnsupportedCaseError(f"amplitude must be a finite number, got {value!r}")
    return float(value)


def cavity_mode(m=1, n=1, amplitude=1.0):
    """Source-free TM standing mode of the unit-material box cavity.

    E = (0, 0, A sin(m pi x / lx) sin(n pi y / ly) cos(w t)) with
    w = pi sqrt((m / lx)^2 + (n / ly)^2); H follows from the magnetic
    equation with G = 0.  Requires eps = mu = identity.
    """
    if not all(isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in (m, n)):
        raise UnsupportedCaseError(f"cavity mode indices must be positive integers, "
                                   f"got ({m!r}, {n!r})")
    A = _amplitude(amplitude)

    def _omega(grid):
        return math.pi * math.hypot(m / grid.lx, n / grid.ly)

    def _profiles(grid):
        w = _omega(grid)
        bx, by = m * math.pi / grid.lx, n * math.pi / grid.ly
        return {
            "E": (EDGE, None, None, lambda X, Y, Z: A * np.sin(bx * X) * np.sin(by * Y)),
            "dtE": (EDGE, None, None, lambda X, Y, Z: -A * w * np.sin(bx * X) * np.sin(by * Y)),
            "H": (FACE, lambda X, Y, Z: -A * by * np.sin(bx * X) * np.cos(by * Y),
                  lambda X, Y, Z: A * bx * np.cos(bx * X) * np.sin(by * Y), None),
        }

    sample = _profile_sampler(_profiles)

    def sample_E(grid, t):
        return sample(grid, "E", math.cos(_omega(grid) * t))

    def sample_dtE(grid, t):
        return sample(grid, "dtE", math.sin(_omega(grid) * t))

    def sample_H(grid, t):
        w = _omega(grid)
        return sample(grid, "H", math.sin(w * t) / w)

    def sample_dtH(grid, t):
        return sample(grid, "H", math.cos(_omega(grid) * t))

    return ManufacturedCase(
        name="cavity_mode",
        parameters={"m": m, "n": n, "amplitude": A},
        sample_E=sample_E,
        sample_H=sample_H,
        sample_dtE=sample_dtE,
        sample_dtH=sample_dtH,
        sample_F=None,
        sample_G=None,
    )


def polynomial_source(amplitude=1.0):
    """Polynomial exact solution with manufactured sources and H = 0.

    E = (0, 0, A X(x) Y(y) q(t)) with X, Y quadratic bubbles and q
    quadratic in time; F := dE/dt and G := curl E keep both first-order
    equations satisfied with H identically zero.  All staggered stencils
    are exact on these polynomials, so the sampled solution has zero
    discrete residual.
    """
    A = _amplitude(amplitude)

    def _profiles(grid):
        lx, ly = grid.lx, grid.ly

        def X(x):
            return 4.0 * x * (lx - x) / lx**2

        def dX(x):
            return 4.0 * (lx - 2.0 * x) / lx**2

        def Y(y):
            return 4.0 * y * (ly - y) / ly**2

        def dY(y):
            return 4.0 * (ly - 2.0 * y) / ly**2

        return {
            "E": (EDGE, None, None, lambda Xc, Yc, Zc: A * X(Xc) * Y(Yc)),
            "curlE": (FACE, lambda Xc, Yc, Zc: A * X(Xc) * dY(Yc),
                      lambda Xc, Yc, Zc: -A * dX(Xc) * Y(Yc), None),
        }

    sample = _profile_sampler(_profiles)

    def _q(grid, t):
        s = t / grid.T
        return 1.0 + s + 0.5 * s * s

    def _dq(grid, t):
        return (1.0 + t / grid.T) / grid.T

    def sample_E(grid, t):
        return sample(grid, "E", _q(grid, t))

    def sample_dtE(grid, t):
        return sample(grid, "E", _dq(grid, t))

    def sample_G(grid, t):
        return sample(grid, "curlE", _q(grid, t))

    return ManufacturedCase(
        name="polynomial_source",
        parameters={"amplitude": A},
        sample_E=sample_E,
        sample_H=lambda g, t: StaggeredField.zeros(g, FACE),
        sample_dtE=sample_dtE,
        sample_dtH=lambda g, t: StaggeredField.zeros(g, FACE),
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
        return builder(**parameters)
    except (TypeError, ValueError) as exc:  # an unknown parameter or a bad value
        raise UnsupportedCaseError(f"catalog case {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# perturbation bumps


def _bump_profiles(grid):
    bx, by, bz = math.pi / grid.lx, math.pi / grid.ly, math.pi / grid.lz
    return {"bump": (EDGE, None, None, lambda X, Y, Z:
                     np.sin(bx * X) * np.sin(by * Y) * (1.0 + 0.5 * np.cos(bz * Z)))}


_bump_sample = _profile_sampler(_bump_profiles)


# the time factor of each bump and of its time derivative, of (t, T)
BUMPS = {"poly_t2": (lambda t, T: (t / T) ** 2, lambda t, T: 2.0 * t / T**2),
         "static": (lambda t, T: 1.0, lambda t, T: 0.0)}


def _bump(key, grid, t, factor):
    if key not in BUMPS:
        raise UnsupportedCaseError(f"unknown bump key {key!r}")
    return _bump_sample(grid, "bump", BUMPS[key][factor](t, grid.T))


def bump_field(key, grid, t):
    """Smooth edge-type bump with zero tangential trace, sampled at time t."""
    return _bump(key, grid, t, 0)


def bump_field_dt(key, grid, t):
    """Analytic time derivative of bump_field."""
    return _bump(key, grid, t, 1)


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

    F, G and K are NodeSources: F(k) and G(k) are the case's samples or node
    k of the F and G given, and a missing one (none passed, or none declared
    by the case) is one read-only zero node.  K(k) = eps (dF/dt)_k + curl G(k)
    with the operations of row k of the whole-trajectory formula, and
    E0' = eps^-1 curl(H0) + F(0).  A case sets F, G, E0 and H0 itself, so it
    is refused together with any of them.
    """
    eps = eps if eps is not None else MaterialField.identity(grid)
    mu = mu if mu is not None else MaterialField.identity(grid)
    if case is not None:
        if any(f is not None for f in (F, G, E0, H0)):
            raise ParameterError(f"case {case.name!r} sets F, G, E0 and H0 itself; "
                                 "pass the case or the fields, not both")
        if case.requires_unit_materials and not (eps.is_identity() and mu.is_identity()):
            raise UnsupportedCaseError(f"case {case.name!r} requires unit materials")
        F = None if case.sample_F is None else NodeSource.sampled(grid, EDGE, case.sample_F)
        G = None if case.sample_G is None else NodeSource.sampled(grid, FACE, case.sample_G)
        E0 = case.sample_E(grid, 0.0)
        H0 = case.sample_H(grid, 0.0)
    source_free = F is None and G is None
    F = NodeSource(grid, F.kind, F.node) if F is not None else NodeSource.zeros(grid, EDGE)
    G = NodeSource(grid, G.kind, G.node) if G is not None else NodeSource.zeros(grid, FACE)
    E0 = E0 if E0 is not None else StaggeredField.zeros(grid, EDGE)
    H0 = H0 if H0 is not None else StaggeredField.zeros(grid, FACE)
    if F.kind != EDGE or G.kind != FACE or E0.kind != EDGE or H0.kind != FACE:
        raise DimensionError("sources/initial data have wrong staggering kinds")
    E0.check_extents(grid)
    H0.check_extents(grid)

    eps_inv = eps.inverse()
    mu_inv = mu.inverse()
    Fw = NodeWindow(lambda j, _: F.node(j))  # a pass over k makes each F node once
    K = NodeSource.zeros(grid, EDGE) if source_free else NodeSource(grid, EDGE, lambda k: (
        apply_material_staggered(ddt_node(Fw, k, grid), eps, grid)
        + curl_face_to_edge(G.node(k), grid)))
    E0prime = apply_material_staggered(curl_face_to_edge(H0, grid), eps_inv, grid) + F.node(0)
    return ProblemData(grid, eps, mu, eps_inv, mu_inv, F, G, E0, H0, K, E0prime)
