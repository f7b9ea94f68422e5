"""Discrete curl operators, weighted inner products and quadrature kernels.

The two staggered curls are mutually adjoint with respect to the plain
dof inner product (uniform cell-volume weight) whenever the edge field has
zero tangential trace; norms used for error reporting average components
to cell centers first so that full material tensors can be applied with a
single quadrature rule.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError
from .fields import EDGE, FACE, FieldTrajectory, GridSpec, StaggeredField

_COMPONENTS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# spatial difference operators


def _field(grid, kind, comps):
    """Wrap component arrays: spatial ones in a StaggeredField, (nt, ...) ones
    in a FieldTrajectory."""
    if comps[0].ndim == 3:
        return StaggeredField(kind, *comps)
    return FieldTrajectory(kind, grid, *comps)


# The kernels below index the three spatial axes from the right, so each
# accepts a StaggeredField or a whole FieldTrajectory and returns the same
# type; every element sees the same operations in both cases.


def curl_edge_to_face(e, grid):
    """Circulation differences of an edge field, living on cell faces."""
    if e.kind != EDGE:
        raise DimensionError(f"curl_edge_to_face expects an edge field, got {e.kind}")
    e.check_extents(grid)
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    ex, ey, ez = e.x, e.y, e.z
    fx = (ez[..., 1:, :] - ez[..., :-1, :]) / hy - (ey[..., 1:] - ey[..., :-1]) / hz
    fy = (ex[..., 1:] - ex[..., :-1]) / hz - (ez[..., 1:, :, :] - ez[..., :-1, :, :]) / hx
    fz = (ey[..., 1:, :, :] - ey[..., :-1, :, :]) / hx - (ex[..., 1:, :] - ex[..., :-1, :]) / hy
    return _field(grid, FACE, (fx, fy, fz))


def curl_face_to_edge(h, grid):
    """Adjoint circulation differences of a face field, living on edges.

    Boundary-tangential edge values are set to zero; they pair against edge
    fields with homogeneous tangential trace.
    """
    if h.kind != FACE:
        raise DimensionError(f"curl_face_to_edge expects a face field, got {h.kind}")
    h.check_extents(grid)
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    hxc, hyc, hzc = h.x, h.y, h.z
    lead = hxc.shape[:-3]
    ox, oy, oz = (np.zeros(lead + grid.shape(EDGE, c)) for c in _COMPONENTS)
    ox[..., 1:-1, 1:-1] = (
        (hzc[..., 1:, 1:-1] - hzc[..., :-1, 1:-1]) / hy
        - (hyc[..., 1:-1, 1:] - hyc[..., 1:-1, :-1]) / hz
    )
    oy[..., 1:-1, :, 1:-1] = (
        (hxc[..., 1:-1, :, 1:] - hxc[..., 1:-1, :, :-1]) / hz
        - (hzc[..., 1:, :, 1:-1] - hzc[..., :-1, :, 1:-1]) / hx
    )
    oz[..., 1:-1, 1:-1, :] = (
        (hyc[..., 1:, 1:-1, :] - hyc[..., :-1, 1:-1, :]) / hx
        - (hxc[..., 1:-1, 1:, :] - hxc[..., 1:-1, :-1, :]) / hy
    )
    return _field(grid, EDGE, (ox, oy, oz))


def gradient_node_to_edge(phi, grid):
    """Discrete gradient of nodal scalar samples; curl_edge_to_face annihilates it."""
    want = (grid.nx + 1, grid.ny + 1, grid.nz + 1)
    if phi.shape != want:
        raise DimensionError(f"nodal scalar shape {phi.shape}, expected {want}")
    gx = (phi[1:, :, :] - phi[:-1, :, :]) / grid.hx
    gy = (phi[:, 1:, :] - phi[:, :-1, :]) / grid.hy
    gz = (phi[:, :, 1:] - phi[:, :, :-1]) / grid.hz
    return StaggeredField(EDGE, gx, gy, gz)


def zero_tangential(e):
    """Copy of an edge field with tangential boundary components zeroed."""
    out = e.copy()
    out.x[..., 0, :] = 0.0
    out.x[..., -1, :] = 0.0
    out.x[..., 0] = 0.0
    out.x[..., -1] = 0.0
    out.y[..., 0, :, :] = 0.0
    out.y[..., -1, :, :] = 0.0
    out.y[..., 0] = 0.0
    out.y[..., -1] = 0.0
    out.z[..., 0, :, :] = 0.0
    out.z[..., -1, :, :] = 0.0
    out.z[..., 0, :] = 0.0
    out.z[..., -1, :] = 0.0
    return out


def tangential_trace_max(e):
    """Largest absolute tangential boundary value of an edge field."""
    vals = [
        np.abs(e.x[:, 0, :]).max(initial=0.0),
        np.abs(e.x[:, -1, :]).max(initial=0.0),
        np.abs(e.x[:, :, 0]).max(initial=0.0),
        np.abs(e.x[:, :, -1]).max(initial=0.0),
        np.abs(e.y[0, :, :]).max(initial=0.0),
        np.abs(e.y[-1, :, :]).max(initial=0.0),
        np.abs(e.y[:, :, 0]).max(initial=0.0),
        np.abs(e.y[:, :, -1]).max(initial=0.0),
        np.abs(e.z[0, :, :]).max(initial=0.0),
        np.abs(e.z[-1, :, :]).max(initial=0.0),
        np.abs(e.z[:, 0, :]).max(initial=0.0),
        np.abs(e.z[:, -1, :]).max(initial=0.0),
    ]
    return max(vals)


# ---------------------------------------------------------------------------
# cell-centered averaging and weighted inner products


def cell_average(f, grid):
    """Average staggered components to cell centers; returns (..., nx, ny, nz, 3)."""
    f.check_extents(grid)
    out = np.empty(f.x.shape[:-3] + (grid.nx, grid.ny, grid.nz, 3))
    if f.kind == EDGE:
        out[..., 0] = 0.25 * (
            f.x[..., :-1, :-1] + f.x[..., 1:, :-1] + f.x[..., :-1, 1:] + f.x[..., 1:, 1:]
        )
        out[..., 1] = 0.25 * (
            f.y[..., :-1, :, :-1] + f.y[..., 1:, :, :-1]
            + f.y[..., :-1, :, 1:] + f.y[..., 1:, :, 1:]
        )
        out[..., 2] = 0.25 * (
            f.z[..., :-1, :-1, :] + f.z[..., 1:, :-1, :]
            + f.z[..., :-1, 1:, :] + f.z[..., 1:, 1:, :]
        )
    else:
        out[..., 0] = 0.5 * (f.x[..., :-1, :, :] + f.x[..., 1:, :, :])
        out[..., 1] = 0.5 * (f.y[..., :-1, :] + f.y[..., 1:, :])
        out[..., 2] = 0.5 * (f.z[..., :-1] + f.z[..., 1:])
    return out


def cell_average_adjoint(v, grid, kind):
    """Euclidean adjoint of cell_average: scatter cell values back to dofs."""
    lead = v.shape[:-4]
    ox, oy, oz = (np.zeros(lead + grid.shape(kind, c)) for c in _COMPONENTS)
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    if kind == EDGE:
        vx, vy, vz = (0.25 * v[..., i] for i in range(3))
        for dy in (0, 1):
            for dz in (0, 1):
                ox[..., dy : ny + dy, dz : nz + dz] += vx
        for dx in (0, 1):
            for dz in (0, 1):
                oy[..., dx : nx + dx, :, dz : nz + dz] += vy
        for dx in (0, 1):
            for dy in (0, 1):
                oz[..., dx : nx + dx, dy : ny + dy, :] += vz
    else:
        vx, vy, vz = (0.5 * v[..., i] for i in range(3))
        for dx in (0, 1):
            ox[..., dx : nx + dx, :, :] += vx
        for dy in (0, 1):
            oy[..., dy : ny + dy, :] += vy
        for dz in (0, 1):
            oz[..., dz : nz + dz] += vz
    return _field(grid, kind, (ox, oy, oz))


def weighted_inner(u, v, w, grid):
    """Weighted inner product of two staggered fields of the same kind.

    Both fields are averaged to cell centers, the weight (a MaterialField
    or None for the identity) is applied there, and the result is summed
    with the uniform cell volume: sum_cells (w u_bar) . v_bar * dV.
    """
    if u.kind != v.kind:
        raise DimensionError(f"kind mismatch: {u.kind} vs {v.kind}")
    ub = cell_average(u, grid)
    vb = cell_average(v, grid)
    if w is not None:
        ub = w.apply_cells(ub)
    return float(np.sum(ub * vb) * grid.cell_volume)


def weighted_norm_sq(u, w, grid):
    return weighted_inner(u, u, w, grid)


def gram_apply(u, w, grid):
    """Euclidean-dof representation of the weighted quadratic form.

    Returns g with weighted_norm_sq(u, w) == sum_dofs(u * g); used for
    gradients of quadratic functionals of staggered fields.
    """
    ub = cell_average(u, grid)
    if w is not None:
        ub = w.apply_cells(ub)
    return cell_average_adjoint(ub * grid.cell_volume, grid, u.kind)


def dof_inner(u, v, grid):
    """Plain staggered inner product: uniform cell-volume weight per dof."""
    if u.kind != v.kind:
        raise DimensionError(f"kind mismatch: {u.kind} vs {v.kind}")
    s = 0.0
    for a, b in zip(u.components(), v.components()):
        s += np.sum(a * b)
    return float(s * grid.cell_volume)


def apply_material_staggered(f, w, grid):
    """Apply a scalar/diagonal material to a staggered field in place of its dofs.

    Cell coefficients are averaged to the dof locations (replicated at the
    boundary); exact for spatially constant materials.  The averaged
    coefficients are kept on the material, once per (kind, component).
    """
    comps = []
    for c, arr in zip(_COMPONENTS, f.components()):
        key = (f.kind, c)
        coeff = w.dof_cache.get(key)
        if coeff is None:
            coeff = _cell_coeff_to_dofs(w.component_values(c), grid, f.kind, c)
            w.dof_cache[key] = coeff
        comps.append(arr * coeff)
    return _field(grid, f.kind, comps)


def _cell_coeff_to_dofs(c, grid, kind, comp):
    own = _COMPONENTS.index(comp)
    if kind == EDGE:
        pad = [(1, 1)] * 3
        pad[own] = (0, 0)
        cp = np.pad(c, pad, mode="edge")
        sl = [slice(None)] * 3
        out = 0.0
        axes = [d for d in range(3) if d != own]
        for da in (0, 1):
            for db in (0, 1):
                s = list(sl)
                s[axes[0]] = slice(da, c.shape[axes[0]] + 1 + da)
                s[axes[1]] = slice(db, c.shape[axes[1]] + 1 + db)
                out = out + 0.25 * cp[tuple(s)]
        return out
    pad = [(0, 0)] * 3
    pad[own] = (1, 1)
    cp = np.pad(c, pad, mode="edge")
    s0 = [slice(None)] * 3
    s1 = [slice(None)] * 3
    s0[own] = slice(0, c.shape[own] + 1)
    s1[own] = slice(1, c.shape[own] + 2)
    return 0.5 * (cp[tuple(s0)] + cp[tuple(s1)])


# ---------------------------------------------------------------------------
# time quadrature


def cumulative_trapezoid(values, dt):
    """Composite trapezoid cumulative integral on the uniform time grid."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (v[1:] + v[:-1]), out=out[1:])
    return out


def time_integral(values, dt, up_to=None):
    """Trapezoid integral of nodal samples from node 0 up to node `up_to`."""
    v = np.asarray(values, dtype=float)
    if up_to is None:
        up_to = len(v) - 1
    if not 0 <= up_to < len(v):
        raise ParameterError(f"time index {up_to} out of range [0, {len(v) - 1}]")
    if up_to == 0:
        return 0.0
    return float(np.trapezoid(v[: up_to + 1], dx=dt))


def gronwall_recursion(u0, rate, half, dt):
    """exp(R(t)) * (u0 + int_0^t exp(-R(s)) g(s) ds) at every node.

    R is the trapezoid cumulative integral of rate >= 0 and half = dt/2 * g
    is the half-step source.  The recursion E_k = q_k (E_{k-1} + half_{k-1})
    + half_k with q_k = exp(R_k - R_{k-1}) never forms exp(+-R): a node is
    +inf only when its true value is out of range, and 0 while u0 and the
    source have been 0.  Every Gronwall bound of the package runs through it.
    """
    with np.errstate(over="ignore"):
        q = np.exp(np.diff(cumulative_trapezoid(rate, dt)))
    e = float(u0)
    out = [e]
    for qk, h_prev, h in zip(q.tolist(), half[:-1].tolist(), half[1:].tolist()):
        s = e + h_prev
        e = (qk * s if s else 0.0) + h
        out.append(e)
    return np.array(out)


def exp_weighted_cumulative(f, gamma, dt):
    """exp(Gamma(t)) * int_0^t exp(-Gamma(s)) gamma(s) f(s) ds at every node,
    with Gamma the trapezoid cumulative integral of gamma > 0."""
    f = np.asarray(f, dtype=float)
    g = np.broadcast_to(np.asarray(gamma, dtype=float), f.shape)
    if np.any(g <= 0.0):
        raise ParameterError("gamma must be positive on all nodes")
    with np.errstate(over="ignore"):
        half = 0.5 * dt * g * f
    return gronwall_recursion(0.0, g, half, dt)


def ddt_stencil(nt, dt, k):
    """Row k of the time-derivative matrix as (first node, three weights):
    centered in the interior, second-order one-sided at both ends."""
    if nt < 3:
        raise ParameterError(f"time derivative needs nt >= 3, got {nt}")
    if k == 0:
        return 0, np.array([-1.5, 2.0, -0.5]) / dt
    if k == nt - 1:
        return nt - 3, np.array([0.5, -2.0, 1.5]) / dt
    return k - 1, np.array([-0.5, 0.0, 0.5]) / dt


def ddt_matrix(nt, dt):
    """Dense first time-derivative matrix with the rows of ddt_stencil."""
    D = np.zeros((nt, nt))
    for k in range(nt):
        lo, w = ddt_stencil(nt, dt, k)
        D[k, lo : lo + 3] = w
    return D


def trajectory_derivative(traj, D=None):
    """Apply the time-derivative matrix along the time axis of a trajectory."""
    if D is None:
        D = ddt_matrix(traj.grid.nt, traj.grid.dt)
    comps = [np.tensordot(D, c, axes=(1, 0)) for c in traj.components()]
    return FieldTrajectory(traj.kind, traj.grid, *comps)


def trapezoid_weights(n_nodes, dt):
    w = np.full(n_nodes, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    if n_nodes == 1:
        w[0] = 0.0
    return w
