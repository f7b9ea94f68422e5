"""Leapfrog (Yee) forward solver and exact-solution projection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import StabilityError
from .fields import EDGE, FACE, FieldTrajectory, GridSpec, StaggeredField
from .operators import (
    apply_material_staggered,
    curl_edge_to_face,
    curl_face_to_edge,
    ddt_node,
    ddt_stencil,
    dof_inner,
    zero_tangential,
)


@dataclass
class SolveOutput:
    """Electric/magnetic approximations plus a separate time-derivative field.

    Etilde_t approximates dE/dt; for the leapfrog solver it is the centered
    difference of Etilde on the report grid and therefore differs from the
    derivative of any smooth interpolant.  Htilde_t is optional: the
    leapfrog solver leaves it None, and combined_estimate, its one reader,
    then differentiates Htilde.
    """

    Etilde: FieldTrajectory
    Htilde: FieldTrajectory
    Etilde_t: FieldTrajectory
    Htilde_t: Optional[FieldTrajectory] = None
    energy_trace: Optional[np.ndarray] = field(default=None, repr=False)


def cfl_limit(p):
    """Conservative stable time step from material eigenvalue bounds."""
    g = p.grid
    c_max = math.sqrt(p.eps_inv.lambda_max * p.mu_inv.lambda_max)
    return 1.0 / (c_max * math.sqrt(g.hx**-2 + g.hy**-2 + g.hz**-2))


def leapfrog_solve(p, cfl=0.9, track_energy=False, out=None):
    """Staggered-in-time leapfrog update of (E, H) for the given problem.

    E lives on the report nodes, H on half steps (averaged back to nodes
    for the output).  Node k goes to out.Etilde, .Htilde and .Etilde_t by
    set_node(k, field) once known, Etilde_t(k) being row k of ddt_stencil
    on a window of three E nodes; out (in-memory trajectories by default)
    is returned, Htilde_t left None.  Refuses dt > cfl * stability limit.
    """
    g = p.grid
    if not 0.0 < cfl <= 1.0:
        raise StabilityError(f"cfl must lie in (0, 1], got {cfl}")
    dt = g.dt
    limit = cfl_limit(p)
    if dt > cfl * limit:
        raise StabilityError(
            f"dt = {dt:.6g} exceeds cfl * stability limit = {cfl * limit:.6g}; "
            f"increase nt or coarsen the grid"
        )
    if out is None:
        out = SolveOutput(FieldTrajectory.zeros(g, EDGE), FieldTrajectory.zeros(g, FACE),
                          FieldTrajectory.zeros(g, EDGE))
    window = {}
    pending = 0  # the first node whose Etilde_t is not yet written

    def emit(j, E, H):
        nonlocal pending
        out.Etilde.set_node(j, E)
        out.Htilde.set_node(j, H)
        window[j] = E
        while pending < g.nt and ddt_stencil(g.nt, dt, pending)[0] + 2 <= j:
            out.Etilde_t.set_node(pending, ddt_node(window.__getitem__, pending, g))
            pending += 1
        window.pop(j - 2, None)

    E = zero_tangential(p.E0)
    # Start H at t = dt/2 with a Taylor half step.
    H_rhs0 = curl_edge_to_face(E, g) * (-1.0)
    H_half = p.H0 + 0.5 * dt * (
        apply_material_staggered(H_rhs0, p.mu_inv, g) + p.G.node(0)
    )

    emit(0, E, p.H0)
    energies = []
    if track_energy:
        energies.append(_staggered_energy(p, E, p.H0, H_half))

    prev_half = H_half
    for k in range(g.nt - 1):
        F_half = 0.5 * (p.F.node(k) + p.F.node(k + 1))
        E = E + dt * (
            apply_material_staggered(curl_face_to_edge(prev_half, g), p.eps_inv, g)
            + F_half
        )
        E = zero_tangential(E)
        if k < g.nt - 2:
            next_half = prev_half + dt * (
                apply_material_staggered(curl_edge_to_face(E, g) * (-1.0), p.mu_inv, g)
                + p.G.node(k + 1)
            )
            emit(k + 1, E, 0.5 * (prev_half + next_half))
            if track_energy:
                energies.append(_staggered_energy(p, E, prev_half, next_half))
        else:
            # closing half step to land H exactly on the final node
            next_half = prev_half + 0.5 * dt * (
                apply_material_staggered(curl_edge_to_face(E, g) * (-1.0), p.mu_inv, g)
                + p.G.node(k + 1)
            )
            emit(k + 1, E, next_half)
        prev_half = next_half

    out.energy_trace = np.asarray(energies) if track_energy else None
    return out


def _staggered_energy(p, E, H_lo, H_hi):
    """Discrete leapfrog energy: ||E||^2_eps + <mu H^-, H^+> on the dofs."""
    g = p.grid
    eE = apply_material_staggered(E, p.eps, g)
    muH = apply_material_staggered(H_lo, p.mu, g)
    return dof_inner(eE, E, g) + dof_inner(muH, H_hi, g)


def project_exact(case, grid, out=None):
    """Sample an exact catalog solution as if it were an approximation.

    Etilde_t carries the analytic time derivative, not a finite
    difference.  Node k of each field goes to out by set_node(k, field);
    out (in-memory trajectories by default) is returned.
    """
    if out is None:
        out = SolveOutput(*(FieldTrajectory.zeros(grid, kind) for kind in (EDGE, FACE, EDGE, FACE)))
    for k, t in enumerate(grid.times):
        out.Etilde.set_node(k, case.sample_E(grid, t))
        out.Htilde.set_node(k, case.sample_H(grid, t))
        out.Etilde_t.set_node(k, case.sample_dtE(grid, t))
        out.Htilde_t.set_node(k, case.sample_dtH(grid, t))
    return out


class _NodeSampler:
    """Stand-in for a trajectory whose node k is sampled at t_k when asked for."""

    def __init__(self, grid, sample):
        self.grid = grid
        self._sample = sample
        self._times = grid.times

    def node(self, k):
        return self._sample(self.grid, self._times[k])


def exact_reference(case, grid):
    """The exact E and dE/dt of a catalog case, sampled node by node on demand.

    Holds no trajectory, and node k equals that of project_exact bit for
    bit.  H and dH/dt are left out: this is the reference true_error_norms
    (and so certify) reads, not an approximation.
    """
    return SolveOutput(_NodeSampler(grid, case.sample_E), None,
                       _NodeSampler(grid, case.sample_dtE))
