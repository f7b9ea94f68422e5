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
    dof_inner,
    trajectory_derivative,
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


def leapfrog_solve(p, cfl=0.9, track_energy=False):
    """Staggered-in-time leapfrog update of (E, H) for the given problem.

    E lives on the report nodes, H on half steps (averaged back to nodes
    for the output); each node is written into the preallocated output
    trajectories as it is computed; Htilde_t is left None.  Refuses to run
    when dt exceeds cfl times the stability limit.
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

    E = zero_tangential(p.E0)
    # Start H at t = dt/2 with a Taylor half step.
    H_rhs0 = curl_edge_to_face(E, g) * (-1.0)
    H_half = p.H0 + 0.5 * dt * (
        apply_material_staggered(H_rhs0, p.mu_inv, g) + p.G.node(0)
    )

    Etilde = FieldTrajectory.zeros(g, EDGE)
    Htilde = FieldTrajectory.zeros(g, FACE)
    Etilde.set_node(0, E)
    Htilde.set_node(0, p.H0)
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
        Etilde.set_node(k + 1, E)
        if k < g.nt - 2:
            next_half = prev_half + dt * (
                apply_material_staggered(curl_edge_to_face(E, g) * (-1.0), p.mu_inv, g)
                + p.G.node(k + 1)
            )
        else:
            # closing half step to land H exactly on the final node
            next_half = prev_half + 0.5 * dt * (
                apply_material_staggered(curl_edge_to_face(E, g) * (-1.0), p.mu_inv, g)
                + p.G.node(k + 1)
            )
        if k < g.nt - 2:
            Htilde.set_node(k + 1, 0.5 * (prev_half + next_half))
            if track_energy:
                energies.append(_staggered_energy(p, E, prev_half, next_half))
        else:
            Htilde.set_node(k + 1, next_half)
        prev_half = next_half

    trace = np.asarray(energies) if track_energy else None
    return SolveOutput(Etilde, Htilde, trajectory_derivative(Etilde), energy_trace=trace)


def _staggered_energy(p, E, H_lo, H_hi):
    """Discrete leapfrog energy: ||E||^2_eps + <mu H^-, H^+> on the dofs."""
    g = p.grid
    eE = apply_material_staggered(E, p.eps, g)
    muH = apply_material_staggered(H_lo, p.mu, g)
    return dof_inner(eE, E, g) + dof_inner(muH, H_hi, g)


def project_exact(case, grid):
    """Sample an exact catalog solution as if it were an approximation.

    Etilde_t carries the analytic time derivative, not a finite
    difference.
    """
    Etilde = FieldTrajectory.sample(grid, EDGE, lambda t: case.sample_E(grid, t))
    Htilde = FieldTrajectory.sample(grid, FACE, lambda t: case.sample_H(grid, t))
    Etilde_t = FieldTrajectory.sample(grid, EDGE, lambda t: case.sample_dtE(grid, t))
    Htilde_t = FieldTrajectory.sample(grid, FACE, lambda t: case.sample_dtH(grid, t))
    return SolveOutput(Etilde, Htilde, Etilde_t, Htilde_t)


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
