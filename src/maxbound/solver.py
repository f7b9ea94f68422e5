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
    try:
        return 1.0 / (c_max * math.sqrt(g.hx**-2 + g.hy**-2 + g.hz**-2))
    except OverflowError:  # cells too small for any time step
        return 0.0


def leapfrog_solve(p, cfl=0.9, track_energy=False, out=None):
    """Staggered-in-time leapfrog update of (E, H) for the given problem.

    E lives on the report nodes, H on half steps (averaged back to nodes
    for the output).  Node k goes to out.Etilde, .Htilde and .Etilde_t by
    set_node(k, field) once known, Etilde_t(k) being row k of ddt_stencil
    on a window of three E nodes; out (in-memory trajectories by default)
    is returned, Htilde_t left None.  Refuses dt > cfl * stability limit.
    The node fields are buffers made once per call and updated in place by
    the allocating update's operations in its order, bit for bit the same;
    so set_node must copy the field it is given, which is overwritten later.
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
    # E(j) in ring[j % 3], H half steps in half[0] and half[1] by turns; e_step
    # is free whenever a node is emitted, so it is ddt_node's work field too
    ring = [p.E0.copy()] + [StaggeredField.zeros(g, EDGE) for _ in range(2)]
    half = [StaggeredField.zeros(g, FACE) for _ in range(2)]
    e_step, f_half, e_t = (StaggeredField.zeros(g, EDGE) for _ in range(3))
    h_step, h_node = (StaggeredField.zeros(g, FACE) for _ in range(2))
    pending = 0  # the first node whose Etilde_t is not yet written

    def emit(j, E, H):
        nonlocal pending
        out.Etilde.set_node(j, E)
        out.Htilde.set_node(j, H)
        while pending < g.nt and ddt_stencil(g.nt, dt, pending)[0] + 2 <= j:
            row = ddt_node(lambda i: ring[i % 3], pending, g, e_t, e_step)
            out.Etilde_t.set_node(pending, row)
            pending += 1

    def h_increment(E, G, scale):
        """scale * (mu^-1 (curl E * (-1)) + G) in h_step."""
        rhs = curl_edge_to_face(E, g, h_step)
        rhs *= -1.0
        apply_material_staggered(rhs, p.mu_inv, g, rhs)
        rhs += G
        rhs *= scale
        return rhs

    E = zero_tangential(ring[0])
    # Start H at t = dt/2 with a Taylor half step.
    prev_half = p.H0.apply(np.add, h_increment(E, p.G.node(0), 0.5 * dt), half[0])

    emit(0, E, p.H0)
    energies = []
    if track_energy:
        energies.append(_staggered_energy(p, E, p.H0, prev_half))

    for k in range(g.nt - 1):
        p.F.node(k).apply(np.add, p.F.node(k + 1), f_half)
        f_half *= 0.5
        inc = curl_face_to_edge(prev_half, g, e_step)
        apply_material_staggered(inc, p.eps_inv, g, inc)
        inc += f_half
        inc *= dt
        E = zero_tangential(E.apply(np.add, inc, ring[(k + 1) % 3]))
        closing = k == g.nt - 2  # a half step lands H exactly on the final node
        rhs = h_increment(E, p.G.node(k + 1), 0.5 * dt if closing else dt)
        next_half = prev_half.apply(np.add, rhs, half[(k + 1) % 2])
        if closing:
            emit(k + 1, E, next_half)
        else:
            H = prev_half.apply(np.add, next_half, h_node)
            H *= 0.5
            emit(k + 1, E, H)
            if track_energy:
                energies.append(_staggered_energy(p, E, prev_half, next_half))
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
    bit.  H and dH/dt are left out: it is the exact reference of certify
    and true_error_norms, whose series pass reads E and dE/dt alone.
    """
    return SolveOutput(_NodeSampler(grid, case.sample_E), None,
                       _NodeSampler(grid, case.sample_dtE))
