"""Shared builders for the test suite.

Cached pipeline pieces (problems, solver runs, exact projections) are
treated as read-only by every test; anything that needs a modified
trajectory builds a fresh object from arithmetic on the cached ones.
"""

import functools
import threading
import tracemalloc

import numpy as np
import pytest

import maxbound as mb
from maxbound.errors import ParameterError
from maxbound.fields import FieldTrajectory
from maxbound.operators import ddt_stencil, weighted_inner

@pytest.fixture
def helper_thread(monkeypatch):
    """majorant.series takes the true error on its helper thread at every
    size, on a machine of any CPU count; returns a list that tells, for each
    true-error node in turn, whether a thread other than the main one ran it."""
    from maxbound import majorant

    monkeypatch.setattr(majorant, "_HELPER_MIN_CELLS", 0)
    monkeypatch.setattr(majorant.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads = []
    error_node = majorant._error_node

    def recorded(*args):
        threads.append(threading.current_thread() is not threading.main_thread())
        return error_node(*args)

    monkeypatch.setattr(majorant, "_error_node", recorded)
    return threads


def traced_peak(fn):
    """Peak tracemalloc size, in bytes, of what one call fn() allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def cavity_setup(n, nt, T=1.0, m=1, mode_n=1):
    """(problem, leapfrog output, exact projection) for the standing mode."""
    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, T)
    case = mb.cavity_mode(m=m, n=mode_n)
    p = mb.assemble_problem(grid, case=case)
    approx = mb.leapfrog_solve(p)
    exact = mb.project_exact(case, grid)
    return p, approx, exact


@functools.lru_cache(maxsize=None)
def polynomial_setup(n, nt, T=1.0):
    """(problem, exact projection) for the residual-free polynomial case."""
    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, T)
    case = mb.polynomial_source()
    p = mb.assemble_problem(grid, case=case)
    exact = mb.project_exact(case, grid)
    return p, exact


def random_edge_interior(grid, rng):
    """Random edge field with zero tangential trace."""
    f = mb.StaggeredField.zeros(grid, mb.EDGE)
    f.x[...] = rng.standard_normal(f.x.shape)
    f.y[...] = rng.standard_normal(f.y.shape)
    f.z[...] = rng.standard_normal(f.z.shape)
    from maxbound.operators import zero_tangential

    return zero_tangential(f)


def random_face(grid, rng):
    f = mb.StaggeredField.zeros(grid, mb.FACE)
    f.x[...] = rng.standard_normal(f.x.shape)
    f.y[...] = rng.standard_normal(f.y.shape)
    f.z[...] = rng.standard_normal(f.z.shape)
    return f


def smooth_edge(grid):
    """Smooth edge field with zero tangential trace on the box boundary."""
    import math

    bx = math.pi / grid.lx
    by = math.pi / grid.ly
    bz = math.pi / grid.lz
    return mb.StaggeredField.sample(
        grid,
        mb.EDGE,
        lambda X, Y, Z: np.sin(by * Y) * np.sin(bz * Z) * (1.0 + 0.3 * np.cos(bx * X)),
        lambda X, Y, Z: np.sin(bx * X) * np.sin(bz * Z) * np.cos(0.5 * by * Y),
        lambda X, Y, Z: np.sin(bx * X) * np.sin(by * Y) * (0.5 + np.sin(bz * Z)),
    )


# ---------------------------------------------------------------------------
# reference helpers that only the tests use


def inner_trajectory(a, b, grid):
    """Plain (unweighted) cell-centered inner product at each time node."""
    return np.array([weighted_inner(a.node(k), b.node(k), None, grid) for k in range(grid.nt)])


def ddt_matrix(nt, dt):
    """Dense first time-derivative matrix with the rows of ddt_stencil: the
    oracle for the O(nt) stencil of trajectory_derivative."""
    D = np.zeros((nt, nt))
    for k in range(nt):
        lo, w = ddt_stencil(nt, dt, k)
        D[k, lo : lo + 3] = w
    return D


def dense_derivative(traj, D):
    """The matrix D applied along the time axis of a trajectory by a dense
    product."""
    comps = [np.tensordot(D, c, axes=(1, 0)) for c in traj.components()]
    return FieldTrajectory(traj.kind, traj.grid, *comps)


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
