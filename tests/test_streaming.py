"""The streaming series against the whole-trajectory residuals, and its memory.

`majorant.series` walks the time nodes once with a small window of node
fields; these tests pin it to the trajectory-wide reference (`residuals`
followed by per-node norms) and check that certify's working memory does
not grow with the number of time nodes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
from maxbound.fields import EDGE, FACE, FieldTrajectory, MaterialField, StaggeredField
from maxbound.majorant import ZeroTermParts, inner_trajectory, norm_sq_trajectory, series
from maxbound.operators import (
    curl_edge_to_face,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
)
from maxbound.solver import SolveOutput

from conftest import cavity_setup


def _random_traj(grid, kind, rng):
    return FieldTrajectory(
        kind, grid, *(rng.standard_normal((grid.nt,) + grid.shape(kind, c)) for c in "xyz")
    )


def _random_node(grid, kind, rng):
    return StaggeredField(kind, *(rng.standard_normal(grid.shape(kind, c)) for c in "xyz"))


def _random_material(grid, rng, diagonal):
    cells = (grid.nx, grid.ny, grid.nz)
    if diagonal:
        return MaterialField("diagonal", rng.uniform(0.5, 2.0, cells + (3,)))
    return MaterialField("scalar", rng.uniform(0.5, 2.0, cells))


def _random_inputs(grid, rng, diagonal):
    p = mb.assemble_problem(
        grid,
        eps=_random_material(grid, rng, diagonal),
        mu=_random_material(grid, rng, diagonal),
        F=_random_traj(grid, EDGE, rng),
        G=_random_traj(grid, FACE, rng),
        E0=_random_node(grid, EDGE, rng),
        H0=_random_node(grid, FACE, rng),
    )
    approx = SolveOutput(
        _random_traj(grid, EDGE, rng), _random_traj(grid, FACE, rng), _random_traj(grid, EDGE, rng)
    )
    return p, approx


def _reference(p, approx, Y, theorem):
    """The series from whole trajectories: residuals, then per-node norms."""
    g = p.grid
    Y = Y if Y is not None else mb.default_Y(p, approx)
    res = mb.residuals(p, approx, Y)
    kt_sq = norm_sq_trajectory(res.Ktilde, p.mu, g)
    if theorem in ("T1", "T3"):
        edge_sq = norm_sq_trajectory(res.Khat, p.eps_inv, g)
        face_sq = norm_sq_trajectory(res.dt_Ktilde, p.mu, g)
        coup = None
        first0 = trajectory_derivative(approx.Etilde).node(0)
    else:
        edge_sq = norm_sq_trajectory(res.Kcheck, p.eps_inv, g)
        face_sq = norm_sq_trajectory(res.Rt, p.mu, g)
        coup = inner_trajectory(res.Ktilde, res.coupling_curl, g)
        first0 = approx.Etilde_t.node(0)
    curl_e0 = curl_edge_to_face(p.E0 - approx.Etilde.node(0), g)
    ktilde0 = res.Ktilde.node(0)
    zp = ZeroTermParts(
        et0_sq=weighted_norm_sq(p.E0prime - first0, p.eps, g),
        curl_e0_sq=weighted_norm_sq(curl_e0, p.mu_inv, g),
        cross=weighted_inner(ktilde0, curl_e0, None, g),
        ktilde0_sq=weighted_norm_sq(ktilde0, p.mu, g),
    )
    return kt_sq, edge_sq, face_sq, coup, zp


def _close(got, want):
    want = np.asarray(want, dtype=float)
    atol = 1e-12 * max(float(np.abs(want).max()), 1e-300)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


@settings(max_examples=40, deadline=None)
@given(
    theorem=st.sampled_from(("T1", "T3", "T4", "T5")),
    nt=st.sampled_from((5, 6, 9, 17)),
    explicit_Y=st.booleans(),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_equals_the_whole_trajectory_reference(theorem, nt, explicit_Y, diagonal, seed):
    rng = np.random.default_rng(seed)
    grid = mb.GridSpec(3, 2, 3, 1.0, 0.7, 1.3, nt, 0.8)
    p, approx = _random_inputs(grid, rng, diagonal)
    Y = _random_traj(grid, FACE, rng) if explicit_Y else None

    s = series(p, approx, Y, theorem)
    kt_sq, edge_sq, face_sq, coup, zp = _reference(p, approx, Y, theorem)
    _close(s.kt_sq, kt_sq)
    _close(s.edge_sq, edge_sq)
    _close(s.face_sq, face_sq)
    if coup is None:
        assert s.coup is None
    else:
        _close(s.coup, coup)
    for name in ("et0_sq", "curl_e0_sq", "cross", "ktilde0_sq"):
        _close(getattr(s.zp, name), getattr(zp, name))
    if not explicit_Y:
        assert not s.kt_sq.any()


def _certify_peak(nt, theorem):
    p, approx, exact = cavity_setup(8, nt)
    params = mb.MajorantParams()
    mb.certify(p, approx, params, theorem=theorem, exact=exact)  # fills the material caches
    tracemalloc.start()
    try:
        mb.certify(p, approx, params, theorem=theorem, exact=exact)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("theorem", ["T1", "T5"])
def test_certify_working_memory_does_not_grow_with_the_time_nodes(theorem):
    short, long_ = _certify_peak(17, theorem), _certify_peak(129, theorem)
    grid = cavity_setup(8, 129)[0].grid
    edge_trajectory = 8 * grid.nt * sum(int(np.prod(grid.shape(EDGE, c))) for c in "xyz")
    assert long_ - short < edge_trajectory / 4
