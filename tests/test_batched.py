"""Batch-agnostic Yee kernels: a whole trajectory at once equals node by node.

The optimizer's gradient runs every kernel over (nt, ...) trajectories in
one pass; these properties pin that down bit for bit against per-node
evaluation, including a node-by-node copy of the gradient.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
from maxbound.errors import DimensionError
from maxbound.fields import EDGE, FACE, FieldTrajectory, MaterialField
from maxbound.majorant import default_Y
from maxbound.operators import (
    apply_material_staggered,
    cell_average,
    cell_average_adjoint,
    curl_edge_to_face,
    curl_face_to_edge,
    dof_inner,
    gram_apply,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
    zero_tangential,
)
from maxbound.optimize import BoundQuadratic

grids = st.builds(
    mb.GridSpec,
    nx=st.integers(2, 4),
    ny=st.integers(2, 4),
    nz=st.integers(2, 4),
    lx=st.floats(0.5, 2.0),
    ly=st.floats(0.5, 2.0),
    lz=st.floats(0.5, 2.0),
    nt=st.integers(2, 4),
    T=st.just(1.0),
)
seeds = st.integers(0, 2**32 - 1)


def _random_traj(grid, kind, rng):
    return FieldTrajectory(
        kind, grid, *(rng.standard_normal((grid.nt,) + grid.shape(kind, c)) for c in "xyz")
    )


def _materials(grid, rng):
    cells = (grid.nx, grid.ny, grid.nz)
    return [
        None,
        MaterialField("scalar", rng.uniform(0.5, 2.0, cells)),
        MaterialField("diagonal", rng.uniform(0.5, 2.0, cells + (3,))),
    ]


def _same_field(batched, nodes):
    assert isinstance(batched, FieldTrajectory)
    for k, node in enumerate(nodes):
        assert batched.kind == node.kind
        for a, b in zip(batched.node(k).components(), node.components()):
            assert np.array_equal(a, b)


def _per_node(fn, traj):
    return [fn(traj.node(k)) for k in range(traj.grid.nt)]


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds)
def test_kernels_on_a_trajectory_equal_their_nodes(grid, seed):
    rng = np.random.default_rng(seed)
    e = _random_traj(grid, EDGE, rng)
    h = _random_traj(grid, FACE, rng)

    _same_field(curl_edge_to_face(e, grid), _per_node(lambda f: curl_edge_to_face(f, grid), e))
    _same_field(curl_face_to_edge(h, grid), _per_node(lambda f: curl_face_to_edge(f, grid), h))
    _same_field(zero_tangential(e), _per_node(zero_tangential, e))
    weights = rng.uniform(0.5, 2.0, grid.nt)
    for traj in (e, h):
        other = _random_traj(grid, traj.kind, rng)
        pairs = lambda op: [op(traj.node(k), other.node(k)) for k in range(grid.nt)]
        _same_field(traj + other, pairs(lambda a, b: a + b))
        _same_field(traj - other, pairs(lambda a, b: a - b))
        _same_field(traj * 2.5, _per_node(lambda f: f * 2.5, traj))
        _same_field(2.5 * traj, _per_node(lambda f: 2.5 * f, traj))
        _same_field(traj * weights[:, None, None, None],
                    [traj.node(k) * weights[k] for k in range(grid.nt)])
        _same_field(-traj, _per_node(lambda f: -f, traj))
        copied = traj.copy()
        _same_field(copied, _per_node(lambda f: f.copy(), traj))
        assert not any(np.shares_memory(a, b)
                       for a, b in zip(copied.components(), traj.components()))
        cells = cell_average(traj, grid)
        assert cells.shape == (grid.nt, grid.nx, grid.ny, grid.nz, 3)
        for k in range(grid.nt):
            assert np.array_equal(cells[k], cell_average(traj.node(k), grid))
        _same_field(
            cell_average_adjoint(cells, grid, traj.kind),
            [cell_average_adjoint(c, grid, traj.kind) for c in cells],
        )
        for w in _materials(grid, rng):
            for k in range(grid.nt):
                u = traj.node(k)
                assert weighted_norm_sq(u, w, grid) == weighted_inner(u, u, w, grid)
            # of a trajectory, one value per node with the bits of the node's call
            assert np.array_equal(weighted_norm_sq(traj, w, grid),
                                  _per_node(lambda f: weighted_norm_sq(f, w, grid), traj))
            assert np.array_equal(
                weighted_inner(traj, other, w, grid),
                [weighted_inner(traj.node(k), other.node(k), w, grid) for k in range(grid.nt)])
            _same_field(gram_apply(traj, w, grid),
                        _per_node(lambda f: gram_apply(f, w, grid), traj))
            if w is not None:
                _same_field(apply_material_staggered(traj, w, grid),
                            _per_node(lambda f: apply_material_staggered(f, w, grid), traj))


@settings(max_examples=20, deadline=None)
@given(grid=grids, seed=seeds)
def test_curls_stay_adjoint_on_trajectories(grid, seed):
    rng = np.random.default_rng(seed)
    e = zero_tangential(_random_traj(grid, EDGE, rng))
    h = _random_traj(grid, FACE, rng)
    lhs = dof_inner(curl_edge_to_face(e, grid), h, grid)
    rhs = dof_inner(e, curl_face_to_edge(h, grid), grid)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_trajectory_kernels_check_spatial_extents():
    grid = mb.GridSpec(3, 3, 3, 1.0, 1.0, 1.0, 3, 1.0)
    other = mb.GridSpec(4, 3, 3, 1.0, 1.0, 1.0, 3, 1.0)
    with pytest.raises(DimensionError):
        curl_edge_to_face(FieldTrajectory.zeros(grid, EDGE), other)
    with pytest.raises(DimensionError):
        cell_average(FieldTrajectory.zeros(grid, FACE), other)


# ---------------------------------------------------------------------------
# the optimizer gradient against a node-by-node reference


def _reference_gradient(quad, Y):
    """The gradient as a loop over time nodes, one StaggeredField at a time;
    the time derivative D and its transpose act along the time axis, as in
    the gradient.  T1/T3 are T5/T4 with Etilde_t = dEtilde/dt, whose
    coupling is 0."""
    p, approx, g, nt = quad.p, quad.approx, quad.grid, quad.grid.nt
    M = default_Y(p, approx)
    dE = trajectory_derivative(approx.Etilde)
    derived = quad.theorem in ("T1", "T3")
    Et = dE if derived else approx.Etilde_t
    face_const = FieldTrajectory.from_fields(g, [
        apply_material_staggered(curl_edge_to_face(Et.node(k), g), p.mu_inv, g)
        for k in range(nt)
    ])
    face_res = face_const - trajectory_derivative(Y)
    base = trajectory_derivative(Et)
    coupling = None if derived else Et - dE
    scaled = FieldTrajectory.from_fields(
        g, [gram_apply(face_res.node(k), p.mu, g) * quad.w_face[k] for k in range(nt)]
    )
    face_part = trajectory_derivative(scaled, transpose=True)
    fields = []
    for k in range(nt):
        gk = gram_apply(M.node(k) - Y.node(k), p.mu, g) * (-2.0 * quad.w_pt[k])
        e_res = (
            apply_material_staggered(base.node(k), p.eps, g)
            + curl_face_to_edge(Y.node(k), g)
            - p.K.node(k)
        )
        ge = gram_apply(e_res, p.eps_inv, g)
        gk = gk + (2.0 * quad.w_edge[k]) * curl_edge_to_face(zero_tangential(ge), g)
        gk = gk - 2.0 * face_part.node(k)
        if coupling is not None:
            curl_c = curl_edge_to_face(coupling.node(k), g)
            gk = gk - (2.0 * quad.w_coup[k]) * gram_apply(curl_c, None, g)
        fields.append(gk)
    if quad.variant == "z":
        curl_e0 = curl_edge_to_face(p.E0 - approx.Etilde.node(0), g)
        fields[0] = fields[0] - (2.0 * quad.Cz) * gram_apply(curl_e0, None, g)
    else:
        fields[0] = fields[0] - (2.0 * quad.Cz) * gram_apply(
            M.node(0) - Y.node(0), p.mu, g
        )
    return FieldTrajectory.from_fields(g, fields)


@functools.lru_cache(maxsize=None)
def _perturbed_polynomial():
    grid = mb.GridSpec(3, 4, 3, 1.0, 1.2, 0.9, 6, 1.0)
    p = mb.assemble_problem(grid, case=mb.polynomial_source())
    approx = mb.project_exact(mb.polynomial_source(), grid)
    bump = FieldTrajectory.sample(grid, EDGE, lambda t: mb.bump_field("poly_t2", grid, t))
    approx.Etilde = approx.Etilde + 0.01 * bump
    return p, approx


@pytest.mark.parametrize("theorem", ["T1", "T5"])
@pytest.mark.parametrize("variant", ["z", "z_hat"])
@settings(max_examples=8, deadline=None)
@given(seed=seeds, rho=st.floats(0.05, 0.95), gamma=st.floats(0.01, 20.0))
def test_gradient_is_bit_identical_to_the_node_loop(theorem, variant, seed, rho, gamma):
    p, approx = _perturbed_polynomial()
    g = p.grid
    Y = default_Y(p, approx) + _random_traj(g, FACE, np.random.default_rng(seed))
    quad = BoundQuadratic(p, approx, rho, gamma, theorem, variant)
    _same_field(quad.gradient(Y), [_reference_gradient(quad, Y).node(k) for k in range(g.nt)])
