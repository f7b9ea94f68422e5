"""Discrete curls, weighted quadrature, and time-integration kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
from maxbound.errors import DimensionError, ParameterError
from maxbound.fields import EDGE, FACE, StaggeredField, nodal_axes
from maxbound.operators import (
    apply_material_staggered,
    cell_average,
    cell_average_adjoint,
    cumulative_trapezoid,
    curl_edge_to_face,
    curl_face_to_edge,
    ddt_node,
    dof_inner,
    exp_weighted_cumulative,
    gradient_node_to_edge,
    gram_apply,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
    zero_tangential,
)

from conftest import (
    ddt_matrix,
    random_edge_interior,
    random_face,
    smooth_edge,
    tangential_trace_max,
    time_integral,
)


def _grid(n=5, nt=4):
    return mb.GridSpec(n, n + 1, n - 1, 1.1, 0.9, 1.3, nt, 1.0)


# ---------------------------------------------------------------------------
# structure of the difference operators


def test_curl_of_gradient_vanishes():
    grid = _grid()
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((grid.nx + 1, grid.ny + 1, grid.nz + 1))
    g = gradient_node_to_edge(phi, grid)
    c = curl_edge_to_face(g, grid)
    for comp in c.components():
        assert np.abs(comp).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.tuples(*[st.integers(2, 7)] * 3),
       lengths=st.tuples(*[st.floats(1e-3, 1e3)] * 3), seed=st.integers(0, 2**32 - 1))
def test_curl_of_gradient_vanishes_on_any_grid(n, lengths, seed):
    grid = mb.GridSpec(*n, *lengths, 2, 1.0)
    phi = np.random.default_rng(seed).standard_normal(tuple(np.add(n, 1)))
    c = curl_edge_to_face(gradient_node_to_edge(phi, grid), grid)
    # a curl entry is phi over a product of two cell sizes
    worst = max(float(np.abs(comp).max()) for comp in c.components())
    assert worst * min(grid.hx, grid.hy, grid.hz) ** 2 / np.abs(phi).max() <= 1e-12


def test_curls_are_mutually_adjoint_for_zero_trace_fields():
    grid = _grid()
    rng = np.random.default_rng(3)
    for _ in range(5):
        e = random_edge_interior(grid, rng)
        h = random_face(grid, rng)
        lhs = dof_inner(curl_edge_to_face(e, grid), h, grid)
        rhs = dof_inner(e, curl_face_to_edge(h, grid), grid)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.tuples(*[st.integers(2, 7)] * 3),
       lengths=st.tuples(*[st.floats(1e-3, 1e3)] * 3), seed=st.integers(0, 2**32 - 1))
def test_curls_are_mutually_adjoint_on_any_grid(n, lengths, seed):
    grid = mb.GridSpec(*n, *lengths, 2, 1.0)
    rng = np.random.default_rng(seed)
    e = random_edge_interior(grid, rng)
    h = random_face(grid, rng)
    curl_e = curl_edge_to_face(e, grid)
    lhs = dof_inner(curl_e, h, grid)
    rhs = dof_inner(e, curl_face_to_edge(h, grid), grid)
    scale = math.sqrt(dof_inner(curl_e, curl_e, grid) * dof_inner(h, h, grid))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_curl_face_to_edge_zeroes_boundary_tangential_rows():
    grid = _grid()
    rng = np.random.default_rng(5)
    h = random_face(grid, rng)
    out = curl_face_to_edge(h, grid)
    assert tangential_trace_max(out) == 0.0


def test_zero_tangential_is_a_projection():
    grid = _grid()
    rng = np.random.default_rng(7)
    e = StaggeredField.zeros(grid, EDGE)
    e.x[...] = rng.standard_normal(e.x.shape)
    e.y[...] = rng.standard_normal(e.y.shape)
    e.z[...] = rng.standard_normal(e.z.shape)
    z1 = zero_tangential(e)
    z2 = zero_tangential(z1)
    assert tangential_trace_max(z1) == 0.0
    for a, b in zip(z1.components(), z2.components()):
        assert np.array_equal(a, b)


# the explicit Yee table that nodal_axes replaces: each component's dof counts
_YEE_TABLE = {
    EDGE: {"x": (0, 1, 1), "y": (1, 0, 1), "z": (1, 1, 0)},
    FACE: {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)},
}


@settings(max_examples=40, deadline=None)
@given(n=st.tuples(*[st.integers(2, 7)] * 3),
       lengths=st.tuples(*[st.floats(1e-3, 1e3)] * 3), seed=st.integers(0, 2**32 - 1))
def test_the_nodal_axes_rule_matches_the_explicit_yee_table(n, lengths, seed):
    grid = mb.GridSpec(*n, *lengths, 2, 1.0)
    rng = np.random.default_rng(seed)
    e = StaggeredField(EDGE, *(rng.uniform(1.0, 2.0, np.add(n, _YEE_TABLE[EDGE][c]))
                               for c in "xyz"))
    zero_tangential(e)
    for kind, table in _YEE_TABLE.items():
        for i, c in enumerate("xyz"):
            want = tuple(np.add(n, table[c]))
            assert grid.shape(kind, c) == want
            assert nodal_axes(kind, i) == tuple(d for d in range(3) if table[c][d])
            for d, coords in enumerate(grid.component_coords(kind, c)):
                assert coords.shape == tuple(want[d] if a == d else 1 for a in range(3))
                # grid nodes span [0, l], cell midpoints [h/2, l - h/2]
                h = lengths[d] / n[d]
                end = 0.0 if table[c][d] else 0.5 * h
                np.testing.assert_allclose(coords.ravel(),
                                           np.linspace(end, lengths[d] - end, want[d]),
                                           rtol=1e-13, atol=1e-13 * lengths[d])
            if kind == EDGE:
                # the tangential boundary: both ends of each axis with n + 1 dofs
                index = np.indices(want)
                boundary = np.zeros(want, dtype=bool)
                for d in range(3):
                    if table[c][d]:
                        boundary |= (index[d] == 0) | (index[d] == want[d] - 1)
                np.testing.assert_array_equal(getattr(e, c) == 0.0, boundary)


def test_curl_kind_checks():
    grid = _grid()
    h = StaggeredField.zeros(grid, FACE)
    e = StaggeredField.zeros(grid, EDGE)
    with pytest.raises(DimensionError):
        curl_edge_to_face(h, grid)
    with pytest.raises(DimensionError):
        curl_face_to_edge(e, grid)


# ---------------------------------------------------------------------------
# weighted quadrature


def test_weighted_inner_constant_ones_gives_three_volumes():
    grid = _grid()
    one = StaggeredField.sample(
        grid,
        EDGE,
        lambda X, Y, Z: 1.0 + 0.0 * X,
        lambda X, Y, Z: 1.0 + 0.0 * X,
        lambda X, Y, Z: 1.0 + 0.0 * X,
    )
    vol = grid.lx * grid.ly * grid.lz
    got = weighted_inner(one, one, None, grid)
    assert got == pytest.approx(3.0 * vol, rel=1e-13)


def test_weighted_inner_matches_bruteforce_cell_sum():
    grid = mb.GridSpec(3, 4, 2, 1.0, 0.7, 1.2, 3, 1.0)
    rng = np.random.default_rng(19)
    u = random_edge_interior(grid, rng)
    v = random_edge_interior(grid, rng)
    w = mb.MaterialField.diagonal(grid, 1.5, 0.5, 2.0)
    got = weighted_inner(u, v, w, grid)

    # independent brute-force sum over cells and the four edges per component
    diag = (1.5, 0.5, 2.0)
    total = 0.0
    for i in range(grid.nx):
        for j in range(grid.ny):
            for k in range(grid.nz):
                ux = 0.25 * (u.x[i, j, k] + u.x[i, j + 1, k] + u.x[i, j, k + 1] + u.x[i, j + 1, k + 1])
                vx = 0.25 * (v.x[i, j, k] + v.x[i, j + 1, k] + v.x[i, j, k + 1] + v.x[i, j + 1, k + 1])
                uy = 0.25 * (u.y[i, j, k] + u.y[i + 1, j, k] + u.y[i, j, k + 1] + u.y[i + 1, j, k + 1])
                vy = 0.25 * (v.y[i, j, k] + v.y[i + 1, j, k] + v.y[i, j, k + 1] + v.y[i + 1, j, k + 1])
                uz = 0.25 * (u.z[i, j, k] + u.z[i + 1, j, k] + u.z[i, j + 1, k] + u.z[i + 1, j + 1, k])
                vz = 0.25 * (v.z[i, j, k] + v.z[i + 1, j, k] + v.z[i, j + 1, k] + v.z[i + 1, j + 1, k])
                total += diag[0] * ux * vx + diag[1] * uy * vy + diag[2] * uz * vz
    total *= grid.cell_volume
    assert got == pytest.approx(total, rel=1e-12)


def test_a_grid_is_refused_exactly_when_its_trajectory_rows_exceed_one_array():
    # the rule reads the counts alone: neither grid below allocates anything
    from maxbound.fields import MAX_FLOATS

    n = 1000
    nt = MAX_FLOATS // (3 * (n + 1) ** 3)
    assert mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, 1.0).nt == nt
    for counts in ((n, n, n, nt + 1), (10**12, 10**12, 10**12, 2), (10**400, 2, 2, 2)):
        with pytest.raises(ParameterError, match="too large"):
            mb.GridSpec(*counts[:3], 1.0, 1.0, 1.0, counts[3], 1.0)


def test_material_validation_rejects_nonpositive_coefficients_and_unknown_kinds():
    grid = _grid(3, 3)
    with pytest.raises(ParameterError):
        mb.MaterialField.scalar(grid, -1.0)
    with pytest.raises(ParameterError):
        mb.MaterialField.diagonal(grid, 1.0, 1.0, -2.0)
    with pytest.raises(ParameterError):
        mb.MaterialField.diagonal(grid, 1.0, np.nan, 2.0)
    # only per-cell scalar or diagonal coefficients exist
    with pytest.raises(ParameterError):
        mb.MaterialField("full", np.broadcast_to(np.eye(3), (3, 3, 3, 3, 3)))


def _special_values(rng, shape):
    """Random values with signed zeros, subnormals, huge values and infinities."""
    v = rng.standard_normal(shape)
    flat = v.reshape(-1)
    picks = rng.choice(flat.size, size=6 * 4, replace=False).reshape(6, 4)
    for idx, val in zip(picks, (-0.0, 0.0, 5e-324, -1e308, np.inf, -np.inf)):
        flat[idx] = val
    return v


def _same_bits(got, want):
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def _cell_coeff(w):
    """The coefficients of w on a cell array (..., 3)."""
    return w.values[..., None] if w.kind == "scalar" else w.values


@pytest.mark.parametrize("material", ["scalar", "diagonal"])
def test_the_identity_shortcut_equals_the_multiply_by_ones_bit_for_bit(material):
    grid = _grid(4, 3)
    rng = np.random.default_rng(37)
    ones = (mb.MaterialField.identity(grid) if material == "scalar"
            else mb.MaterialField.diagonal(grid, 1.0, 1.0, 1.0))
    assert ones.is_identity()
    assert not mb.MaterialField.diagonal(grid, 1.0, 1.0, 1.0 + 2**-52).is_identity()
    cells = np.ones((grid.nx, grid.ny, grid.nz, 3))

    for kind in (EDGE, FACE):
        f = StaggeredField(kind, *(_special_values(rng, grid.shape(kind, c)) for c in "xyz"))
        got = apply_material_staggered(f, ones, grid)
        # the shortcut never builds the identity's coefficient, the mean of
        # its adjacent cells' ones; build it here
        coeff = cell_average_adjoint(cells * _cell_coeff(ones), grid, kind).apply(
            np.divide, cell_average_adjoint(cells, grid, kind))
        for a, b, c in zip(got.components(), f.components(), coeff.components()):
            assert (c == 1.0).all()
            _same_bits(a, b * c)
    assert not ones.dof_cache


def test_the_identity_material_holds_one_float_and_inverts_to_an_identity():
    grid = _grid(4, 3)
    ones = mb.MaterialField.identity(grid)
    for m in (ones, ones.inverse()):
        assert m.kind == "scalar" and m.is_identity()
        assert m.values.shape == (grid.nx, grid.ny, grid.nz) and m.values.strides == (0, 0, 0)
        assert not m.values.flags.writeable and (m.values == 1.0).all()
    assert mb.MaterialField.diagonal(grid, 1.0, 1.0, 1.0).inverse().is_identity()
    halves = mb.MaterialField.scalar(grid, 2.0).inverse()
    assert not halves.is_identity() and (halves.values == 0.5).all()


@pytest.mark.parametrize("material", ["scalar", "diagonal"])
def test_a_spatially_constant_material_is_reproduced_exactly_at_every_dof(material):
    grid = mb.GridSpec(3, 4, 5, 1.0, 1.2, 0.8, 3, 1.0)
    rng = np.random.default_rng(41)
    constants = np.concatenate([
        [0.1, 1.0 / 3.0, 3.0, 1.0 + 2**-52, 1.0 - 2**-53, 1e-300, 1e300],
        np.exp(rng.uniform(-30.0, 30.0, 60)),
    ])
    for c in constants:
        cs = (c, c, c) if material == "scalar" else (c, 1.0 / c, 2.0 * c)
        w = (mb.MaterialField.scalar(grid, c) if material == "scalar"
             else mb.MaterialField.diagonal(grid, *cs))
        for kind in (EDGE, FACE):
            ones = StaggeredField(kind, *(np.ones(grid.shape(kind, a)) for a in "xyz"))
            got = apply_material_staggered(ones, w, grid)
            for comp, want in zip(got.components(), cs):
                _same_bits(comp, np.full(comp.shape, want))


def _adjacent_cell_mean(values, grid, kind, own, index):
    """The mean coefficient of the cells around one dof, summed in a loop."""
    n = (grid.nx, grid.ny, grid.nz)
    ranges = []
    for d in range(3):
        # a dof sits between cells along an axis where it is not cell-centred
        between = (d != own) if kind == EDGE else (d == own)
        ranges.append([i for i in (index[d] - 1, index[d]) if 0 <= i < n[d]]
                      if between else [index[d]])
    cells = [(i, j, k) for i in ranges[0] for j in ranges[1] for k in ranges[2]]
    return sum(values[cell] for cell in cells) / len(cells)


@pytest.mark.parametrize("material", ["scalar", "diagonal"])
def test_each_dof_takes_the_mean_coefficient_of_its_adjacent_cells(material):
    grid = mb.GridSpec(3, 4, 2, 1.0, 1.2, 0.8, 3, 1.0)
    rng = np.random.default_rng(43)
    cells = (grid.nx, grid.ny, grid.nz)
    w = mb.MaterialField(material, rng.uniform(0.5, 4.0, cells if material == "scalar"
                                                else cells + (3,)))
    for kind in (EDGE, FACE):
        ones = StaggeredField(kind, *(np.ones(grid.shape(kind, a)) for a in "xyz"))
        got = apply_material_staggered(ones, w, grid)
        for own, comp in enumerate(got.components()):
            values = w.values if material == "scalar" else w.values[..., own]
            for index in np.ndindex(comp.shape):
                want = _adjacent_cell_mean(values, grid, kind, own, index)
                assert abs(comp[index] - want) <= 2 * np.spacing(want), (kind, own, index)


def test_gram_apply_represents_the_weighted_norm():
    grid = _grid(4, 3)
    rng = np.random.default_rng(29)
    u = random_edge_interior(grid, rng)
    w = mb.MaterialField.diagonal(grid, 1.2, 0.8, 2.5)
    g = gram_apply(u, w, grid)
    dot = sum(float(np.sum(a * b)) for a, b in zip(u.components(), g.components()))
    assert dot == pytest.approx(weighted_norm_sq(u, w, grid), rel=1e-12)


def test_cell_average_adjoint_is_the_euclidean_transpose():
    grid = mb.GridSpec(3, 3, 3, 1.0, 1.0, 1.0, 3, 1.0)
    rng = np.random.default_rng(31)
    for kind in (EDGE, FACE):
        u = StaggeredField.zeros(grid, kind)
        u.x[...] = rng.standard_normal(u.x.shape)
        u.y[...] = rng.standard_normal(u.y.shape)
        u.z[...] = rng.standard_normal(u.z.shape)
        v = rng.standard_normal((grid.nx, grid.ny, grid.nz, 3))
        lhs = float(np.sum(cell_average(u, grid) * v))
        back = cell_average_adjoint(v, grid, kind)
        rhs = sum(float(np.sum(a * b)) for a, b in zip(u.components(), back.components()))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_weighted_inner_rejects_mixed_kinds():
    grid = _grid(3, 3)
    e = StaggeredField.zeros(grid, EDGE)
    h = StaggeredField.zeros(grid, FACE)
    with pytest.raises(DimensionError):
        weighted_inner(e, h, None, grid)


# ---------------------------------------------------------------------------
# convergence of the spatial discretizations


def _curl_error(n):
    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, 3, 1.0)
    e = smooth_edge(grid)
    num = curl_edge_to_face(e, grid)

    pi = math.pi

    def ex(X, Y, Z):
        return np.sin(Y * pi) * np.sin(Z * pi) * (1.0 + 0.3 * np.cos(X * pi))

    def ey(X, Y, Z):
        return np.sin(X * pi) * np.sin(Z * pi) * np.cos(0.5 * Y * pi)

    def ez(X, Y, Z):
        return np.sin(X * pi) * np.sin(Y * pi) * (0.5 + np.sin(Z * pi))

    def d(f, axis, X, Y, Z, h=1e-6):
        args = [X.copy(), Y.copy(), Z.copy()]
        args[axis] = args[axis] + h
        hi = f(*args)
        args[axis] = args[axis] - 2 * h
        lo = f(*args)
        return (hi - lo) / (2 * h)

    exact = StaggeredField.sample(
        grid,
        FACE,
        lambda X, Y, Z: d(ez, 1, X, Y, Z) - d(ey, 2, X, Y, Z),
        lambda X, Y, Z: d(ex, 2, X, Y, Z) - d(ez, 0, X, Y, Z),
        lambda X, Y, Z: d(ey, 0, X, Y, Z) - d(ex, 1, X, Y, Z),
    )
    diff = num + (-1.0) * exact
    return math.sqrt(weighted_norm_sq(diff, None, grid))


def test_curl_converges_at_second_order():
    errs = [_curl_error(n) for n in (8, 16, 32)]
    orders = [math.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]
    assert all(o >= 1.9 for o in orders), orders


def _quadrature_error(n):
    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, 3, 1.0)
    pi = math.pi
    u = StaggeredField.sample(
        grid,
        EDGE,
        lambda X, Y, Z: np.sin(pi * X) * np.sin(pi * Y),
        lambda X, Y, Z: np.sin(pi * Y) * np.sin(pi * Z),
        lambda X, Y, Z: np.sin(pi * X) * np.sin(pi * Z),
    )
    exact = 3.0 * 0.25  # three components, each integrating sin^2 * sin^2 = 1/4
    return abs(weighted_norm_sq(u, None, grid) - exact)


def test_quadrature_converges_at_second_order():
    errs = [_quadrature_error(n) for n in (8, 16, 32)]
    orders = [math.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]
    assert all(o >= 1.9 for o in orders), orders


# ---------------------------------------------------------------------------
# time kernels


def test_cumulative_trapezoid_matches_direct_sums():
    rng = np.random.default_rng(37)
    v = rng.standard_normal(9)
    dt = 0.3
    got = cumulative_trapezoid(v, dt)
    assert got[0] == 0.0
    direct = [0.0]
    for k in range(1, len(v)):
        direct.append(direct[-1] + 0.5 * dt * (v[k] + v[k - 1]))
    assert np.allclose(got, direct, rtol=1e-14, atol=0.0)


def test_time_integral_endpoint_and_range_checks():
    v = np.array([1.0, 2.0, 3.0])
    assert time_integral(v, 0.5) == pytest.approx(2.0)
    assert time_integral(v, 0.5, up_to=0) == 0.0
    with pytest.raises(ParameterError):
        time_integral(v, 0.5, up_to=3)


def test_exp_weighted_cumulative_closed_form_constant_inputs():
    nt, T = 2001, 1.0
    dt = T / (nt - 1)
    t = np.linspace(0.0, T, nt)
    gamma = 1.7
    f = np.ones(nt) * 0.4
    got = exp_weighted_cumulative(f, gamma, dt)
    expect = 0.4 * (np.exp(gamma * t) - 1.0)
    assert np.abs(got - expect).max() < 1e-6


def test_exp_weighted_cumulative_rejects_nonpositive_gamma():
    with pytest.raises(ParameterError):
        exp_weighted_cumulative(np.ones(5), 0.0, 0.1)


@pytest.mark.parametrize("gamma", [math.nan, [1.0, 1.0, math.nan, 1.0, 1.0]],
                         ids=["scalar", "nodal"])
def test_exp_weighted_cumulative_rejects_a_nan_gamma(gamma):
    with pytest.raises(ParameterError, match="gamma must be positive"):
        exp_weighted_cumulative(np.ones(5), np.array(gamma), 0.1)


@pytest.mark.filterwarnings("error")
def test_exp_weighted_cumulative_is_exactly_zero_for_zero_input_at_large_gamma():
    got = exp_weighted_cumulative(np.zeros(33), 1000.0, 1.0 / 32)
    assert np.array_equal(got, np.zeros(33))


@pytest.mark.filterwarnings("error")
def test_exp_weighted_cumulative_is_infinite_only_where_the_true_value_overflows():
    nt, gamma, f = 33, 1000.0, 0.7
    dt = 1.0 / (nt - 1)
    got = exp_weighted_cumulative(np.full(nt, f), gamma, dt)
    # trapezoid closed form for constant inputs: E_k = h (q + 1) (q^k - 1) / (q - 1)
    # with h = dt gamma f / 2 and q = exp(gamma dt), taken in logarithms
    a = gamma * dt
    log_h = math.log(0.5 * dt * gamma * f)
    log_max = math.log(np.finfo(float).max)
    assert got[0] == 0.0
    for k in range(1, nt):
        log_true = log_h + a + math.log1p(math.exp(-a)) + k * a \
            + math.log1p(-math.exp(-k * a)) - a - math.log1p(-math.exp(-a))
        if log_true < log_max - 1.0:
            assert math.log(got[k]) == pytest.approx(log_true, rel=1e-12)
        else:
            assert log_true > log_max + 1.0
            assert got[k] == math.inf


def test_exp_weighted_cumulative_matches_the_direct_exponential_form():
    rng = np.random.default_rng(23)
    nt, dt = 33, 1.0 / 32
    f = rng.uniform(0.1, 2.0, nt)
    for gamma in (1e-3, 1.0, 10.0, 100.0, rng.uniform(0.5, 20.0, nt)):
        g = np.broadcast_to(gamma, (nt,))
        big = cumulative_trapezoid(g, dt)
        direct = np.exp(big) * cumulative_trapezoid(np.exp(-big) * g * f, dt)
        np.testing.assert_allclose(exp_weighted_cumulative(f, gamma, dt), direct, rtol=1e-13)


def test_time_derivative_matrix_exact_on_quadratics():
    nt, dt = 7, 0.25
    D = ddt_matrix(nt, dt)
    t = np.arange(nt) * dt
    q = 1.0 + 2.0 * t + 3.0 * t**2
    dq = 2.0 + 6.0 * t
    assert np.abs(D @ q - dq).max() < 1e-12


def test_time_derivative_matrix_requires_three_nodes():
    grid = mb.GridSpec(2, 2, 2, 1.0, 1.0, 1.0, 2, 0.1)
    with pytest.raises(ParameterError):
        trajectory_derivative(mb.FieldTrajectory.zeros(grid, EDGE))


def test_trajectory_derivative_applies_matrix_along_time():
    grid = mb.GridSpec(3, 3, 3, 1.0, 1.0, 1.0, 5, 1.0)
    rng = np.random.default_rng(41)
    traj = mb.FieldTrajectory.zeros(grid, EDGE)
    traj.x[...] = rng.standard_normal(traj.x.shape)
    D = ddt_matrix(grid.nt, grid.dt)
    out = trajectory_derivative(traj)
    expect = np.tensordot(D, traj.x, axes=(1, 0))
    assert np.allclose(out.x, expect, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("nt", [3, 4, 9])
def test_stencil_time_axis_matches_the_dense_matrix_and_its_transpose(nt):
    grid = mb.GridSpec(2, 3, 2, 1.0, 1.0, 1.0, nt, 0.7)
    rng = np.random.default_rng(nt)
    u, v = (mb.FieldTrajectory.zeros(grid, FACE) for _ in range(2))
    for comp in u.components() + v.components():
        comp[...] = rng.standard_normal(comp.shape)
    D = ddt_matrix(nt, grid.dt)
    for transpose, dense in ((False, D), (True, D.T)):
        got = trajectory_derivative(u, transpose)
        for a, c in zip(got.components(), u.components()):
            expect = np.tensordot(dense, c, axes=(1, 0))
            assert np.abs(a - expect).max() <= 1e-13 * np.abs(expect).max()
    # <Du, v> = <u, D^T v>
    lhs = dof_inner(trajectory_derivative(u), v, grid)
    rhs = dof_inner(u, trajectory_derivative(v, transpose=True), grid)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))
    # row k is ddt_node's sum, bit for bit
    du = trajectory_derivative(u)
    for k in range(nt):
        np.testing.assert_array_equal(du.node(k).x, ddt_node(u.node, k, grid).x)
