"""The streaming series against the whole-trajectory residuals, and its memory.

`majorant.series` walks the time nodes once with a small window of node
fields; these tests pin it to the trajectory-wide reference (`residuals`
followed by per-node norms) and to the optimizer's `residual_series` bit
for bit, and check that certify's working memory does not grow with the
number of time nodes.
"""

import contextlib
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
from maxbound import majorant
from maxbound.fields import EDGE, FACE, FieldTrajectory, MaterialField, NodeSource, StaggeredField
from maxbound.majorant import THEOREMS, ZeroTermParts, residual_series, series
from maxbound.operators import (
    curl_edge_to_face,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
)
from maxbound.optimize import BoundQuadratic
from maxbound.snapshot import save_snapshot, snapshot_reader
from maxbound.solver import SolveOutput

from conftest import cavity_setup, inner_trajectory


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


def _random_problem(grid, rng, material):
    """_random_inputs, with identity materials for material "identity"."""
    p, approx = _random_inputs(grid, rng, material == "diagonal")
    if material == "identity":
        p = mb.assemble_problem(grid, eps=MaterialField.identity(grid),
                                mu=MaterialField.identity(grid), F=p.F, G=p.G, E0=p.E0, H0=p.H0)
    return p, approx


def _reference(p, approx, Y, theorem):
    """The series from whole trajectories: residuals, then per-node norms.
    T1/T3 are T5/T4 with Etilde_t = dEtilde/dt, whose coupling is 0."""
    g = p.grid
    Y = Y if Y is not None else mb.default_Y(p, approx)
    res = mb.residuals(p, approx, Y, theorem)
    kt_sq = weighted_norm_sq(res.Ktilde, p.mu, g)
    edge_sq = weighted_norm_sq(res.Kcheck, p.eps_inv, g)
    face_sq = weighted_norm_sq(res.Rt, p.mu, g)
    if theorem in ("T1", "T3"):
        coup = np.zeros(g.nt)
        first0 = trajectory_derivative(approx.Etilde).node(0)
    else:
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
    _close(s.coup, coup)
    for name in ("et0_sq", "curl_e0_sq", "cross", "ktilde0_sq"):
        _close(getattr(s.zp, name), getattr(zp, name))
    if not explicit_Y:
        assert not s.kt_sq.any()


@settings(max_examples=40, deadline=None)
@given(
    theorem=st.sampled_from(("T1", "T3", "T4", "T5")),
    nt=st.sampled_from((5, 6, 9)),
    material=st.sampled_from(("identity", "scalar", "diagonal")),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_default_free_field_skips_only_terms_that_are_zero(theorem, nt, material, seed):
    rng = np.random.default_rng(seed)
    grid = mb.GridSpec(3, 2, 3, 1.0, 0.7, 1.3, nt, 0.8)
    p, approx = _random_problem(grid, rng, material)

    skipped = series(p, approx, None, theorem)
    computed = series(p, approx, mb.default_Y(p, approx), theorem)
    for name in ("kt_sq", "edge_sq", "face_sq", "coup"):
        assert np.array_equal(getattr(skipped, name), getattr(computed, name))
    assert skipped.zp == computed.zp


def _same(got, want):
    """Equal bit for bit."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from((("T1", "T5"), ("T3", "T4"))),
    nt=st.sampled_from((5, 6, 9)),
    material=st.sampled_from(("identity", "scalar", "diagonal")),
    seed=st.integers(0, 2**32 - 1),
)
def test_t1_and_t3_are_t5_and_t4_with_the_derived_velocity(pair, nt, material, seed):
    # T1/T3 read Etilde_t as dEtilde/dt: on (Etilde, dEtilde/dt) T5/T4
    # give the same bound, true error and Y-gradient, to the bit, and the
    # Etilde_t that T1/T3 are given is never read
    derived, weak = pair
    rng = np.random.default_rng(seed)
    grid = mb.GridSpec(3, 2, 3, 1.0, 0.7, 1.3, nt, 0.8)
    p, approx = _random_problem(grid, rng, material)
    velocity = SolveOutput(approx.Etilde, approx.Htilde, trajectory_derivative(approx.Etilde))
    exact = SolveOutput(_random_traj(grid, EDGE, rng), None, _random_traj(grid, EDGE, rng))
    Y = _random_traj(grid, FACE, rng)
    shape = (nt,) if THEOREMS[derived].nodal_weights else ()
    rho, gamma = rng.uniform(0.1, 0.9, shape), rng.uniform(0.5, 2.0, shape)
    params = mb.MajorantParams(rho=rho, gamma=gamma, Y=Y)
    got = mb.certify(p, approx, params, theorem=derived, exact=exact)
    want = mb.certify(p, velocity, params, theorem=weak, exact=exact)
    for name in ("f", "bound_b", "bound_B", "trueN", "trueBigN"):
        _same(getattr(got, name), getattr(want, name))
    for variant in ("z", "z_hat"):
        g_derived = BoundQuadratic(p, approx, rho, gamma, derived, variant).gradient(Y)
        g_weak = BoundQuadratic(p, velocity, rho, gamma, weak, variant).gradient(Y)
        for a, b in zip(g_derived.components(), g_weak.components()):
            _same(a, b)


@settings(max_examples=40, deadline=None)
@given(
    theorem=st.sampled_from(("T1", "T3", "T4", "T5")),
    nt=st.sampled_from((5, 6, 9)),
    material=st.sampled_from(("identity", "scalar", "diagonal")),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_optimizer_series_is_the_streamed_series_bit_for_bit(theorem, nt, material, seed):
    # the optimizer takes its series from whole residual trajectories; its
    # bound is certify's only when every norm keeps its bits
    rng = np.random.default_rng(seed)
    grid = mb.GridSpec(3, 2, 3, 1.0, 0.7, 1.3, nt, 0.8)
    p, approx = _random_problem(grid, rng, material)
    Y = _random_traj(grid, FACE, rng)
    got, _ = residual_series(p, approx, Y, theorem)
    want = series(p, approx, Y, theorem)
    for name in ("kt_sq", "edge_sq", "face_sq", "coup"):
        _same(getattr(got, name), getattr(want, name))
    for name in ("et0_sq", "curl_e0_sq", "cross", "ktilde0_sq"):
        _same(getattr(got.zp, name), getattr(want.zp, name))
    assert got.error_sq is None and want.error_sq is None


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


# ---------------------------------------------------------------------------
# the true error on the helper thread, beside the residuals


def _exact_held(how, exact, grid, tmp_path, stack):
    """exact in memory, open in snapshot_reader, or as a NodeSource per field."""
    if how == "memory":
        return exact
    if how == "reader":
        path = tmp_path / "exact.bin"
        save_snapshot(path, grid, exact)
        return stack.enter_context(snapshot_reader(path, grid))[1]
    return SolveOutput(NodeSource(grid, EDGE, exact.Etilde.node), None,
                       NodeSource(grid, EDGE, exact.Etilde_t.node))


@pytest.mark.parametrize("how", ["memory", "reader", "NodeSource"])
@pytest.mark.parametrize("explicit_Y", [False, True])
@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T5"])
def test_the_helper_thread_keeps_every_bit(theorem, explicit_Y, how, helper_thread,
                                           monkeypatch, tmp_path):
    rng = np.random.default_rng(7)
    grid = mb.GridSpec(3, 2, 3, 1.0, 0.7, 1.3, 9, 0.8)
    p, approx = _random_inputs(grid, rng, True)
    exact = SolveOutput(*(_random_traj(grid, kind, rng) for kind in (EDGE, FACE, EDGE)))
    Y = _random_traj(grid, FACE, rng) if explicit_Y else None
    with contextlib.ExitStack() as stack:
        held = _exact_held(how, exact, grid, tmp_path, stack)
        monkeypatch.setattr(majorant, "_HELPER_MIN_CELLS", grid.nx * grid.ny * grid.nz + 1)
        want = series(p, approx, Y, theorem, held)
        monkeypatch.setattr(majorant, "_HELPER_MIN_CELLS", grid.nx * grid.ny * grid.nz)
        got = series(p, approx, Y, theorem, held)
    assert helper_thread == [False] * grid.nt + [True] * grid.nt
    for name in ("kt_sq", "edge_sq", "face_sq", "coup"):
        _same(getattr(got, name), getattr(want, name))
    assert got.zp == want.zp
    for got_sq, want_sq in zip(got.error_sq, want.error_sq):
        _same(got_sq, want_sq)
    assert np.all(want.error_sq[0] > 0.0) and np.all(want.error_sq[1] > 0.0)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("raiser, error", [
    pytest.param("exact", _Boom, id="exact"), pytest.param("approx", _Boom, id="approx"),
    ("exact", KeyboardInterrupt), ("approx", KeyboardInterrupt)])
def test_an_error_on_either_thread_leaves_certify_as_itself_and_no_thread(raiser, error,
                                                                         helper_thread):
    # the exact reference is read on the helper, the approximation on the caller
    p, approx, exact = cavity_setup(4, 17)
    boom = error("node 3")

    def raising(traj):
        return NodeSource(p.grid, EDGE, lambda k: _raise(boom) if k == 3 else traj.node(k))

    if raiser == "exact":
        exact = SolveOutput(exact.Etilde, None, raising(exact.Etilde_t))
    else:
        approx = SolveOutput(raising(approx.Etilde), approx.Htilde, approx.Etilde_t)
    threads = threading.active_count()
    with pytest.raises(error) as info:
        mb.certify(p, approx, mb.MajorantParams(), "T5", exact)
    assert info.value is boom
    assert threading.active_count() == threads
    assert helper_thread and all(helper_thread)


def _raise(exc):
    raise exc


def test_the_helper_thread_runs_under_the_caller_s_errstate(helper_thread):
    p, approx, exact = cavity_setup(4, 17)
    huge = SolveOutput(exact.Etilde * 1e200, None, exact.Etilde_t * 1e200)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        series(p, approx, None, "T5", huge)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        s = series(p, approx, None, "T5", huge)
    assert np.all(np.isinf(s.error_sq[0][1:]))
    assert helper_thread and all(helper_thread)


@pytest.mark.parametrize("asked, cpus, n, threaded", [
    (True, 2, 25, False), (True, 2, 26, True), (True, 1, 26, False), (True, 4, 40, True),
    (False, 2, 40, False)])
def test_the_helper_thread_runs_from_its_least_node_size_on_more_than_one_cpu(
        asked, cpus, n, threaded, monkeypatch):
    # 25^3 cells are below 2^14, 26^3 above; a pool starts its worker at the first submit
    monkeypatch.setattr(majorant.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    before = threading.active_count()
    pool = majorant._helper_pool(mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, 9, 1.0), asked)
    assert (pool is not None) is threaded
    with pool or contextlib.nullcontext():
        if threaded:
            pool.submit(lambda: None).result()
        assert threading.active_count() == before + threaded
    assert threading.active_count() == before
