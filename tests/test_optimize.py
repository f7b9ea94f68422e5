"""Parameter search, quadratic free-field minimization, alternating driver."""

import contextlib
import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
import maxbound.majorant
import maxbound.operators
import maxbound.optimize
from maxbound.errors import MaxboundError, ParameterError, PreconditionError
from maxbound.fields import EDGE, FACE, FieldTrajectory, NodeSource
from maxbound.majorant import final_bound
from maxbound.majorant import series as node_series
from maxbound.operators import (
    cumulative_trapezoid,
    curl_edge_to_face,
    curl_face_to_edge,
    gram_apply,
    gronwall_recursion,
    zero_tangential,
)
from maxbound.optimize import (
    _STALL_WINDOW,
    _Y_STALL_RTOL,
    BoundQuadratic,
    _block_hessian,
    _flatten,
    _scaled_eigenbasis,
    _time_eigenbasis,
    _unflatten,
    conjugate_gradient,
    golden_section,
    spatial_diagonals,
)
from maxbound.problem import bump_field, bump_field_dt
from maxbound.snapshot import load_snapshot, save_snapshot, snapshot_reader
from maxbound.solver import SolveOutput

from conftest import cavity_setup, polynomial_setup, random_face, traced_peak


def _perturbed(p, exact, delta=1e-2, key="poly_t2"):
    grid = p.grid
    shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field(key, grid, t))
    shift_dt = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field_dt(key, grid, t))
    return SolveOutput(
        exact.Etilde + delta * shift, exact.Htilde, exact.Etilde_t + delta * shift_dt
    )


# ---------------------------------------------------------------------------
# scalar search


def test_golden_section_finds_quadratic_minimum():
    x, fx = golden_section(lambda u: (u - 1.7) ** 2 + 0.25, 0.0, 5.0, tol=1e-6)
    assert abs(x - 1.7) < 1e-5
    assert fx == pytest.approx(0.25, abs=1e-9)


def test_golden_section_returns_endpoint_for_monotone_functions():
    x, _ = golden_section(lambda u: u, 2.0, 9.0, tol=1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ParameterError):
        golden_section(lambda u: u, 3.0, 3.0)


def _scalar_golden(fn, lo, hi, tol, max_iter):
    """The golden-section search on one bracket in Python floats: the
    oracle of each row of the lockstep search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    it = 0
    while b - a > tol and it < max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        it += 1
    x = c if fc <= fd else d
    fx = fc if fc <= fd else fd
    for cand, fcand in ((a, fn(a)), (b, fn(b))):
        if fcand < fx or (fcand == fx and cand < x):
            x, fx = cand, fcand
    return x, fx


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


# one scalar function per row, with its bracket
_GOLDEN_ROWS = (
    (lambda u: (u - 1.7) ** 2 + 0.25, 0.0, 5.0),
    (lambda u: 3.0, -1.0, 2.0),                                  # ties throughout
    (lambda u: float(math.floor(u)), 0.5, 5.0),                  # ties on steps
    (lambda u: u, 2.0, 9.0),                                     # monotone: an endpoint
    (lambda u: math.nan, 0.0, 1.0),                              # nan everywhere
    (lambda u: math.nan if u > 3.0 else (u - 2.5) ** 2, 0.0, 5.0),
    (lambda u: (u - 0.3) ** 2, 0.0, 1.0),                        # stops one step before
    (lambda u: (u - 0.3) ** 2, 0.0, 1.0 / 0.618),                # this one
    (lambda u: -math.cos(u), -4.0, 3.0),
)


@pytest.mark.parametrize("tol, max_iter", [(1e-6, 200), (1e-3, 200), (1e-9, 7)])
def test_lockstep_golden_section_is_the_scalar_search_on_every_row(tol, max_iter):
    fns = [row[0] for row in _GOLDEN_ROWS]
    lo = np.array([row[1] for row in _GOLDEN_ROWS])
    hi = np.array([row[2] for row in _GOLDEN_ROWS])
    calls = []

    def fn(x):
        calls.append(x.shape)
        return np.array([f(float(u)) for f, u in zip(fns, x)])

    x, fx = golden_section(fn, lo, hi, tol=tol, max_iter=max_iter)
    assert x.shape == fx.shape == (len(fns),) and set(calls) == {(len(fns),)}
    for i, (f, a, b) in enumerate(_GOLDEN_ROWS):
        want = _scalar_golden(f, a, b, tol, max_iter)
        assert _bits(x[i]) == _bits(want[0]) and _bits(fx[i]) == _bits(want[1]), i
    if max_iter == 200:
        # the rows on [0, 1] and [0, 1/0.618] stop an iteration apart
        evals = []
        for f, a, b in _GOLDEN_ROWS[6:8]:
            seen = []
            _scalar_golden(lambda u, f=f: seen.append(u) or f(u), a, b, tol, max_iter)
            evals.append(len(seen))
        assert evals[1] == evals[0] + 1


def test_lockstep_golden_section_broadcasts_its_bracket_and_takes_scalars():
    x, fx = golden_section(lambda u: (u - np.array([0.2, 0.7])) ** 2, 0.0, 1.0, tol=1e-8)
    for i, m in enumerate((0.2, 0.7)):
        want = _scalar_golden(lambda u: (u - m) ** 2, 0.0, 1.0, 1e-8, 200)
        assert _bits(x[i]) == _bits(want[0]) and _bits(fx[i]) == _bits(want[1])
    x, fx = golden_section(lambda u: (u - 1.7) ** 2, 0.0, 5.0, tol=1e-6)
    assert np.ndim(x) == 0 and np.ndim(fx) == 0
    with pytest.raises(ParameterError):
        golden_section(lambda u: u, np.array([0.0, 3.0]), 3.0)


def _scalar_recursion(u0, rate, half, dt):
    """gronwall_recursion's recursion written out for one row, in Python
    floats: the oracle of the 1-D call."""
    with np.errstate(over="ignore"):
        q = np.exp(np.diff(cumulative_trapezoid(rate, dt)))
    e = float(u0)
    out = [e]
    for qk, h_prev, h in zip(q.tolist(), half[:-1].tolist(), half[1:].tolist()):
        s = e + h_prev
        e = (qk * s if s else 0.0) + h
        out.append(e)
    return np.array(out)


def test_gronwall_recursion_on_candidate_rows_is_the_one_row_call():
    rng = np.random.default_rng(17)
    nt, dt = 33, 1.0 / 32
    rate = rng.uniform(0.0, 50.0, (6, nt))
    half = 0.5 * dt * rng.uniform(-1.0, 4.0, (6, nt))
    rate[1] = 4e4          # q overflows: +inf from the first nonzero node on
    half[2] = 0.0          # all zero, also under the overflowing rate
    rate[2] = 4e4
    half[3, :5] = 0.0      # zero until node 5, then +inf
    rate[3] = 4e4
    half[4] = -half[4]     # sums that cancel to 0 here and there
    half[4, 1::2] = -half[4, ::2][: nt // 2]
    for u0 in (0.0, 0.3):
        got = gronwall_recursion(u0, rate, half, dt)
        assert got.shape == (6, nt)
        assert np.isinf(got[1, -1]) and np.isinf(got[3, -1])
        assert not got[2].any() or u0
        for i in range(6):
            one = gronwall_recursion(u0, rate[i], half[i], dt)
            assert np.array_equal(_bits(got[i]), _bits(one)), i
            assert np.array_equal(_bits(one), _bits(_scalar_recursion(u0, rate[i], half[i], dt)))
    # a rate shared by every row broadcasts against them
    shared = gronwall_recursion(0.0, rate[0], half, dt)
    for i in range(6):
        assert np.array_equal(_bits(shared[i]), _bits(gronwall_recursion(0.0, rate[0], half[i], dt)))


def test_config_validation():
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(gamma_bracket=(2.0, 1.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            mb.OptimizeConfig(gamma_bracket=(1.0, bad))
    # a bracket is two numbers: there is no explicit gamma grid
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(gamma_bracket=(1, 10, 100))
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(cg_tol=2.0)


@pytest.mark.parametrize("field", ["sweeps", "cg_max_iter"])
@pytest.mark.parametrize("bad", [2.0, True, False, math.nan, math.inf, -math.inf, "2", -1],
                         ids=["float", "True", "False", "nan", "inf", "-inf", "str", "negative"])
def test_an_iteration_count_that_is_not_an_integer_is_refused_at_construction(field, bad):
    # a float count made optimize_all raise TypeError after its residual
    # assembly, and a nan cg_max_iter ran no CG step at all
    with pytest.raises(ParameterError, match=f"{field} must be an integer >= "):
        mb.OptimizeConfig(**{field: bad})
    assert mb.OptimizeConfig(**{field: np.int64(2)}).__dict__[field] == 2


@pytest.mark.parametrize("field, bad", [
    ("gamma_bracket", (True, 10)), ("gamma_bracket", (1e-3, False)),
    ("gamma_bracket", (np.True_, 10)), ("gamma_bracket", ("1", 10)),
    ("gamma_bracket", "ab"), ("gamma_bracket", 5.0), ("gamma_bracket", {1e-3, 1e3}),
    ("gamma_bracket", None), ("cg_tol", "0.5"), ("cg_tol", True), ("cg_tol", None),
    ("cg_tol", (0.5,))], ids=str)
def test_a_float_field_that_is_not_a_real_number_is_refused_at_construction(field, bad):
    # (True, 10) was taken as (1.0, 10.0), "0.5" raised TypeError and "ab"
    # ValueError
    with pytest.raises(ParameterError, match="gamma bracket must be" if field == "gamma_bracket"
                       else "cg_tol must be"):
        mb.OptimizeConfig(**{field: bad})


@pytest.mark.parametrize("bracket", [[0.5, 2], (np.float32(0.5), np.int64(2)),
                                     np.array([0.5, 2.0])], ids=["list", "numpy", "array"])
def test_a_bracket_of_two_real_numbers_is_taken_as_floats(bracket):
    cfg = mb.OptimizeConfig(gamma_bracket=bracket, cg_tol=np.float64(1e-8))
    assert cfg.gamma_bracket == (0.5, 2.0)
    assert all(type(v) is float for v in cfg.gamma_bracket)


def test_parameter_search_never_worse_than_the_default_point():
    p, exact = polynomial_setup(5, 9)
    approx = _perturbed(p, exact)
    Y = mb.default_Y(p, approx)
    series = node_series(p, approx, Y, "T5")
    base = final_bound(series, 0.5, 1.0, "z_hat", p.grid.dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gamma, rho, value = mb.optimize_gamma_rho(p, approx, Y)
    assert value <= base + 1e-15
    assert 0.0 < rho < 1.0 and gamma > 0.0
    assert value == pytest.approx(
        final_bound(series, rho, gamma, "z_hat", p.grid.dt), rel=1e-12
    )


def test_parameter_search_warns_when_the_optimum_sits_on_the_bracket_edge():
    p, exact = polynomial_setup(4, 5)
    Y = mb.default_Y(p, exact)
    # residual-free input: the bound is flat in gamma, ties resolve to the edge
    with pytest.warns(RuntimeWarning):
        mb.optimize_gamma_rho(p, exact, Y)


# ---------------------------------------------------------------------------
# conjugate gradients


def _one_row(A):
    """apply_A of conjugate_gradient for the one-row system A x = rhs[0]."""
    return lambda d, rows: (A @ d[0])[None]


def test_conjugate_gradient_solves_a_random_spd_system():
    rng = np.random.default_rng(91)
    M = rng.standard_normal((30, 30))
    A = M @ M.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    x, iters, rel = conjugate_gradient(_one_row(A), rhs[None], tol=1e-12, max_iter=200)
    assert rel < 1e-10
    assert np.allclose(x[0], np.linalg.solve(A, rhs), rtol=1e-8, atol=1e-10)


def test_an_unfinished_solve_returns_its_last_iterate_even_when_the_residual_rose():
    # CG lowers the quadratic at every step while the residual norm may
    # grow; the iterate of least quadratic value is the last one
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    A = Q @ np.diag(np.logspace(0, 6, 80)) @ Q.T
    A = 0.5 * (A + A.T)
    rhs = rng.standard_normal(80)
    # CG from zero is deterministic: iterate k is the result at max_iter=k
    runs = [conjugate_gradient(_one_row(A), rhs[None], max_iter=k) for k in range(1, 16)]
    assert [it for _, it, _ in runs] == list(range(1, 16))
    runs = [(xk[0], it, rel) for xk, it, rel in runs]
    x, _, rel = runs[-1]
    assert rel > 1.0
    assert rel > min(r for _, _, r in runs[:-1])
    assert rel == pytest.approx(np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs), rel=1e-6)
    q = [xk @ A @ xk / 2 - rhs @ xk for xk, _, _ in runs]
    assert all(q[-1] < qk for qk in q[:-1])


def test_conjugate_gradient_from_zero_makes_one_product_per_iteration():
    # the residual of the zero start is rhs itself, so no product of zero
    rng = np.random.default_rng(91)
    M = rng.standard_normal((30, 30))
    A = M @ M.T + 30.0 * np.eye(30)
    products = []

    def apply_A(d, rows):
        products.append(d[0].copy())
        return (A @ d[0])[None]

    _, iters, _ = conjugate_gradient(apply_A, rng.standard_normal((1, 30)), max_iter=5)
    assert iters == 5 and len(products) == 5
    assert all(np.any(v != 0.0) for v in products)


def test_conjugate_gradient_rejects_indefinite_systems():
    A = np.diag([1.0, -1.0])
    rhs = np.array([[0.0, 1.0]])
    with pytest.raises(MaxboundError):
        conjugate_gradient(_one_row(A), rhs)


def test_conjugate_gradient_handles_singular_consistent_systems():
    A = np.diag([2.0, 0.0])
    rhs = np.array([[4.0, 0.0]])
    x, _, _ = conjugate_gradient(_one_row(A), rhs, tol=1e-14)
    assert x[0, 0] == pytest.approx(2.0, rel=1e-12)


def _plain_cg(A, rhs, tol=1e-10, max_iter=200, stall_tol=0.0):
    """Textbook CG from zero with the stall rule of conjugate_gradient, one
    system at a time: the oracle of its one-row solves."""
    x, r = np.zeros_like(rhs), rhs.copy()
    d, rs = r.copy(), float(np.sum(r * r))
    ref = math.sqrt(rs) or 1.0
    qs, it = [0.0], 0
    while it < max_iter and math.sqrt(rs) > tol * ref:
        Ad = A @ d
        dAd = float(np.sum(d * Ad))
        if dAd <= 0.0:
            break
        alpha = rs / dAd
        x += d * alpha
        r -= Ad * alpha
        rs_old, rs = rs, float(np.sum(r * r))
        qs.append(-0.5 * (float(np.sum(x * r)) + float(np.sum(x * rhs))))
        it += 1
        if it >= _STALL_WINDOW and qs[-1 - _STALL_WINDOW] - qs[-1] <= stall_tol:
            break
        d *= rs / rs_old
        d += r
    return x, it, math.sqrt(rs) / ref


def _blocks(mats):
    """apply_A of conjugate_gradient for the block-diagonal diag(mats),
    recording the rows of every call."""
    calls = []

    def apply_A(d, rows):
        calls.append(list(rows))
        return np.stack([mats[j] @ v for j, v in zip(rows, d)])

    return apply_A, calls


def _slow_system(rng, n=80):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.logspace(0, 6, n)) @ Q.T
    return 0.5 * (A + A.T)


def test_a_one_row_solve_is_the_plain_cg_bit_for_bit():
    rng = np.random.default_rng(3)
    A = _slow_system(rng)
    rhs = rng.standard_normal(80)
    for kw in (dict(max_iter=7), dict(max_iter=500, stall_tol=1e-3), dict(tol=1e-3)):
        want = _plain_cg(A, rhs, **kw)
        x, it, rel = conjugate_gradient(_one_row(A), rhs[None], **kw)
        assert x.shape == (1, 80)
        np.testing.assert_array_equal(x[0], want[0])
        assert (it, rel) == want[1:]


def test_each_row_of_a_block_diagonal_system_is_its_own_solve():
    rng = np.random.default_rng(5)
    n, nb = 20, 6
    mats = []
    for j in range(nb):
        M = rng.standard_normal((n, n))
        mats.append(M @ M.T + 10.0 ** (j - 2) * np.eye(n))
    rhs = rng.standard_normal((nb, n)) * np.logspace(-3, 3, nb)[:, None]
    apply_A, calls = _blocks(mats)
    info = {}
    x, iters, rel = conjugate_gradient(apply_A, rhs, tol=1e-13, max_iter=500, info=info)
    for j in range(nb):
        want = np.linalg.solve(mats[j], rhs[j])
        np.testing.assert_allclose(x[j], want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    # every call is a lockstep step on the rows still active: a row leaves
    # for good once it stops, and no call holds a stopped row
    steps = info["row_steps"]
    assert len(calls) == iters == steps.max()
    assert [sum(j in c for c in calls) for j in range(nb)] == list(steps)
    assert all(set(b) <= set(a) for a, b in zip(calls, calls[1:]))
    assert len(set(steps)) > 1  # the rows did stop at different steps
    residual = np.stack([rhs[j] - mats[j] @ x[j] for j in range(nb)])
    assert rel == pytest.approx(np.linalg.norm(residual) / np.linalg.norm(rhs), rel=1e-3)


def test_zero_singular_and_stalling_rows_stop_without_disturbing_the_others():
    rng = np.random.default_rng(7)
    n = 80
    slow = _slow_system(rng, n)
    singular = np.diag(np.r_[1.0, 2.0, 3.0, np.zeros(n - 3)])
    mats = [slow, np.eye(n), singular, slow, slow]
    rhs = rng.standard_normal((5, n))
    rhs[1] = 0.0
    rhs[2, 3:] = 0.0  # in the range of the singular block, with 3 eigenvalues
    rhs[3] *= 1e-6  # its q moves by 1e-12 of the others': it stalls at once
    stall_tol = 1e-3 * abs(rhs[0] @ np.linalg.solve(slow, rhs[0]))
    apply_A, calls = _blocks(mats)
    info = {}
    x, _, _ = conjugate_gradient(apply_A, rhs, tol=1e-12, max_iter=500, stall_tol=stall_tol,
                                 info=info)
    steps = info["row_steps"]
    assert steps[1] == 0 and not x[1].any() and all(1 not in c for c in calls)
    np.testing.assert_allclose(x[2], np.linalg.pinv(singular) @ rhs[2], rtol=1e-12)
    assert steps[2] == 3
    assert steps[3] == _STALL_WINDOW < min(steps[0], steps[4])
    # each row is the one-row solve of its block, to the bit, its share of
    # the stall tolerance being stall_tol / 5
    for j in (0, 2, 3, 4):
        alone = conjugate_gradient(_one_row(mats[j]), rhs[j][None], tol=1e-12, max_iter=500,
                                   stall_tol=stall_tol / 5)
        np.testing.assert_array_equal(x[j], alone[0][0])
        assert steps[j] == alone[1]


def test_a_row_that_meets_a_null_direction_stops_there():
    # the second direction of the singular row is (0, 1.0625), in its null
    # space; the other row converges at step 2
    mats = [np.diag([2.0, 0.0]), np.diag([1.0, 3.0])]
    apply_A, calls = _blocks(mats)
    info = {}
    x, iters, _ = conjugate_gradient(apply_A, np.array([[4.0, 1.0], [1.0, 1.0]]), tol=1e-12,
                                     info=info)
    np.testing.assert_array_equal(x[0], [2.125, 0.53125])  # its first step, untouched
    np.testing.assert_allclose(x[1], [1.0, 1.0 / 3.0], rtol=1e-14)
    assert list(info["row_steps"]) == [1, 2] and iters == 2
    assert calls == [[0, 1], [0, 1]]


def test_a_negative_curvature_row_raises():
    rng = np.random.default_rng(9)
    mats = [np.eye(4), np.diag([1.0, -1.0, 2.0, 3.0]), 2.0 * np.eye(4)]
    apply_A, _ = _blocks(mats)
    with pytest.raises(MaxboundError, match="negative-curvature"):
        conjugate_gradient(apply_A, rng.standard_normal((3, 4)))


# ---------------------------------------------------------------------------
# the bound as a quadratic in the free field


def test_quadratic_value_matches_certification_at_the_final_node():
    p, approx, _ = cavity_setup(6, 13)
    quad = BoundQuadratic(p, approx, rho=0.5, gamma=1.0)
    Y = mb.default_Y(p, approx)
    rep = mb.certify(p, approx, mb.MajorantParams(Y=Y), theorem="T5")
    assert quad.value(Y) == rep.bound_b[-1]


# (theorem, rho, gamma, Y off the default, zero variant); "nodal" draws rho
# in (0.1, 0.9) and gamma in (1e-2, 50) per node, and gamma = 600 on
# T = 0.5 puts exp(Gamma(T)) at e^300
_GRADIENT_CASES = [
    ("T5", 0.4, 1.2, False, "z_hat"),
    ("T4", "nodal", "nodal", False, "z_hat"),
    ("T1", 0.4, 1.2, False, "z_hat"),
    ("T5", 0.4, 1.2, True, "z"),
    ("T4", "nodal", "nodal", True, "z"),
    ("T3", "nodal", "nodal", True, "z_hat"),
    ("T5", 0.4, 600.0, True, "z_hat"),
]


@pytest.mark.parametrize("theorem, rho, gamma, off_default, variant", _GRADIENT_CASES)
def test_quadratic_gradient_matches_finite_differences(theorem, rho, gamma, off_default,
                                                        variant):
    grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 5, 0.5)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    approx = mb.leapfrog_solve(p)
    rng = np.random.default_rng(101)
    if rho == "nodal":
        rho, gamma = rng.uniform(0.1, 0.9, grid.nt), rng.uniform(1e-2, 50.0, grid.nt)
    quad = BoundQuadratic(p, approx, rho=rho, gamma=gamma, theorem=theorem,
                          zero_variant=variant)
    Y = mb.default_Y(p, approx)
    if off_default:
        Y = Y + FieldTrajectory.from_fields(
            grid, [0.1 * random_face(grid, rng) for _ in range(grid.nt)])
    x0 = _flatten(Y)
    g0 = quad.gradient_flat(x0)
    d = rng.standard_normal(x0.shape)
    d /= np.linalg.norm(d)
    # value() is quadratic in Y, so the central difference is exact but for
    # the rounding of value(), which a long step divides down
    h = 1e-2
    fp = quad.value(_unflatten(x0 + h * d, grid))
    fm = quad.value(_unflatten(x0 - h * d, grid))
    fd = (fp - fm) / (2.0 * h)
    assert fd == pytest.approx(np.vdot(g0, d), rel=1e-8)


def test_quadratic_hessian_is_symmetric_positive_semidefinite():
    grid = mb.GridSpec(3, 3, 3, 1.0, 1.0, 1.0, 5, 0.4)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    approx = mb.leapfrog_solve(p)
    quad = BoundQuadratic(p, approx, rho=0.5, gamma=1.0)
    nd = _flatten(mb.default_Y(p, approx)).size
    base = quad.gradient_flat(np.zeros(nd))
    A = np.empty((nd, nd))
    eye = np.eye(nd)
    for j in range(nd):
        A[:, j] = quad.gradient_flat(eye[:, j]) - base
    assert np.abs(A - A.T).max() < 1e-12
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert eig.min() > -1e-10 * max(eig.max(), 1.0)


def _retained_by_quadratic(nt):
    """Bytes a BoundQuadratic still holds after its construction."""
    p, exact = polynomial_setup(4, nt)
    BoundQuadratic(p, exact, rho=0.5, gamma=1.0)  # fills the material caches
    tracemalloc.start()
    try:
        quad = BoundQuadratic(p, exact, rho=0.5, gamma=1.0)  # alive while measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_quadratic_holds_no_whole_trajectory():
    # the gradient takes its residuals from majorant.residuals on each call,
    # so what the quadratic keeps grows with nt alone, not with nt x dofs
    short, long_ = _retained_by_quadratic(9), _retained_by_quadratic(33)
    grid = polynomial_setup(4, 33)[0].grid
    face_node = 8 * sum(int(np.prod(grid.shape(FACE, c))) for c in "xyz")
    assert long_ - short < (33 - 9) * face_node


def test_quadratic_requires_a_smooth_zero_variant():
    p, approx, _ = cavity_setup(6, 13)
    with pytest.raises(ParameterError):
        BoundQuadratic(p, approx, rho=0.5, gamma=1.0, zero_variant="z_tilde")


@pytest.mark.filterwarnings("error")
def test_quadratic_rejects_an_unknown_theorem():
    p, approx, _ = cavity_setup(4, 9)
    with pytest.raises(ParameterError):
        mb.optimize_Y(p, approx, gamma=1.0, rho=0.5, theorem="T2")


@pytest.mark.filterwarnings("error")
def test_quadratic_refuses_gronwall_weights_that_overflow():
    # exp(Gamma(T)) = exp(1000) is out of the float range
    p, approx, _ = cavity_setup(4, 9)
    info = {}
    with pytest.raises(MaxboundError):
        mb.optimize_Y(p, approx, gamma=1000.0, rho=0.5, info=info)
    assert info == {}


@pytest.mark.filterwarnings("error")
def test_alternating_driver_recovers_from_an_infinite_starting_bound():
    # at gamma0 = 1000 the bound is +inf, so the first sweep skips the Y step
    # and its (gamma, rho) step alone moves to finite parameters
    p, exact = polynomial_setup(4, 9)
    grid = p.grid
    shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field("poly_t2", grid, t))
    approx = SolveOutput(exact.Etilde + 1e-2 * shift, exact.Htilde, exact.Etilde_t)
    rep, params = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=2), gamma0=1000.0)
    hist = rep.optimize_history
    assert hist[0] == math.inf
    assert hist[1] == pytest.approx(1.544e-3, rel=1e-3)
    assert hist[2] == pytest.approx(8.604e-4, rel=1e-3)
    assert rep.bound_b[-1] == pytest.approx(hist[-1], rel=1e-12)
    assert params.gamma < 1000.0


def test_free_field_minimization_reduces_the_bound():
    p, exact = polynomial_setup(5, 9)
    rng = np.random.default_rng(111)
    approx = _perturbed(p, exact)
    quad = BoundQuadratic(p, approx, rho=0.5, gamma=1.0)
    Y0 = mb.default_Y(p, approx) + FieldTrajectory.from_fields(
        p.grid, [0.1 * random_face(p.grid, rng) for _ in range(p.grid.nt)]
    )
    before = quad.value(Y0)
    Y = mb.optimize_Y(p, approx, gamma=1.0, rho=0.5, Y0=Y0)
    after = quad.value(Y)
    assert after < before
    # every iterate along the way is itself an admissible free field;
    # iterate k is the result at cg_max_iter=k
    info = {}
    mb.optimize_Y(p, approx, gamma=1.0, rho=0.5, Y0=Y0, info=info)
    seen = [quad.value(mb.optimize_Y(p, approx, gamma=1.0, rho=0.5, Y0=Y0,
                                     cfg=mb.OptimizeConfig(cg_max_iter=k)))
            for k in range(1, info["iterations"] + 1)]
    assert seen and seen[-1] == pytest.approx(after, rel=1e-9)


def test_alternating_driver_runs_one_series_pass_per_free_field(monkeypatch):
    # the (gamma, rho) search and the stall reference reuse the series the
    # driver took of the free field they work on
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    cfg = mb.OptimizeConfig(sweeps=2)
    series_calls = []
    real_series = maxbound.majorant.series

    def counted(p, approx, Y, theorem, exact=None):
        series_calls.append(exact is None)
        return real_series(p, approx, Y, theorem, exact)

    monkeypatch.setattr(maxbound.majorant, "series", counted)
    monkeypatch.setattr(maxbound.optimize, "series", counted)
    rep, params = mb.optimize_all(p, approx, cfg, exact=exact)
    assert sum(series_calls) <= cfg.sweeps + 1
    hist = rep.optimize_history
    assert all(b <= a for a, b in zip(hist[:-1], hist[1:]))
    again = mb.certify(p, approx, params, theorem="T5", exact=exact)
    assert hist[-1] == pytest.approx(again.bound_b[-1], rel=1e-12)


def test_alternating_driver_assembles_the_residuals_once_per_kept_free_field(monkeypatch):
    # the Y step's gradient reads the residuals the driver assembled for the
    # series of the same Y; they depend on Y alone, not on (gamma, rho)
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    calls = []
    real_residuals = maxbound.majorant.residuals

    def counted(*args):
        calls.append(args[2])
        return real_residuals(*args)

    monkeypatch.setattr(maxbound.majorant, "residuals", counted)
    monkeypatch.setattr(maxbound.optimize, "residuals", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep, params = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=2))
    assert [info["accepted"] for info in rep.cg_sweeps] == [True, True]
    # the start Y and each sweep's new Y, each assembled once
    assert len(calls) == 3 and len({id(Y) for Y in calls}) == 3
    assert calls[-1] is params.Y


@pytest.mark.parametrize("theorem", ["T1", "T4", "T5"])
@pytest.mark.parametrize("variant", ["z", "z_hat"])
def test_optimize_y_assembles_the_residuals_of_its_start_once(monkeypatch, theorem, variant):
    # b(T) at Y0, which sets the stall rule, and the first gradient read one
    # assembly; Y and info are those of a solve that assembles Y0 twice
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    quad = BoundQuadratic(p, approx, 0.5, 1.3, theorem, variant)
    Y0 = mb.default_Y(p, approx)
    want_info = {}
    want = maxbound.optimize._minimize_Y(quad, _scaled_eigenbasis(quad, spatial_diagonals(p)),
                                         Y0, quad.value(Y0),
                                         mb.OptimizeConfig(), want_info)
    calls = []
    real_residuals = maxbound.majorant.residuals

    def counted(*args):
        calls.append(args[2])
        return real_residuals(*args)

    monkeypatch.setattr(maxbound.majorant, "residuals", counted)
    monkeypatch.setattr(maxbound.optimize, "residuals", counted)
    info = {}
    Y = mb.optimize_Y(p, approx, gamma=1.3, rho=0.5, theorem=theorem, zero_variant=variant,
                      Y0=Y0, info=info)
    assert len(calls) == 1 and calls[0] is Y0
    for got, ref in zip(Y.components(), want.components()):
        np.testing.assert_array_equal(got, ref)
    assert info == want_info


def test_the_y_solve_holds_y_once(monkeypatch):
    # the gradient's rows are freed before the CG, no copy of Y0's rows is
    # made before it, and the rows of the new Y are made after it
    import weakref

    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    Y0 = mb.default_Y(p, approx)
    events, rows = [], []

    def flatten(traj):
        out = _flatten(traj)
        events.append("Y0" if traj is Y0 else "gradient")
        rows.append(weakref.ref(out))
        return out

    def cg(*args, **kwargs):
        events.append("cg")
        assert all(ref() is None for ref in rows)
        return conjugate_gradient(*args, **kwargs)

    monkeypatch.setattr(maxbound.optimize, "_flatten", flatten)
    monkeypatch.setattr(maxbound.optimize, "conjugate_gradient", cg)
    Y = mb.optimize_Y(p, approx, gamma=1.3, rho=0.5, Y0=Y0)
    assert events == ["gradient", "cg", "Y0"]
    assert Y.x.base is rows[-1]()


@pytest.mark.parametrize("sweeps, probes", [(0, 0), (2, 1)])
def test_optimize_all_probes_the_spatial_diagonals_once(monkeypatch, sweeps, probes):
    # they depend on the grid and the materials alone, not on (gamma, rho),
    # and a run without a Y step needs none
    p, exact = polynomial_setup(4, 9)
    calls = []
    comb_diagonals = maxbound.optimize._comb_diagonals

    def counted(ops, grid):
        calls.append(grid)
        return comb_diagonals(ops, grid)

    monkeypatch.setattr(maxbound.optimize, "_comb_diagonals", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep, _ = mb.optimize_all(p, _perturbed(p, exact), mb.OptimizeConfig(sweeps=sweeps))
    assert sum(info is not None for info in rep.cg_sweeps) == sweeps
    assert len(calls) == probes


# ---------------------------------------------------------------------------
# one admission: every entry point refuses what certify refuses, before any pass


_NODAL = np.linspace(0.2, 0.8, 9)
_ADMISSIBLE = dict(theorem="T5", variant="z_hat", rho=0.5, gamma=1.0, nt=9, velocity=True)
# each row: what departs from an admissible call, and the refusal that entry
# points with no certify counterpart (a Y step) give; y_step marks a row only
# an entry point with a Y step takes
_REFUSED = {
    "unknown-theorem": dict(theorem="T2"),
    "theorem-not-a-name": dict(theorem=5),
    "unknown-variant": dict(variant="bogus"),
    "z_tilde-with-a-Y-step": dict(variant="z_tilde", y_step=True, refusal=(
        ParameterError, "Y-optimization needs a smooth zero-term variant, got 'z_tilde'")),
    "nodal-rho-under-T1": dict(theorem="T1", rho=_NODAL),
    "nodal-gamma-under-T5": dict(gamma=_NODAL),
    "rho-0": dict(rho=0.0),
    "rho-1-nodal-under-T4": dict(theorem="T4", rho=np.where(_NODAL > 0.7, 1.0, _NODAL)),
    "rho-1.5": dict(rho=1.5),
    "rho-1.5-where-the-start-overflows": dict(rho=1.5, gamma=1000.0),
    "rho-nan": dict(rho=math.nan),
    "gamma-0": dict(gamma=0.0),
    "gamma-negative-nodal-under-T4": dict(theorem="T4", gamma=-_NODAL),
    "gamma-nan": dict(gamma=math.nan),
    "two-nodes-under-T4": dict(theorem="T4", nt=2),
    "two-nodes-under-T5": dict(nt=2),
    "no-velocity-under-T5": dict(velocity=False),
}


def _params(a):
    return mb.MajorantParams(rho=a["rho"], gamma=a["gamma"], zero_variant=a["variant"])


def _cfg(a):
    return mb.OptimizeConfig(sweeps=1)


# each entry point: the inputs it takes beyond theorem, variant, nt and
# velocity, and the call
_ENTRY_POINTS = {
    "certify": ({"rho", "gamma"}, lambda p, x, a: mb.certify(p, x, _params(a), a["theorem"])),
    "certify_gamma_rho": (set(), lambda p, x, a: mb.certify_gamma_rho(
        p, x, _cfg(a), a["theorem"], a["variant"])),
    "optimize_gamma_rho": (set(), lambda p, x, a: mb.optimize_gamma_rho(
        p, x, None, _cfg(a), a["theorem"], a["variant"])),
    "optimize_all": ({"rho", "gamma", "y_step"}, lambda p, x, a: mb.optimize_all(
        p, x, _cfg(a), a["theorem"], a["variant"], rho0=a["rho"], gamma0=a["gamma"])),
    "optimize_Y": ({"rho", "gamma", "y_step"}, lambda p, x, a: mb.optimize_Y(
        p, x, a["gamma"], a["rho"], None, a["theorem"], a["variant"])),
    "BoundQuadratic": ({"rho", "gamma", "y_step"}, lambda p, x, a: BoundQuadratic(
        p, x, a["rho"], a["gamma"], a["theorem"], a["variant"])),
}


def _applies(row, entry):
    """Whether the entry point takes every input the row sets."""
    shared = {"theorem", "variant", "nt", "velocity", "refusal"}
    return set(_REFUSED[row]) <= shared | _ENTRY_POINTS[entry][0]


@functools.lru_cache(maxsize=None)
def _table_inputs(nt, velocity):
    """(problem, approx): the perturbed 4^3 x 9 polynomial, or at nt = 2 the
    exact cavity mode; approx without Etilde_t unless velocity."""
    if nt == 2:
        grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 2, 0.1)
        case = mb.cavity_mode()
        p, approx = mb.assemble_problem(grid, case=case), mb.project_exact(case, grid)
    else:
        p, exact = polynomial_setup(4, nt)
        approx = _perturbed(p, exact)
    if not velocity:
        approx = SolveOutput(approx.Etilde, approx.Htilde, None)
    return p, approx


def _refusal(call):
    with pytest.raises(MaxboundError) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("row, entry", [
    (row, entry) for row in _REFUSED for entry in _ENTRY_POINTS if _applies(row, entry)])
def test_every_entry_point_refuses_what_certify_refuses_before_any_pass(row, entry,
                                                                        monkeypatch):
    # one admission (majorant._checked_weights) before any pass, load or
    # probe: the same error class and message as certify's for the same input
    a = dict(_ADMISSIBLE, **_REFUSED[row])
    p, approx = _table_inputs(a["nt"], a["velocity"])

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    for name in ("series", "residuals", "residual_series", "default_Y", "spatial_diagonals"):
        for module in (maxbound.majorant, maxbound.optimize):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_work)
    monkeypatch.setattr(FieldTrajectory, "load", no_work)
    want = a.get("refusal") or _refusal(lambda: _ENTRY_POINTS["certify"][1](p, approx, a))
    assert _refusal(lambda: _ENTRY_POINTS[entry][1](p, approx, a)) == want


def test_a_nodal_start_runs_where_certify_admits_it():
    # T4 takes nodal weights, so optimize_all starts from them as certify
    # does: its history starts at certify's b(T), and with no sweep it
    # reports certify's report at them
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    rho, gamma = _NODAL, np.linspace(0.5, 2.0, 9)
    want = mb.certify(p, approx, mb.MajorantParams(rho=rho, gamma=gamma), "T4")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep, _ = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=2), "T4",
                                 rho0=rho, gamma0=gamma)
    hist = rep.optimize_history
    assert hist[0] == want.bound_b[-1]
    assert hist[2] <= hist[1] < hist[0]
    rep, params = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=0), "T4",
                                  rho0=rho, gamma0=gamma)
    assert params.rho is rho and params.gamma is gamma
    for name in ("bound_b", "bound_B", "f", "rho", "gamma"):
        np.testing.assert_array_equal(getattr(rep, name), getattr(want, name), err_msg=name)


@pytest.mark.parametrize("theorem", ["T1", "T5"])
def test_z_tilde_is_admitted_where_no_y_step_is_due(theorem):
    # the absolute-valued zero term has no Y gradient, which only a Y step needs
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    want = mb.certify(p, approx, mb.MajorantParams(zero_variant="z_tilde"), theorem)
    rep, _ = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=0), theorem, "z_tilde")
    np.testing.assert_array_equal(rep.bound_b, want.bound_b)
    rep, _ = mb.certify_gamma_rho(p, approx, None, theorem, "z_tilde")
    assert rep.zero_variant == "z_tilde" and rep.bound_b[-1] > 0.0


# ---------------------------------------------------------------------------
# one reading of a trajectory: every entry point gives the in-memory bits
# however each trajectory argument is held


_HOLDINGS = ("load_snapshot", "snapshot_reader", "NodeSource")
_TRAJ_PARAMS = dict(rho=0.3, gamma=2.0)

# each entry point: the trajectory arguments it takes, and the call on the
# approximation x, the free field Y and the exact reference e, under T5
_TRAJECTORY_ENTRY_POINTS = {
    "certify": (("x", "Y", "e"), lambda p, x, Y, e: mb.certify(
        p, x, mb.MajorantParams(Y=Y, **_TRAJ_PARAMS), "T5", e)),
    "certify_gamma_rho": (("x", "e"), lambda p, x, Y, e: mb.certify_gamma_rho(
        p, x, None, "T5", exact=e)),
    "optimize_gamma_rho": (("x", "Y"), lambda p, x, Y, e: mb.optimize_gamma_rho(
        p, x, Y, None, "T5")),
    "optimize_all": (("x", "e"), lambda p, x, Y, e: mb.optimize_all(
        p, x, mb.OptimizeConfig(sweeps=1), "T5", exact=e)),
    "optimize_Y": (("x", "Y"), lambda p, x, Y, e: mb.optimize_Y(
        p, x, _TRAJ_PARAMS["gamma"], _TRAJ_PARAMS["rho"], None, "T5", Y0=Y)),
    "BoundQuadratic.value": (("x", "Y"), lambda p, x, Y, e: BoundQuadratic(
        p, x, _TRAJ_PARAMS["rho"], _TRAJ_PARAMS["gamma"]).value(Y)),
    "BoundQuadratic.gradient": (("x", "Y"), lambda p, x, Y, e: BoundQuadratic(
        p, x, _TRAJ_PARAMS["rho"], _TRAJ_PARAMS["gamma"]).gradient(Y)),
    "residuals": (("x", "Y"), lambda p, x, Y, e: mb.residuals(p, x, Y, "T5")),
    "default_Y": (("x",), lambda p, x, Y, e: mb.default_Y(p, x)),
    "zero_term_parts": (("x", "Y"), lambda p, x, Y, e: mb.zero_term_parts(p, x, Y, "T5")),
    "true_error_norms": (("x", "e"), lambda p, x, Y, e: mb.true_error_norms(
        e, x, p, mb.MajorantParams(**_TRAJ_PARAMS), "T5")),
    "combined_estimate": (("x", "e"), lambda p, x, Y, e: mb.combined_estimate(
        p, x, mb.MajorantParams(**_TRAJ_PARAMS), e, "T5")),
}


@functools.lru_cache(maxsize=None)
def _trajectory_inputs():
    """(problem, {x, Y, e}) in memory, each a SolveOutput: the perturbed
    4^3 x 9 polynomial (no Htilde_t), a free field off the default one in
    the Htilde slot of x's fields, and the exact projection (with Htilde_t)."""
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    Y = 0.99 * mb.default_Y(p, approx)
    return p, {"x": approx, "Y": SolveOutput(approx.Etilde, Y, approx.Etilde_t), "e": exact}


def _argument(name, fields):
    """The argument an entry point takes from the SolveOutput fields: Y is its Htilde."""
    return fields.Htilde if name == "Y" else fields


def _held(fields, how, path, stack):
    """fields held as `how` says: read back by load_snapshot, open in
    snapshot_reader (within stack), or each trajectory a NodeSource that
    makes a copy of its in-memory node."""
    if how == "NodeSource":
        return SolveOutput(*(None if f is None else NodeSource(f.grid, f.kind,
                                                               lambda k, f=f: f.node(k).copy())
                             for f in (fields.Etilde, fields.Htilde, fields.Etilde_t,
                                       fields.Htilde_t)))
    grid = fields.Etilde.grid
    save_snapshot(path, grid, fields)
    if how == "load_snapshot":
        return load_snapshot(path, grid)[1]
    return stack.enter_context(snapshot_reader(path, grid))[1]


def _entry_result(entry, p, held):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a gamma at its bracket's end
        return _TRAJECTORY_ENTRY_POINTS[entry][1](
            p, *(_argument(name, held[name]) for name in ("x", "Y", "e")))


@functools.lru_cache(maxsize=None)
def _in_memory_result(entry):
    p, inputs = _trajectory_inputs()
    return _bits(_entry_result(entry, p, inputs))


def _bits(v):
    """The bytes of every value of a result, in order: a float, an array, a
    field, or a report, tuple, list or dict of them."""
    if isinstance(v, (float, np.generic)):
        return [np.asarray(v).tobytes()]
    if isinstance(v, np.ndarray):
        return [repr(v.shape).encode(), v.tobytes()]
    if isinstance(v, FieldTrajectory):
        return [b for c in v.components() for b in _bits(c)]
    if isinstance(v, dict):
        return [b for k in sorted(v) for b in [k.encode(), *_bits(v[k])]]
    if dataclasses.is_dataclass(v):
        return [b for f in dataclasses.fields(v) for b in _bits(getattr(v, f.name))]
    if isinstance(v, (tuple, list)):
        return [b for item in v for b in _bits(item)]
    assert v is None or isinstance(v, (str, int)), type(v)
    return [repr(v).encode()]


@pytest.mark.parametrize("entry, arg, how", [
    (entry, arg, how) for entry, (args, _) in _TRAJECTORY_ENTRY_POINTS.items()
    for arg in args for how in _HOLDINGS])
def test_every_entry_point_reads_a_trajectory_however_it_is_held(entry, arg, how, tmp_path):
    # a reader's approximation, a NodeSource Y or exact reference: each entry
    # point loads what it needs whole, streams the rest, and gives the bits
    # of the in-memory call
    p, inputs = _trajectory_inputs()
    with contextlib.ExitStack() as stack:
        held = dict(inputs, **{arg: _held(inputs[arg], how, tmp_path / "held.bin", stack)})
        got = _bits(_entry_result(entry, p, held))
    assert got == _in_memory_result(entry)


def test_the_combined_estimate_refuses_an_exact_reference_without_htilde(monkeypatch):
    # exact_reference holds E and dE/dt alone: refused before any pass,
    # load or probe, not a TypeError at the magnetic error
    p, inputs = _trajectory_inputs()
    exact = mb.exact_reference(mb.polynomial_source(), p.grid)

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the refusal")

    for name in ("certify", "series", "error_series", "residuals", "default_Y", "loaded"):
        monkeypatch.setattr(maxbound.majorant, name, no_work)
    for cls in (FieldTrajectory, NodeSource):
        monkeypatch.setattr(cls, "load", no_work)
    exact.Etilde.node = exact.Etilde_t.node = no_work
    with pytest.raises(PreconditionError,
                       match="combined estimate requires the magnetic exact reference"):
        mb.combined_estimate(p, inputs["x"], mb.MajorantParams(**_TRAJ_PARAMS), exact, "T5")


@pytest.mark.parametrize("n, nt", [(4, 9), (8, 17)])
def test_optimize_all_refuses_a_negative_bound(n, nt):
    # with Etilde_t left exact the signed coupling term drives the optimized
    # bound below zero: on 4^3 x 9 b(T) is -1.24, the most negative b; on
    # 8^3 x 17 b(T) is 5.18e-5 (below trueN(T) = 5.27e-5), and b dips to
    # -1.60e-8 at node 2 alone; certify refuses it rather than report it
    p, exact = polynomial_setup(n, nt)
    grid = p.grid
    shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field("poly_t2", grid, t))
    approx = SolveOutput(exact.Etilde + 1e-2 * shift, exact.Htilde, exact.Etilde_t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(MaxboundError, match="bound is negative"):
            mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=2), exact=exact)


def _counted_series(monkeypatch):
    """The list of the streamed series passes made from here on, by certify
    or by the optimizer."""
    calls = []
    stream = maxbound.majorant.series

    def counted(*args, **kwargs):
        calls.append(args)
        return stream(*args, **kwargs)

    for module in (maxbound.majorant, maxbound.optimize):
        monkeypatch.setattr(module, "series", counted)
    return calls


def _random_inputs(kind, seed):
    """(problem, approx, exact) on a non-cubic grid in the material kind:
    random edge trajectories of zero tangential trace, and an approx that
    departs from the exact one in Etilde and, independently, in Etilde_t."""
    rng = np.random.default_rng(seed)
    grid = mb.GridSpec(3, 4, 3, 1.0, 1.2, 0.8, 7, 0.5)
    p = mb.assemble_problem(grid, eps=_material(kind, grid, rng), mu=_material(kind, grid, rng))
    trajs = [FieldTrajectory.zeros(grid, EDGE) for _ in range(4)]
    for traj in trajs:
        for comp in traj.components():
            comp[...] = rng.standard_normal(comp.shape)
        zero_tangential(traj)
    E, Et, dE, dEt = trajs
    exact = SolveOutput(E, FieldTrajectory.zeros(grid, FACE), Et)
    return p, SolveOutput(E + 0.1 * dE, exact.Htilde, Et + 0.1 * dEt), exact


@settings(max_examples=16, deadline=None)
@given(theorem=st.sampled_from(["T1", "T3", "T4", "T5"]), variant=st.sampled_from(["z", "z_hat"]),
       kind=st.sampled_from(["identity", "scalar", "diagonal"]), with_exact=st.booleans(),
       seed=st.integers(0, 2**16))
def test_the_optimizer_reports_what_certify_reports_at_its_parameters(
        theorem, variant, kind, with_exact, seed):
    # the report comes from the series the driver holds, with no pass of
    # its own, and is certify's at the returned parameters bit for bit
    p, approx, exact = _random_inputs(kind, seed)
    exact = exact if with_exact else None
    cfg = mb.OptimizeConfig(sweeps=2)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        calls = _counted_series(mp)
        rep, params = mb.optimize_all(p, approx, cfg, theorem, variant, exact=exact)
        assert calls == []
    assert np.ndim(params.gamma) == 0
    want = mb.certify(p, approx, params, theorem, exact)
    assert (rep.trueN is None) == (exact is None)
    for name in ("bound_b", "bound_B", "f", "zero_value", "trueN", "trueBigN", "efficiency"):
        got, ref = getattr(rep, name), getattr(want, name)
        assert (got is None) == (ref is None), name
        np.testing.assert_array_equal(got, ref, err_msg=name)


def test_the_true_error_pass_is_the_error_block_of_series():
    p, approx, exact = _random_inputs("diagonal", 3)
    for theorem in ("T1", "T3", "T4", "T5"):
        want = node_series(p, approx, None, theorem, exact).error_sq
        for got, ref in zip(maxbound.majorant.error_series(p, approx, exact, theorem), want):
            np.testing.assert_array_equal(got, ref)


def test_alternating_driver_history_is_monotone_and_bound_still_valid():
    p, approx, exact = cavity_setup(6, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep, params = mb.optimize_all(
            p, approx, cfg=mb.OptimizeConfig(sweeps=2), exact=exact
        )
    hist = rep.optimize_history
    assert len(hist) == 3
    assert all(b <= a + 1e-14 for a, b in zip(hist[:-1], hist[1:]))
    assert hist[-1] < hist[0]
    assert rep.bound_b[-1] == pytest.approx(hist[-1], rel=1e-12)
    assert rep.cg_iterations > 0
    assert 0.0 < params.rho < 1.0 and params.gamma > 0.0


@pytest.mark.parametrize("theorem", ["T1", "T4", "T5"])
def test_the_optimizer_reads_a_snapshot_as_it_reads_memory(tmp_path, theorem):
    # optimize_all and optimize_Y load what they differentiate from a
    # reader's approx, and give the bits of the in-memory one
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed(p, exact)
    path = tmp_path / "approx.bin"
    save_snapshot(path, p.grid, approx)
    cfg = mb.OptimizeConfig(sweeps=1)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with snapshot_reader(path, p.grid) as (_, stored):
            for source in (approx, stored):
                rep, params = mb.optimize_all(p, source, cfg, theorem, exact=exact)
                Y = mb.optimize_Y(p, source, 2.0, 0.25, cfg, theorem)
                results.append((rep, params, Y))
    (rep, params, Y), (rep_s, params_s, Y_s) = results
    for name in ("bound_b", "bound_B", "f", "trueN", "rho", "gamma"):
        np.testing.assert_array_equal(getattr(rep_s, name), getattr(rep, name), err_msg=name)
    assert rep_s.optimize_history == rep.optimize_history
    for got, want in zip((*params_s.Y.components(), *Y_s.components()),
                         (*params.Y.components(), *Y.components())):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ["scalar", "diagonal"])
def test_certify_and_the_optimizer_take_no_cell_average(kind, monkeypatch):
    # the norms, gram_apply and the dof coefficients weight each cell's
    # corner sums themselves: with cell_average and its adjoint refusing
    # every call, certify and optimize_all give the same bits on per-cell
    # materials, built anew for each run so that no dof coefficient is kept
    def run():
        rng = np.random.default_rng(5)
        grid = mb.GridSpec(3, 4, 3, 1.0, 1.2, 0.8, 7, 0.5)
        shape = (grid.nx, grid.ny, grid.nz) + ((3,) if kind == "diagonal" else ())
        eps, mu = (mb.MaterialField(kind, rng.uniform(0.5, 4.0, shape)) for _ in range(2))
        p = mb.assemble_problem(grid, eps=eps, mu=mu)
        E, Et = (FieldTrajectory.zeros(grid, EDGE) for _ in range(2))
        for comp in (*E.components(), *Et.components()):
            comp[...] = rng.standard_normal(comp.shape)
        approx = SolveOutput(zero_tangential(E), None, zero_tangential(Et))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cert = mb.certify(p, approx, mb.MajorantParams(rho=0.3, gamma=2.0), "T5")
            rep, _ = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=1), "T5")
        return cert.bound_b, rep.bound_b, rep.optimize_history

    want = run()

    def refused(*args, **kwargs):
        raise AssertionError("a cell average was taken")

    for name in ("cell_average", "cell_average_adjoint"):
        monkeypatch.setattr(maxbound.operators, name, refused)
    for got, ref in zip(run(), want):
        np.testing.assert_array_equal(got, ref)


# ---------------------------------------------------------------------------
# the scaled time eigenbasis of the Y solve


def _unit_probe_diagonal(op, grid):
    """Diagonal of a face-field operator, one unit vector per dof, in the order of a Y row."""
    diag = []
    for c in "xyz":
        for index in np.ndindex(grid.shape(mb.FACE, c)):
            unit = mb.StaggeredField.zeros(grid, mb.FACE)
            getattr(unit, c)[index] = 1.0
            diag.append(getattr(op(unit), c)[index])
    return np.array(diag)


def _material(kind, grid, rng):
    shape = (grid.nx, grid.ny, grid.nz)
    if kind == "identity":
        return mb.MaterialField.identity(grid)
    if kind == "scalar":
        return mb.MaterialField.scalar(grid, 2.5)
    if kind == "diagonal":
        return mb.MaterialField.diagonal(grid, 1.5, 0.5, 3.0)
    return mb.MaterialField("diagonal", rng.uniform(0.5, 4.0, shape + (3,)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["identity", "scalar", "diagonal", "per-cell"])
def test_spatial_diagonals_equal_unit_vector_probes(n, kind):
    rng = np.random.default_rng(7 * n)
    grid = mb.GridSpec(n, n, n, 1.0, 1.2, 0.8, 5, 0.5)
    p = mb.assemble_problem(grid, eps=_material(kind, grid, rng), mu=_material(kind, grid, rng))
    mass, curl = spatial_diagonals(p)

    def curl_curl(u):
        edge = gram_apply(curl_face_to_edge(u, grid), p.eps_inv, grid)
        return curl_edge_to_face(zero_tangential(edge), grid)

    np.testing.assert_array_equal(mass, _unit_probe_diagonal(
        lambda u: gram_apply(u, p.mu, grid), grid))
    np.testing.assert_array_equal(curl, _unit_probe_diagonal(curl_curl, grid))


def _to_basis(basis, v):
    """S Q^T v: Y rows (or a gradient) mapped into the scaled time
    eigenbasis, the transpose of _from_basis."""
    q, _, scale = basis
    return scale * (q.T @ v)


def _from_basis(basis, w):
    """Q S w: the Y rows of the basis coordinates w."""
    q, _, scale = basis
    return q @ (scale * w)


@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T5"])
@pytest.mark.parametrize("variant", ["z", "z_hat"])
def test_scaled_eigenbasis_makes_the_dof_restricted_hessian_the_identity(theorem, variant):
    # P = 2 [T1 (x) diag(G_mu) + diag(w_edge) (x) diag(K)] keeps every entry
    # of the Hessian that couples a face dof with itself at any two times;
    # (Q S)^T P (Q S) = I, so |S Q^T r| is the P^-1 norm of r
    p, approx, _ = cavity_setup(4, 9)
    grid = p.grid
    quad = BoundQuadratic(p, approx, rho=0.4, gamma=1.3, theorem=theorem, zero_variant=variant)
    diagonals = spatial_diagonals(p)
    basis = _scaled_eigenbasis(quad, diagonals)
    m, c = diagonals

    def apply_P(v):
        return 2.0 * (quad.t1 @ (v * m) + quad.w_edge[:, None] * (v * c))

    rng = np.random.default_rng(13)
    for _ in range(3):
        w = rng.standard_normal(basis[2].shape)
        back = _to_basis(basis, apply_P(_from_basis(basis, w)))
        assert np.abs(back - w).max() <= 1e-10 * np.abs(w).max()


@pytest.mark.parametrize("variant", ["z", "z_hat"])
def test_the_hessian_is_time_diagonal_in_the_scaled_eigenbasis(variant):
    # Q^T H Q couples no two different time-eigen indices, and the scaled
    # product has a unit diagonal
    grid = mb.GridSpec(3, 3, 3, 1.0, 1.0, 1.0, 5, 0.4)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    quad = BoundQuadratic(p, mb.leapfrog_solve(p), rho=0.5, gamma=1.0, zero_variant=variant)
    basis = _scaled_eigenbasis(quad, spatial_diagonals(p))
    q, lam, scale = basis
    nt, n = scale.shape
    base = quad.gradient_flat(np.zeros(nt * n))
    eye = np.eye(nt * n)
    H = np.stack([quad.gradient_flat(e) - base for e in eye], axis=1)
    Q = np.kron(q, np.eye(n))  # q along the time axis of raveled rows
    # the time index of each raveled entry: one row per node
    time = np.repeat(np.arange(nt), n)
    in_time = Q.T @ H @ Q
    coupled = time[:, None] != time[None, :]
    assert np.abs(in_time[coupled]).max() <= 1e-10 * np.abs(in_time).max()
    apply_A, rows = _block_hessian(p, lam, scale), np.arange(nt)
    unit = [apply_A(e.reshape(nt, n), rows).ravel() @ e for e in eye]
    np.testing.assert_allclose(unit, 1.0, rtol=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 37.5, 200.0])
@pytest.mark.parametrize("variant", ["z", "z_hat"])
def test_time_eigenbasis_diagonalises_T1_and_the_edge_weights(gamma, variant):
    # at gamma = 200 the Gronwall weights of T1 span about 87 decades
    p, exact = polynomial_setup(4, 33)
    quad = BoundQuadratic(p, exact, rho=0.5, gamma=gamma, zero_variant=variant)
    q, lam = _time_eigenbasis(quad.t1, quad.w_edge)
    assert np.abs(q.T @ quad.t1 @ q - np.eye(p.grid.nt)).max() <= 1e-10
    assert lam.min() >= -1e-10 * lam.max()
    assert np.abs(q.T @ np.diag(quad.w_edge) @ q - np.diag(lam)).max() <= 1e-10 * lam.max()


def _fresh_product(p, lam, scale, w, rows=None):
    """The first product of a fresh _block_hessian, on the rows (all of them,
    in order, by default), in an array of its own."""
    rows = np.arange(len(w)) if rows is None else rows
    return _block_hessian(p, lam, scale)(w, rows).copy()


def test_the_block_hessian_reuses_its_buffer_for_the_fresh_products():
    p, exact = polynomial_setup(4, 9)
    quad = BoundQuadratic(p, _perturbed(p, exact), rho=0.4, gamma=1.3)
    _, lam, scale = _scaled_eigenbasis(quad, spatial_diagonals(p))
    rng = np.random.default_rng(23)
    apply_A, rows = _block_hessian(p, lam, scale), np.arange(p.grid.nt)
    held = None
    for _ in range(2):  # the second round reuses the buffers
        v = rng.standard_normal(scale.shape)
        got = apply_A(v, rows)
        assert held is None or got is held
        np.testing.assert_array_equal(got, _fresh_product(p, lam, scale, v))
        held = got


def test_the_block_hessian_of_some_blocks_is_those_rows_of_the_full_product():
    # each eigen-block is its own product, so rows in any order, down to a
    # single one (a StaggeredField inside), give the full product's rows
    p, exact = polynomial_setup(4, 9)
    quad = BoundQuadratic(p, _perturbed(p, exact), rho=0.4, gamma=1.3)
    _, lam, scale = _scaled_eigenbasis(quad, spatial_diagonals(p))
    v = np.random.default_rng(31).standard_normal(scale.shape)
    full = _fresh_product(p, lam, scale, v)
    apply_A = _block_hessian(p, lam, scale)
    for rows in (np.array([8, 2, 5]), np.array([1, 0]), np.array([6])):
        np.testing.assert_array_equal(apply_A(v[rows], rows), full[rows])


def test_the_block_hessian_keeps_its_fields_and_gives_the_fresh_products(monkeypatch):
    # the fields over the block product's buffers are made again only when
    # the count of active rows changes, in any order of counts and of rows
    p, exact = polynomial_setup(4, 33)
    quad = BoundQuadratic(p, _perturbed(p, exact), rho=0.4, gamma=1.3)
    _, lam, scale = _scaled_eigenbasis(quad, spatial_diagonals(p))
    rng = np.random.default_rng(37)
    nt = p.grid.nt
    made = []
    unflatten = maxbound.optimize._unflatten

    def counted(rows, *args):
        made.append(len(rows))
        return unflatten(rows, *args)

    apply_A = _block_hessian(p, lam, scale)
    counts = (33, 30, 1, 2, 33)
    for m in counts:
        for _ in range(2):  # the second product of a count makes no field
            rows = rng.permutation(nt)[:m]
            w = rng.standard_normal((m, scale.shape[1]))
            with monkeypatch.context() as mp:
                mp.setattr(maxbound.optimize, "_unflatten", counted)
                got = apply_A(w, rows).copy()
            np.testing.assert_array_equal(got, _fresh_product(p, lam, scale, w, rows))
    assert made == [m for m in counts for _ in range(3)]


def test_the_y_solve_reports_its_hessian_work_in_blocks(monkeypatch):
    p, exact = polynomial_setup(4, 9)
    rows_seen = []
    block_hessian = maxbound.optimize._block_hessian

    def counted(*args):
        apply_A = block_hessian(*args)

        def product(w, rows):
            rows_seen.append(len(w))
            return apply_A(w, rows)
        return product

    monkeypatch.setattr(maxbound.optimize, "_block_hessian", counted)
    info = {}
    mb.optimize_Y(p, _perturbed(p, exact), gamma=1.0, rho=0.5, info=info)
    assert info["iterations"] == len(rows_seen)
    assert info["block_iterations"] == sum(rows_seen) < p.grid.nt * len(rows_seen)


def test_a_cg_iteration_of_the_y_solve_allocates_no_array():
    # a product of a block Hessian, whose buffers are made with it,
    # allocates less than one face node.  numpy's ufuncs buffer
    # non-contiguous operands in at most getbufsize() elements each,
    # whatever the grid; 24^3 makes a node larger than three such buffers
    p, exact = polynomial_setup(24, 5)
    grid = p.grid
    node = 8 * sum(math.prod(grid.shape(FACE, c)) for c in "xyz")
    assert node > 3 * 8 * np.getbufsize()
    quad = BoundQuadratic(p, exact, rho=0.5, gamma=1.0)
    _, lam, scale = _scaled_eigenbasis(quad, spatial_diagonals(p))
    v = np.random.default_rng(29).standard_normal(scale.shape)
    apply_A = _block_hessian(p, lam, scale)
    assert traced_peak(lambda: apply_A(v, np.arange(grid.nt))) < node
    # and on some of the blocks, down to one
    for rows in (np.array([3, 0]), np.array([2])):
        w = v[rows]
        assert traced_peak(lambda: apply_A(w, rows)) < node


# ---------------------------------------------------------------------------
# the explicit Hessian-vector product


@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T5"])
@pytest.mark.parametrize("variant", ["z", "z_hat"])
@pytest.mark.parametrize("kind", ["identity", "scalar", "diagonal", "per-cell"])
def test_explicit_hessian_is_the_symmetric_semidefinite_gradient_difference(
        theorem, variant, kind):
    # in the scaled time eigenbasis: A^ w = S Q^T (grad(Q S w) - grad(0))
    rng = np.random.default_rng(17)
    grid = mb.GridSpec(3, 4, 3, 1.0, 1.2, 0.8, 6, 0.5)
    p = mb.assemble_problem(grid, eps=_material(kind, grid, rng), mu=_material(kind, grid, rng))
    approx = SolveOutput(*(FieldTrajectory.zeros(grid, k) for k in (EDGE, mb.FACE, EDGE)))
    for traj in (approx.Etilde, approx.Etilde_t):
        for comp in traj.components():
            comp[...] = rng.standard_normal(comp.shape)
    quad = BoundQuadratic(p, approx, rho=0.4, gamma=1.3, theorem=theorem, zero_variant=variant)
    basis = _scaled_eigenbasis(quad, spatial_diagonals(p))
    _, lam, scale = basis
    base = quad.gradient_flat(np.zeros(scale.shape))
    for _ in range(3):
        u, v = rng.standard_normal(scale.shape), rng.standard_normal(scale.shape)
        hu, hv = (_fresh_product(p, lam, scale, x) for x in (u, v))
        diff = _to_basis(basis, quad.gradient_flat(_from_basis(basis, v)) - base)
        assert np.abs(hv - diff).max() <= 1e-12 * np.abs(diff).max()
        assert abs(np.vdot(u, hv) - np.vdot(v, hu)) <= (
            1e-12 * np.linalg.norm(u) * np.linalg.norm(hv))
        assert np.vdot(v, hv) >= 0.0


def test_preconditioned_free_field_matches_the_dense_oracle():
    # criterion 6's dense least-squares oracle, at nt = 9: CG in the scaled
    # time eigenbasis run to its residual floor meets it to 1e-8, and
    # optimize_Y, which ends once the bound stalls, lands within the stall
    # tolerance of it
    grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 9, 0.5)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    approx = mb.leapfrog_solve(p)
    quad = BoundQuadratic(p, approx, rho=0.5, gamma=1.0)
    nd = _flatten(mb.default_Y(p, approx)).size
    base = quad.gradient_flat(np.zeros(nd))
    eye = np.eye(nd)
    A = np.stack([quad.gradient_flat(e) - base for e in eye], axis=1)
    dense, *_ = np.linalg.lstsq(A, -base, rcond=None)
    v_dense = quad.value(_unflatten(dense.reshape(grid.nt, -1), grid))

    y0 = _flatten(mb.default_Y(p, approx))
    basis = _scaled_eigenbasis(quad, spatial_diagonals(p))
    _, lam, scale = basis
    w, _, _ = conjugate_gradient(_block_hessian(p, lam, scale),
                                 -_to_basis(basis, quad.gradient_flat(y0)),
                                 tol=1e-12, max_iter=500)
    y = y0 + _from_basis(basis, w)
    assert abs(quad.value(_unflatten(y, grid)) - v_dense) <= 1e-8 * abs(v_dense)

    info = {}
    Y = mb.optimize_Y(p, approx, gamma=1.0, rho=0.5, info=info)
    assert info["iterations"] < mb.OptimizeConfig().cg_max_iter
    assert abs(quad.value(Y) - v_dense) <= _Y_STALL_RTOL * abs(v_dense)


def test_conjugate_gradient_stops_once_the_quadratic_stalls():
    # a slowly converging system: the solve ends at the first iteration
    # whose last _STALL_WINDOW steps lowered q by no more than stall_tol
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    A = Q @ np.diag(np.logspace(0, 6, 80)) @ Q.T
    A = 0.5 * (A + A.T)
    rhs = rng.standard_normal(80)
    stall_tol = 1e-3 * abs(rhs @ np.linalg.solve(A, rhs)) / 2
    x, iters, _ = conjugate_gradient(_one_row(A), rhs[None], max_iter=500, stall_tol=stall_tol)
    x = x[0]
    assert _STALL_WINDOW <= iters < 500
    # CG from zero is deterministic: iterate k is the result at max_iter=k
    iterates = [conjugate_gradient(_one_row(A), rhs[None], max_iter=k, stall_tol=stall_tol)[0][0]
                for k in range(iters + 1)]
    np.testing.assert_array_equal(iterates[-1], x)
    qs = [xk @ A @ xk / 2 - rhs @ xk for xk in iterates]
    gains = [qs[k - _STALL_WINDOW] - qs[k] for k in range(_STALL_WINDOW, len(qs))]
    assert gains[-1] <= stall_tol * (1.0 + 1e-9)
    assert all(gain > stall_tol * (1.0 - 1e-9) for gain in gains[:-1])
