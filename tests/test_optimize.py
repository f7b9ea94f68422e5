"""Parameter search, quadratic free-field minimization, alternating driver."""

import math
import warnings

import numpy as np
import pytest

import maxbound as mb
from maxbound.errors import MaxboundError, ParameterError
from maxbound.fields import EDGE, FieldTrajectory
from maxbound.majorant import series as node_series
from maxbound.optimize import (
    BoundQuadratic,
    _bound_from_series,
    _flatten,
    _unflatten,
    conjugate_gradient,
    golden_section,
)
from maxbound.problem import bump_field, bump_field_dt
from maxbound.solver import SolveOutput

from conftest import cavity_setup, polynomial_setup, random_face


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


def test_config_validation():
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(gamma_bracket=(2.0, 1.0))
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(rho_grid=(0.5, 0.2))
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(rho_grid=(0.0, 0.5))
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(y_init="random")
    with pytest.raises(ParameterError):
        mb.OptimizeConfig(cg_tol=2.0)


def test_parameter_search_never_worse_than_the_default_point():
    p, exact = polynomial_setup(5, 9)
    approx = _perturbed(p, exact)
    Y = mb.default_Y(p, approx)
    series = node_series(p, approx, Y, "T5")
    base = _bound_from_series(series, 0.5, 1.0, "z_hat", p.grid.dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gamma, rho, value = mb.optimize_gamma_rho(p, approx, Y)
    assert value <= base + 1e-15
    assert 0.0 < rho < 1.0 and gamma > 0.0
    assert value == pytest.approx(
        _bound_from_series(series, rho, gamma, "z_hat", p.grid.dt), rel=1e-12
    )


def test_parameter_search_warns_when_the_optimum_sits_on_the_bracket_edge():
    p, exact = polynomial_setup(4, 5)
    Y = mb.default_Y(p, exact)
    # residual-free input: the bound is flat in gamma, ties resolve to the edge
    with pytest.warns(RuntimeWarning):
        mb.optimize_gamma_rho(p, exact, Y)


# ---------------------------------------------------------------------------
# conjugate gradients


def test_conjugate_gradient_solves_a_random_spd_system():
    rng = np.random.default_rng(91)
    M = rng.standard_normal((30, 30))
    A = M @ M.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    x, iters, rel = conjugate_gradient(lambda v: A @ v, rhs, tol=1e-12, max_iter=200)
    assert rel < 1e-10
    assert np.allclose(x, np.linalg.solve(A, rhs), rtol=1e-8, atol=1e-10)


def test_conjugate_gradient_rejects_indefinite_systems():
    A = np.diag([1.0, -1.0])
    rhs = np.array([0.0, 1.0])
    with pytest.raises(MaxboundError):
        conjugate_gradient(lambda v: A @ v, rhs)


def test_conjugate_gradient_handles_singular_consistent_systems():
    A = np.diag([2.0, 0.0])
    rhs = np.array([4.0, 0.0])
    x, _, _ = conjugate_gradient(lambda v: A @ v, rhs, tol=1e-14)
    assert x[0] == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the bound as a quadratic in the free field


def test_quadratic_value_matches_certification_at_the_final_node():
    p, approx, _ = cavity_setup(6, 13)
    quad = BoundQuadratic(p, approx, rho=0.5, gamma=1.0)
    Y = mb.default_Y(p, approx)
    rep = mb.certify(p, approx, mb.MajorantParams(Y=Y), theorem="T5")
    assert quad.value(Y) == rep.bound_b[-1]


def test_quadratic_gradient_matches_finite_differences():
    grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 5, 0.5)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    approx = mb.leapfrog_solve(p)
    quad = BoundQuadratic(p, approx, rho=0.4, gamma=1.2)
    rng = np.random.default_rng(101)
    x0 = _flatten(mb.default_Y(p, approx))
    g0 = quad.gradient_flat(x0)
    d = rng.standard_normal(x0.size)
    d /= np.linalg.norm(d)
    h = 1e-6
    fp = quad.value(_unflatten(x0 + h * d, grid))
    fm = quad.value(_unflatten(x0 - h * d, grid))
    fd = (fp - fm) / (2.0 * h)
    assert fd == pytest.approx(float(g0 @ d), rel=1e-6)


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
    # every iterate along the way is itself an admissible free field
    seen = []
    mb.optimize_Y(p, approx, gamma=1.0, rho=0.5, Y0=Y0,
                  callback=lambda Yk, k: seen.append(quad.value(Yk)))
    assert seen and seen[-1] == pytest.approx(after, rel=1e-9)


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
