"""Residuals, zero terms, bound assembly, and true-error comparison."""

import dataclasses
import math

import numpy as np
import pytest

import maxbound as mb
from maxbound.errors import ParameterError, PreconditionError
from maxbound.fields import EDGE, FACE, FieldTrajectory
from maxbound.majorant import bound_b_and_B, final_bound_weights
from maxbound.operators import (
    cumulative_trapezoid,
    curl_edge_to_face,
    exp_weighted_cumulative,
    trajectory_derivative,
    weighted_norm_sq,
)
from maxbound.problem import bump_field, bump_field_dt
from maxbound.solver import SolveOutput

from conftest import cavity_setup, inner_trajectory, polynomial_setup, random_face


def _perturbed_exact(p, exact, delta, key="poly_t2"):
    grid = p.grid
    shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field(key, grid, t))
    shift_dt = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field_dt(key, grid, t))
    return SolveOutput(
        exact.Etilde + delta * shift,
        exact.Htilde,
        exact.Etilde_t + delta * shift_dt,
    )


# ---------------------------------------------------------------------------
# parameters and preconditions


def test_parameter_validation():
    with pytest.raises(ParameterError):
        mb.MajorantParams(zero_variant="bogus")
    params = mb.MajorantParams(rho=1.5)
    with pytest.raises(ParameterError):
        params.rho_nodes(5)
    with pytest.raises(ParameterError):
        mb.MajorantParams(gamma=-1.0).gamma_nodes(5)
    with pytest.raises(ParameterError):
        mb.MajorantParams(rho=np.array([0.5, np.nan, 0.5, 0.5, 0.5])).rho_nodes(5)
    with pytest.raises(ParameterError):
        mb.MajorantParams(gamma=np.nan).gamma_nodes(5)


def test_certify_preconditions():
    p, approx, _ = cavity_setup(6, 13)
    nodal = np.full(p.grid.nt, 0.5)
    with pytest.raises(PreconditionError):
        mb.certify(p, approx, mb.MajorantParams(rho=nodal), theorem="T5")
    with pytest.raises(ParameterError):
        mb.certify(p, approx, mb.MajorantParams(), theorem="T9")
    bare = SolveOutput(approx.Etilde, approx.Htilde, None)
    with pytest.raises(PreconditionError):
        mb.certify(p, bare, mb.MajorantParams(), theorem="T5")
    tiny_grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 3, 0.2)
    tiny = mb.assemble_problem(tiny_grid, case=mb.cavity_mode())
    tiny_approx = mb.leapfrog_solve(tiny)
    with pytest.raises(PreconditionError):
        mb.certify(tiny, tiny_approx, mb.MajorantParams(), theorem="T1")


# ---------------------------------------------------------------------------
# residuals and exactness


def test_default_free_field_zeroes_the_curl_mismatch_residual():
    p, approx, _ = cavity_setup(6, 13)
    Y = mb.default_Y(p, approx)
    for theorem in ("T1", "T5"):
        res = mb.residuals(p, approx, Y, theorem)
        assert weighted_norm_sq(res.Ktilde, p.mu, p.grid).max() == 0.0


@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T5"])
def test_residuals_builds_only_what_the_theorem_reads(theorem):
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed_exact(p, exact, 1e-2)
    Y = mb.default_Y(p, approx) + 0.1 * mb.default_Y(p, exact)
    res = mb.residuals(p, approx, Y, theorem)
    # one residual set for every theorem; the coupling curl is 0, and not
    # built, where Etilde_t is dEtilde/dt
    assert [f.name for f in dataclasses.fields(res)] == ["Ktilde", "Kcheck", "Rt",
                                                        "coupling_curl"]
    assert all(getattr(res, name) is not None for name in ("Ktilde", "Kcheck", "Rt"))
    assert (res.coupling_curl is None) == (theorem in ("T1", "T3"))
    # the other regularity path builds the shared Ktilde from the same inputs
    other = mb.residuals(p, approx, Y, "T5" if theorem in ("T1", "T3") else "T1")
    for a, b in zip(res.Ktilde.components(), other.Ktilde.components()):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ParameterError):
        mb.residuals(p, approx, Y, None)


def test_exact_polynomial_samples_give_identically_zero_bound():
    p, exact = polynomial_setup(8, 17)
    for theorem in ("T1", "T3", "T4", "T5"):
        rep = mb.certify(p, exact, mb.MajorantParams(), theorem=theorem, exact=exact)
        assert np.abs(rep.bound_b).max() == 0.0
        assert np.abs(rep.trueN).max() == 0.0


def test_bound_dominates_error_for_perturbed_exact_samples():
    p, exact = polynomial_setup(8, 17)
    approx = _perturbed_exact(p, exact, 1e-2)
    rep = mb.certify(p, approx, mb.MajorantParams(), theorem="T5", exact=exact)
    assert np.all(rep.trueN <= rep.bound_b)
    assert np.all(rep.bound_B >= rep.trueBigN - 1e-18)


@pytest.mark.parametrize("theorem", ["T1", "T5"])
@pytest.mark.parametrize("case_name", ["cavity_mode", "polynomial_source"])
def test_node_sampled_reference_gives_the_projected_true_error(case_name, theorem):
    if case_name == "cavity_mode":
        p, approx, exact = cavity_setup(6, 13)
        case = mb.cavity_mode()
    else:
        p, exact = polynomial_setup(5, 9)
        approx = _perturbed_exact(p, exact, 1e-2)
        case = mb.polynomial_source()
    reference = mb.exact_reference(case, p.grid)
    assert reference.Htilde is None and reference.Htilde_t is None
    params = mb.MajorantParams()
    want = mb.certify(p, approx, params, theorem=theorem, exact=exact)
    got = mb.certify(p, approx, params, theorem=theorem, exact=reference)
    assert np.array_equal(got.trueN, want.trueN)
    assert np.array_equal(got.trueBigN, want.trueBigN)
    assert np.array_equal(got.efficiency, want.efficiency, equal_nan=True)
    assert np.isfinite(got.efficiency).any()


# ---------------------------------------------------------------------------
# independent reassembly of the bound formula


def test_bound_assembly_matches_manual_reconstruction():
    p, exact = polynomial_setup(4, 9)
    approx = _perturbed_exact(p, exact, 5e-2, key="static")
    rng = np.random.default_rng(51)
    Y = mb.default_Y(p, approx)
    noise = FieldTrajectory.from_fields(
        p.grid, [0.05 * random_face(p.grid, rng) for _ in range(p.grid.nt)]
    )
    Y = Y + noise
    rho, gamma = 0.4, 1.3
    params = mb.MajorantParams(rho=rho, gamma=gamma, Y=Y, zero_variant="z_hat")
    rep = mb.certify(p, approx, params, theorem="T5")

    g = p.grid
    res = mb.residuals(p, approx, Y, "T5")
    kt = weighted_norm_sq(res.Ktilde, p.mu, g)
    kc = weighted_norm_sq(res.Kcheck, p.eps_inv, g)
    rt = weighted_norm_sq(res.Rt, p.mu, g)
    coup = inner_trajectory(res.Ktilde, res.coupling_curl, g)
    z = mb.zero_term_parts(p, approx, Y).value("z_hat")
    f_manual = np.empty(g.nt)
    for k in range(g.nt):
        integ = 0.0
        for j in range(1, k + 1):
            val_a = kc[j - 1] / gamma + rt[j - 1] / (gamma * rho) + 2.0 * coup[j - 1]
            val_b = kc[j] / gamma + rt[j] / (gamma * rho) + 2.0 * coup[j]
            integ += 0.5 * g.dt * (val_a + val_b)
        f_manual[k] = kt[k] / (1.0 - rho) + integ + z
    assert np.allclose(rep.f, f_manual, rtol=1e-12, atol=1e-18)

    t = g.times
    b_manual = np.empty(g.nt)
    for k in range(g.nt):
        inner = 0.0
        for j in range(1, k + 1):
            va = math.exp(-gamma * t[j - 1]) * gamma * f_manual[j - 1]
            vb = math.exp(-gamma * t[j]) * gamma * f_manual[j]
            inner += 0.5 * g.dt * (va + vb)
        b_manual[k] = math.exp(gamma * t[k]) * inner + f_manual[k]
    assert np.allclose(rep.bound_b, b_manual, rtol=1e-11, atol=1e-18)
    assert np.allclose(rep.bound_B, (b_manual - f_manual) / gamma, rtol=1e-11, atol=1e-18)


def test_final_bound_weights_are_the_linear_form_of_b_T():
    # b(T) = c.f and the integrand's weight w_int, for the bound's own
    # assembly; for constant gamma, c is the closed form tau exp(Gamma(T) -
    # Gamma) gamma plus 1 at T
    rng = np.random.default_rng(52)
    nt, dt = 17, 1.0 / 16
    for gamma in (rng.uniform(1e-2, 50.0, nt), np.full(nt, 1.7)):
        c, w_int = final_bound_weights(gamma, dt)
        f = rng.uniform(-1.0, 2.0, (4, nt))
        b_T = bound_b_and_B(f, gamma, dt)[0][:, -1]
        np.testing.assert_allclose(f @ c, b_T, rtol=1e-13)
        v = rng.uniform(0.0, 2.0, nt)
        b_T = bound_b_and_B(cumulative_trapezoid(v, dt), gamma, dt)[0][-1]
        assert v @ w_int == pytest.approx(b_T, rel=1e-13)
    tau = np.full(nt, dt)
    tau[[0, -1]] = 0.5 * dt
    closed = tau * np.exp(1.7 * (1.0 - np.arange(nt) / (nt - 1))) * 1.7
    closed[-1] += 1.0
    np.testing.assert_allclose(c, closed, rtol=1e-13)


@pytest.mark.filterwarnings("error")
def test_final_bound_weights_overflow_to_inf_only_where_their_value_does():
    # exp(Gamma(T)) = exp(1000): the weights of the early nodes are out of
    # range, those of the last nodes are not
    nt, dt = 33, 1.0 / 32
    c, _ = final_bound_weights(np.full(nt, 1000.0), dt)
    closed_log = np.log(dt * 1000.0) + 1000.0 * (1.0 - np.arange(nt) / (nt - 1))
    assert np.array_equal(np.isinf(c[:-1]), closed_log[:-1] > np.log(np.finfo(float).max))
    assert np.isinf(c[0]) and np.isfinite(c[-2])


def test_integrated_bound_is_gamma_weighted_for_trajectory_weight_theorems():
    p, approx, _ = cavity_setup(6, 13)
    params = mb.MajorantParams(rho=0.5, gamma=2.0)
    rep3 = mb.certify(p, approx, params, theorem="T3")
    rep5 = mb.certify(p, approx, params, theorem="T5")
    assert np.allclose(rep3.bound_B, 2.0 * rep5.bound_B, rtol=1e-12)


# ---------------------------------------------------------------------------
# specialization identities


def test_constant_weight_theorems_coincide():
    p, approx, _ = cavity_setup(8, 17)
    params = mb.MajorantParams(rho=0.35, gamma=1.4)
    rep1 = mb.certify(p, approx, params, theorem="T1")
    rep3 = mb.certify(p, approx, params, theorem="T3")
    scale = np.abs(rep1.bound_b).max()
    assert np.abs(rep1.bound_b - rep3.bound_b).max() <= 1e-14 * scale


def test_weak_regularity_path_reduces_to_high_regularity_for_difference_derivative():
    # the leapfrog solver's Etilde_t is dEtilde/dt bit for bit, so T4 is T3
    p, approx, _ = cavity_setup(8, 17)
    params = mb.MajorantParams(rho=0.35, gamma=1.4)
    rep3 = mb.certify(p, approx, params, theorem="T3")
    rep4 = mb.certify(p, approx, params, theorem="T4")
    np.testing.assert_array_equal(rep3.bound_b, rep4.bound_b)


# ---------------------------------------------------------------------------
# zero term


def test_zero_term_variants_are_ordered_and_conditions_sharp():
    p, exact = polynomial_setup(5, 7)
    grid = p.grid
    rng = np.random.default_rng(61)

    # exact start, exact free field: every variant vanishes
    Y = mb.default_Y(p, exact)
    parts = mb.zero_term_parts(p, exact, Y)
    assert parts.value("z") == 0.0
    assert parts.value("z_tilde") == 0.0
    assert parts.value("z_hat") == 0.0

    # exact start, mismatched free field: only the fully expanded variant sees it
    Y_off = Y + FieldTrajectory.from_fields(
        grid, [0.1 * random_face(grid, rng) for _ in range(grid.nt)]
    )
    parts = mb.zero_term_parts(p, exact, Y_off)
    assert parts.value("z") == 0.0
    assert parts.value("z_tilde") == 0.0
    assert parts.value("z_hat") > 0.0

    # wrong initial slope: the absolute-value variant becomes positive
    bad_t = exact.Etilde_t + FieldTrajectory.sample(
        grid, EDGE, lambda t: bump_field("static", grid, t)
    )
    parts = mb.zero_term_parts(p, SolveOutput(exact.Etilde, exact.Htilde, bad_t), Y)
    assert parts.value("z_tilde") > 0.0
    assert parts.value("z_hat") > 0.0

    # wrong initial field: curl error at t=0 shows in all upper variants
    bad_e = exact.Etilde + FieldTrajectory.sample(
        grid, EDGE, lambda t: bump_field("static", grid, t)
    )
    parts = mb.zero_term_parts(p, SolveOutput(bad_e, exact.Htilde, exact.Etilde_t), Y)
    assert parts.value("z_tilde") > 0.0


def test_zero_term_ordering_on_randomized_starts():
    p, exact = polynomial_setup(4, 5)
    grid = p.grid
    rng = np.random.default_rng(71)
    for _ in range(50):
        e_noise = FieldTrajectory.from_fields(
            grid,
            [rng.uniform(0.1, 1.0) * _rand_edge(grid, rng) for _ in range(grid.nt)],
        )
        t_noise = FieldTrajectory.from_fields(
            grid,
            [rng.uniform(0.1, 1.0) * _rand_edge(grid, rng) for _ in range(grid.nt)],
        )
        approx = SolveOutput(
            exact.Etilde + e_noise, exact.Htilde, exact.Etilde_t + t_noise
        )
        Y = mb.default_Y(p, approx) + FieldTrajectory.from_fields(
            grid, [0.5 * random_face(grid, rng) for _ in range(grid.nt)]
        )
        parts = mb.zero_term_parts(p, approx, Y)
        z, zt, zh = (parts.value(v) for v in ("z", "z_tilde", "z_hat"))
        assert z <= zt <= zh


def _rand_edge(grid, rng):
    from conftest import random_edge_interior

    return random_edge_interior(grid, rng)


# ---------------------------------------------------------------------------
# efficiency reporting


def test_efficiency_reported_only_above_the_noise_floor():
    p, exact = polynomial_setup(6, 9)
    rep = mb.certify(p, exact, mb.MajorantParams(), theorem="T5", exact=exact)
    assert np.all(np.isnan(rep.efficiency))
    approx = _perturbed_exact(p, exact, 1e-2)
    rep = mb.certify(p, approx, mb.MajorantParams(), theorem="T5", exact=exact)
    assert np.isfinite(rep.efficiency[-1]) and rep.efficiency[-1] >= 1.0


# ---------------------------------------------------------------------------
# combined two-field estimate


def test_combined_estimate_vanishes_for_exact_samples():
    p, exact = polynomial_setup(8, 17)
    rep = mb.combined_estimate(p, exact, mb.MajorantParams(), exact=exact)
    assert np.abs(rep.bound).max() == 0.0
    assert np.abs(rep.true_combined).max() == 0.0


def test_combined_estimate_dominates_the_two_field_error():
    p, approx, exact = cavity_setup(8, 17)
    rep = mb.combined_estimate(p, approx, mb.MajorantParams(), exact=exact)
    assert np.all(rep.true_combined <= rep.bound)


def test_combined_estimate_derives_the_magnetic_derivative_the_solver_leaves_out():
    p, approx, exact = cavity_setup(6, 13)
    assert approx.Htilde_t is None
    given = SolveOutput(approx.Etilde, approx.Htilde, approx.Etilde_t,
                        trajectory_derivative(approx.Htilde))
    got = mb.combined_estimate(p, approx, mb.MajorantParams(), exact=exact)
    want = mb.combined_estimate(p, given, mb.MajorantParams(), exact=exact)
    for name in ("times", "bound", "electric_bound", "f_res_sq", "g_res_sq", "true_combined"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_combined_estimate_requires_weak_regularity_theorems():
    p, approx, _ = cavity_setup(6, 13)
    with pytest.raises(ParameterError):
        mb.combined_estimate(p, approx, mb.MajorantParams(), theorem="T1")
