"""Leapfrog forward solver and exact-solution projection."""

import math

import numpy as np
import pytest

import maxbound as mb
from maxbound.errors import StabilityError
from maxbound.operators import ddt_node, weighted_norm_sq

from conftest import cavity_setup, ddt_matrix, dense_derivative, tangential_trace_max


def test_cfl_limit_value_unit_materials():
    grid = mb.GridSpec(10, 10, 10, 1.0, 1.0, 1.0, 5, 1.0)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    expect = 1.0 / math.sqrt(3.0 * 100.0)
    assert mb.cfl_limit(p) == pytest.approx(expect, rel=1e-13)


def test_unstable_time_step_is_refused():
    grid = mb.GridSpec(16, 16, 16, 1.0, 1.0, 1.0, 5, 1.0)
    p = mb.assemble_problem(grid, case=mb.cavity_mode())
    with pytest.raises(StabilityError):
        mb.leapfrog_solve(p)
    with pytest.raises(StabilityError):
        mb.leapfrog_solve(p, cfl=1.5)


def test_discrete_energy_is_conserved_for_the_source_free_cavity():
    p, _, _ = cavity_setup(8, 17)
    out = mb.leapfrog_solve(p, track_energy=True)
    trace = out.energy_trace
    assert trace is not None and len(trace) == p.grid.nt - 1
    # the staggered invariant is exact from the first full step onward
    steady = trace[1:]
    drift = np.abs(steady - steady[0]).max() / abs(steady[0])
    assert drift < 1e-12


def test_solver_output_time_derivative_is_the_centered_difference():
    _, approx, _ = cavity_setup(8, 17)
    grid = approx.Etilde.grid
    for k in range(grid.nt):
        expect = ddt_node(approx.Etilde.node, k, grid)
        for a, b in zip(approx.Etilde_t.node(k).components(), expect.components()):
            assert np.array_equal(a, b)
    # the dense matrix product rounds differently, by a few ulps at most
    dense = dense_derivative(approx.Etilde, ddt_matrix(grid.nt, grid.dt))
    for a, b in zip(approx.Etilde_t.components(), dense.components()):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()
    # dH/dt is left to its one reader, combined_estimate
    assert approx.Htilde_t is None


def test_solver_preserves_boundary_condition():
    _, approx, _ = cavity_setup(8, 17)
    for k in range(approx.Etilde.grid.nt):
        assert tangential_trace_max(approx.Etilde.node(k)) == 0.0


def _final_error(n, nt):
    p, approx, exact = cavity_setup(n, nt)
    diff = exact.Etilde.node(nt - 1) + (-1.0) * approx.Etilde.node(nt - 1)
    return math.sqrt(weighted_norm_sq(diff, None, p.grid))


def test_leapfrog_converges_at_second_order_to_the_cavity_mode():
    errs = [_final_error(8, 33), _final_error(16, 65), _final_error(32, 129)]
    orders = [math.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]
    assert all(o >= 1.9 for o in orders), (errs, orders)


def test_exact_projection_carries_analytic_derivatives():
    grid = mb.GridSpec(6, 6, 6, 1.0, 1.0, 1.0, 7, 1.0)
    case = mb.cavity_mode()
    out = mb.project_exact(case, grid)
    expect = case.sample_dtE(grid, grid.times[3])
    for a, b in zip(out.Etilde_t.node(3).components(), expect.components()):
        assert np.array_equal(a, b)


def test_polynomial_case_is_reproduced_by_the_solver_to_discretization_accuracy():
    grid = mb.GridSpec(8, 8, 8, 1.0, 1.0, 1.0, 33, 1.0)
    case = mb.polynomial_source()
    p = mb.assemble_problem(grid, case=case)
    approx = mb.leapfrog_solve(p)
    exact = mb.project_exact(case, grid)
    diff = exact.Etilde.node(32) + (-1.0) * approx.Etilde.node(32)
    err = math.sqrt(weighted_norm_sq(diff, None, grid))
    scale = math.sqrt(weighted_norm_sq(exact.Etilde.node(32), None, grid))
    assert err < 5e-3 * scale
