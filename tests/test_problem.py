"""Manufactured-solution catalog, perturbation bumps, problem assembly."""

import functools
import math

import numpy as np
import pytest

import maxbound as mb
from maxbound.errors import ParameterError, UnsupportedCaseError
from maxbound.fields import EDGE, FACE, FieldTrajectory
from maxbound.operators import (
    curl_edge_to_face,
    curl_face_to_edge,
    weighted_norm_sq,
)
from maxbound.problem import bump_field, bump_field_dt

from conftest import ddt_matrix, dense_derivative, smooth_edge, tangential_trace_max


def _grid(n=8, nt=9, T=1.0):
    return mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, T)


def test_case_catalog_lookup_and_unknown_name():
    case = mb.get_case("cavity_mode", m=2, n=1)
    assert case.parameters["m"] == 2
    with pytest.raises(UnsupportedCaseError):
        mb.get_case("no_such_case")
    with pytest.raises(UnsupportedCaseError):
        mb.cavity_mode(m=0)


def test_cavity_mode_satisfies_both_first_order_equations_analytically():
    # dE/dt = curl H and dH/dt = -curl E with unit materials, G = F = 0;
    # verified with the analytic samples and a fine finite-difference check
    grid = _grid(24, 5)
    case = mb.cavity_mode()
    t = 0.37
    h = 1e-6
    dtE_fd = (case.sample_E(grid, t + h) + (-1.0) * case.sample_E(grid, t - h)) * (0.5 / h)
    dtE = case.sample_dtE(grid, t)
    for a, b in zip(dtE_fd.components(), dtE.components()):
        assert np.abs(a - b).max() < 1e-7
    dtH_fd = (case.sample_H(grid, t + h) + (-1.0) * case.sample_H(grid, t - h)) * (0.5 / h)
    dtH = case.sample_dtH(grid, t)
    for a, b in zip(dtH_fd.components(), dtH.components()):
        assert np.abs(a - b).max() < 1e-7
    # magnetic equation dH/dt = -curl E up to spatial truncation error
    curl_E = curl_edge_to_face(case.sample_E(grid, t), grid)
    for a, b in zip(dtH.components(), curl_E.components()):
        assert np.abs(a + b).max() < 1e-3


def test_cavity_mode_boundary_trace_vanishes():
    grid = _grid(6, 3)
    e = mb.cavity_mode(m=3, n=2).sample_E(grid, 0.2)
    assert tangential_trace_max(e) < 1e-14


def test_polynomial_case_is_residual_free_on_the_staggered_grid():
    grid = _grid(8, 9)
    case = mb.polynomial_source()
    p = mb.assemble_problem(grid, case=case)
    exact = mb.project_exact(case, grid)
    D = ddt_matrix(grid.nt, grid.dt)
    ddE = dense_derivative(dense_derivative(exact.Etilde, D), D)
    # second-order system: eps d2E/dt2 + curl mu^-1 curl E = K exactly
    for k in range(grid.nt):
        curl_curl = curl_face_to_edge(curl_edge_to_face(exact.Etilde.node(k), grid), grid)
        res = ddE.node(k) + curl_curl + (-1.0) * p.K.node(k)
        assert weighted_norm_sq(res, None, grid) < 1e-24


def test_assembled_second_order_source_matches_direct_construction():
    grid = _grid(5, 7)
    case = mb.cavity_mode()
    p = mb.assemble_problem(grid, case=case)
    D = ddt_matrix(grid.nt, grid.dt)
    dF = dense_derivative(p.F.load(), D)
    for k in (0, 3, grid.nt - 1):
        expect = dF.node(k) + curl_face_to_edge(p.G.node(k), grid)
        got = p.K.node(k)
        for a, b in zip(got.components(), expect.components()):
            assert np.array_equal(a, b)
    # initial slope: eps^-1 curl H0 + F(0)
    expect0 = curl_face_to_edge(p.H0, grid) + p.F.node(0)
    for a, b in zip(p.E0prime.components(), expect0.components()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("given", ["F", "G", "E0", "H0"])
def test_a_case_and_fields_of_the_caller_are_refused_together(given):
    grid = _grid(4, 5)
    fields = {"F": FieldTrajectory.zeros(grid, EDGE), "G": FieldTrajectory.zeros(grid, FACE),
              "E0": smooth_edge(grid), "H0": mb.StaggeredField.zeros(grid, FACE)}
    with pytest.raises(ParameterError, match="not both"):
        mb.assemble_problem(grid, case=mb.polynomial_source(), **{given: fields[given]})


def test_cases_require_unit_materials():
    grid = _grid(4, 3)
    eps = mb.MaterialField.scalar(grid, 2.0)
    with pytest.raises(UnsupportedCaseError):
        mb.assemble_problem(grid, eps=eps, case=mb.cavity_mode())


def test_bump_fields_have_zero_trace_and_consistent_derivatives():
    grid = _grid(6, 5)
    for key in ("poly_t2", "static"):
        w = bump_field(key, grid, 0.63)
        assert tangential_trace_max(w) < 1e-14
        h = 1e-6
        fd = (bump_field(key, grid, 0.63 + h) + (-1.0) * bump_field(key, grid, 0.63 - h)) * (0.5 / h)
        an = bump_field_dt(key, grid, 0.63)
        for a, b in zip(fd.components(), an.components()):
            assert np.abs(a - b).max() < 1e-8


def test_bump_catalog_has_one_bump_vanishing_at_start_and_one_not():
    grid = _grid(5, 3)
    poly0 = bump_field("poly_t2", grid, 0.0)
    static0 = bump_field("static", grid, 0.0)
    assert max(np.abs(c).max() for c in poly0.components()) == 0.0
    assert max(np.abs(c).max() for c in static0.components()) > 0.1
    with pytest.raises(UnsupportedCaseError):
        bump_field("unknown", grid, 0.0)


def test_perturb_adds_the_scaled_bump_per_node():
    grid = _grid(4, 5)
    case = mb.cavity_mode()
    traj = FieldTrajectory.sample(grid, EDGE, lambda t: case.sample_E(grid, t))
    out = mb.perturb(traj, 2.5, "static")
    shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field("static", grid, t))
    diff = out + (-1.0) * traj + (-2.5) * shift
    assert max(np.abs(c).max() for c in diff.components()) < 1e-13
    same = mb.perturb(traj, 0.0, "static")
    assert np.array_equal(same.z, traj.z)


def test_assemble_problem_defaults_to_zero_sources():
    grid = _grid(3, 5)
    p = mb.assemble_problem(grid)
    assert max(np.abs(c).max() for c in p.K.node(2).components()) == 0.0
    assert p.eps.is_identity() and p.mu.is_identity()


# ---------------------------------------------------------------------------
# source-free problems hold no source trajectories


_SOURCE_FREE = {
    "cavity_mode": lambda grid: mb.assemble_problem(grid, case=mb.cavity_mode(m=1, n=2)),
    "no_sources": lambda grid: mb.assemble_problem(grid),
    # no sources either, but a start for the solver to propagate
    "initial_data_only": lambda grid: mb.assemble_problem(grid, E0=smooth_edge(grid)),
}


def _dense_zero_sources_twin(p):
    """The same problem assembled with explicit dense all-zero F and G."""
    grid = p.grid
    return mb.assemble_problem(grid, F=FieldTrajectory.zeros(grid, EDGE),
                               G=FieldTrajectory.zeros(grid, FACE), E0=p.E0, H0=p.H0)


@pytest.mark.parametrize("build", sorted(_SOURCE_FREE))
def test_source_free_problem_stores_one_read_only_node_per_source(build):
    grid = _grid(5, 9)
    p = _SOURCE_FREE[build](grid)
    for source in (p.F, p.G, p.K):
        zero = source.node(0)
        assert all(source.node(k) is zero for k in range(grid.nt))
        for c in zero.components():
            # one float, whatever the grid and the node count
            assert c.strides == (0, 0, 0) and c.base.shape == ()
            assert not c.any()
            with pytest.raises(ValueError):
                c[1] = 1.0
    dense = _dense_zero_sources_twin(p)
    assert dense.K.node(1).x.strides != (0, 0, 0)
    for k in range(grid.nt):
        for a, b in zip(p.K.node(k).components(), dense.K.node(k).components()):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("build", ["cavity_mode", "initial_data_only"])
def test_solve_of_a_source_free_problem_equals_the_dense_zero_source_solve(build):
    grid = _grid(6, 17)
    p = _SOURCE_FREE[build](grid)
    got = mb.leapfrog_solve(p, track_energy=True)
    want = mb.leapfrog_solve(_dense_zero_sources_twin(p), track_energy=True)
    for name in ("Etilde", "Htilde", "Etilde_t"):
        for a, b in zip(getattr(got, name).components(), getattr(want, name).components()):
            assert np.array_equal(a, b)
    assert got.Htilde_t is None and want.Htilde_t is None
    assert np.array_equal(got.energy_trace, want.energy_trace)
    assert max(np.abs(c).max() for c in got.Etilde.components()) > 0.1


def _catalog_samplers():
    cavity, poly = mb.cavity_mode(m=2, n=1, amplitude=0.5), mb.polynomial_source()
    samplers = {f"cavity_mode.{name}": getattr(cavity, name)
                for name in ("sample_E", "sample_dtE", "sample_H", "sample_dtH")}
    samplers.update({f"polynomial_source.{name}": getattr(poly, name)
                     for name in ("sample_E", "sample_dtE", "sample_G")})
    for key in ("poly_t2", "static"):
        samplers[f"bump_field.{key}"] = functools.partial(bump_field, key)
        samplers[f"bump_field_dt.{key}"] = functools.partial(bump_field_dt, key)
    return samplers


_SAMPLERS = _catalog_samplers()


@pytest.mark.parametrize("grid", [mb.GridSpec(5, 6, 7, 1.0, 1.3, 0.8, 9, 1.0), _grid(32, 9)],
                         ids=["5x6x7", "32^3"])
@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_sampling_on_sparse_coordinates_equals_the_dense_meshgrid(name, grid, monkeypatch):
    X, Y, Z = grid.component_coords(EDGE, "z")
    nx, ny, nz = grid.shape(EDGE, "z")
    assert (X.shape, Y.shape, Z.shape) == ((nx, 1, 1), (1, ny, 1), (1, 1, nz))
    sample = _SAMPLERS[name]
    times = (0.0, 0.37)
    got = [sample(grid, t) for t in times]
    sparse = mb.GridSpec.component_coords

    def dense(self, kind, comp):
        return np.meshgrid(*(a.ravel() for a in sparse(self, kind, comp)), indexing="ij")

    monkeypatch.setattr(mb.GridSpec, "component_coords", dense)
    for t, field in zip(times, got):
        want = sample(grid, t)
        for a, b in zip(field.components(), want.components()):
            assert a.shape == b.shape
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
