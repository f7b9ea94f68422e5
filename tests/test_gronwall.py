"""Differential and integral bound kernels checked against ODE oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxbound.errors import ParameterError
from maxbound.gronwall import (
    gronwall_differential,
    gronwall_integral,
    gronwall_oracle_check,
)
from maxbound.operators import cumulative_trapezoid


def _nodes(T, nt):
    return np.linspace(0.0, T, nt), T / (nt - 1)


def test_differential_zero_growth_is_the_plain_integral():
    t, dt = _nodes(1.0, 501)
    psi = np.cos(3.0 * t)
    got = gronwall_differential(0.25, 0.0, psi, dt)
    expect = 0.25 + cumulative_trapezoid(psi, dt)
    assert np.allclose(got, expect, rtol=1e-14, atol=1e-15)


def test_differential_constant_growth_is_exponential():
    t, dt = _nodes(1.0, 2001)
    got = gronwall_differential(0.7, 1.3, np.zeros_like(t), dt)
    assert np.abs(got - 0.7 * np.exp(1.3 * t)).max() < 1e-6


def test_differential_constant_psi_dominated_by_linear_growth_bound():
    # with psi <= c the bound never exceeds (u0 + c t) exp(Phi(t))
    rng = np.random.default_rng(17)
    t, dt = _nodes(1.0, 301)
    phi = rng.uniform(0.0, 2.0, t.size)
    c = 0.8
    psi = rng.uniform(-0.3, c, t.size)
    got = gronwall_differential(0.5, phi, psi, dt)
    big_phi = cumulative_trapezoid(phi, dt)
    cap = (0.5 + c * t) * np.exp(big_phi)
    assert np.all(got <= cap + 1e-12)


def test_integral_zero_psi_gives_zero():
    t, dt = _nodes(1.0, 101)
    got = gronwall_integral(1.0, np.zeros_like(t), dt)
    assert np.array_equal(got, np.zeros_like(t))


def test_integral_constant_phi_branch_matches_general_path():
    t, dt = _nodes(1.0, 401)
    psi = 1.0 + 0.5 * np.sin(4.0 * t)
    fast = gronwall_integral(0.9, psi, dt)
    general = gronwall_integral(np.full(t.size, 0.9), psi, dt)
    scale = np.abs(fast).max()
    assert np.abs(fast - general).max() <= 1e-14 * scale


def test_integral_constant_psi_tracks_exponential():
    t, dt = _nodes(1.0, 2001)
    phi = 0.5 + 0.25 * t
    got = gronwall_integral(phi, np.full(t.size, 2.0), dt)
    big_phi = cumulative_trapezoid(phi, dt)
    assert np.abs(got - 2.0 * np.exp(big_phi)).max() < 1e-5


def test_negative_growth_coefficient_is_rejected():
    t, dt = _nodes(1.0, 11)
    with pytest.raises(ParameterError):
        gronwall_differential(0.0, -0.1, np.zeros_like(t), dt)
    with pytest.raises(ParameterError):
        gronwall_integral(np.full(t.size, -1.0), np.ones_like(t), dt)


def test_bounds_are_monotone_in_psi():
    rng = np.random.default_rng(23)
    t, dt = _nodes(1.0, 201)
    phi = rng.uniform(0.0, 1.5, t.size)
    psi = rng.standard_normal(t.size)
    bump = np.abs(rng.standard_normal(t.size))
    for fn in (lambda ps: gronwall_differential(0.3, phi, ps, dt),
               lambda ps: gronwall_integral(phi, ps, dt)):
        lo = fn(psi)
        hi = fn(psi + bump)
        assert np.all(hi >= lo - 1e-12)


def test_forms_agree_after_integrating_the_hypothesis():
    # the differential hypothesis u' <= phi u + psi integrates to
    # u <= int phi u + (int psi + u0); pushing that through the integral
    # kernel reproduces the differential bound once quadrature resolves
    nt = 1_000_001
    t, dt = _nodes(1.0, nt)
    phi = 0.5 + 0.3 * np.sin(2.0 * t)
    psi = 1.0 + 0.5 * np.cos(3.0 * t)
    u0 = 0.7
    b_diff = gronwall_differential(u0, phi, psi, dt)
    b_int = gronwall_integral(phi, cumulative_trapezoid(psi, dt) + u0, dt)
    scale = np.abs(b_diff).max()
    assert np.abs(b_diff - b_int).max() <= 1e-12 * scale


def test_oracle_check_tight_exponential_case():
    report = gronwall_oracle_check(lambda t: 1.0, lambda t: 0.0, 1.0, 1.0, 1001)
    assert report.passed
    assert report.max_violation == 0.0 or report.max_violation < 1e-9
    assert abs(report.bound[-1] - math.e) < 1e-5


def test_oracle_check_pure_integral_case():
    report = gronwall_oracle_check(lambda t: 0.0, math.sin, 0.0, 1.0, 1001)
    assert report.passed
    assert abs(report.bound[-1] - (1.0 - math.cos(1.0))) < 1e-6


def test_oracle_bound_strictly_above_strict_inequality_solutions():
    # u' = phi u + psi - 1 satisfies the hypothesis strictly
    phi = lambda t: 0.8
    psi = lambda t: 1.5
    nt = 1001
    t, dt = _nodes(1.0, nt)
    bound = gronwall_differential(0.2, np.full(nt, 0.8), np.full(nt, 1.5), dt)
    from maxbound.gronwall import _rk4

    u = _rk4(0.2, lambda s, v: phi(s) * v + psi(s) - 1.0, t)
    assert bound[-1] > u[-1] + 0.5


def test_oracle_tightness_improves_at_second_order():
    gaps = []
    for nt in (251, 501, 1001):
        report = gronwall_oracle_check(lambda t: 1.0 + t, lambda t: math.cos(t), 0.4, 1.0, nt)
        gaps.append(report.max_rel_gap)
    orders = [math.log2(a / b) for a, b in zip(gaps[:-1], gaps[1:])]
    assert all(o >= 1.9 for o in orders), orders


# ---------------------------------------------------------------------------
# the shared overflow-free recursion


def _direct_forms(u0, phi, psi, dt):
    """The two bounds through exp(+-Phi) formed directly."""
    big = cumulative_trapezoid(phi, dt)
    diff = np.exp(big) * (u0 + cumulative_trapezoid(np.exp(-big) * psi, dt))
    integ = np.exp(big) * cumulative_trapezoid(np.exp(-big) * phi * psi, dt) + psi
    return diff, integ


@settings(max_examples=60, deadline=None)
@given(
    nt=st.integers(3, 200),
    growth=st.floats(0.0, 50.0),
    nodal=st.booleans(),
    u0=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_forms_match_the_direct_exponential_formula(nt, growth, nodal, u0, seed):
    # Phi(T) <= 50 keeps exp(+-Phi) in range; the error is measured against
    # the same bound taken with |u0| and |psi|, which has no cancellation
    rng = np.random.default_rng(seed)
    dt = 1.0 / (nt - 1)
    phi = rng.uniform(0.0, 2.0 * growth, nt) if nodal else np.full(nt, growth)
    phi *= min(1.0, 50.0 / max(cumulative_trapezoid(phi, dt)[-1], 1e-300))
    psi = rng.standard_normal(nt) * 10.0 ** rng.uniform(-3, 3)
    diff, integ = _direct_forms(u0, phi, psi, dt)
    diff_abs, integ_abs = _direct_forms(abs(u0), phi, np.abs(psi), dt)
    assert np.all(
        np.abs(gronwall_differential(u0, phi, psi, dt) - diff) <= 1e-12 * diff_abs
    )
    assert np.all(np.abs(gronwall_integral(phi, psi, dt) - integ) <= 1e-12 * integ_abs)


@pytest.mark.filterwarnings("error")
def test_a_late_source_under_fast_growth_gives_a_finite_bound():
    # exp(Phi(T)) = exp(1000) overflows, but the source only acts on the last
    # 1% of [0, 1], so both bounds are finite: at T each is a trapezoid sum of
    # exp(Phi(T) - Phi(t_j)) psi_j over the nodes t_j >= 0.99 only
    nt, c = 1001, 1000.0
    t, dt = _nodes(1.0, nt)
    psi = np.where(t >= 0.99, 1.0, 0.0)
    b_diff = gronwall_differential(0.0, c, psi, dt)
    b_int = gronwall_integral(c, psi, dt)
    assert np.all(np.isfinite(b_diff)) and np.all(np.isfinite(b_int))
    assert np.all(b_diff[psi == 0.0] == 0.0)
    lag = np.arange(nt)[::-1][psi > 0.0]
    w = np.where(lag == 0, 0.5 * dt, dt)
    expect = float(np.sum(w * np.exp(c * dt * lag)))
    assert b_diff[-1] == pytest.approx(expect, rel=1e-12)
    assert b_int[-1] == pytest.approx(c * expect + 1.0, rel=1e-12)
