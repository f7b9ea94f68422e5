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
    oracle_report,
)
from maxbound.operators import cumulative_trapezoid, gronwall_recursion


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


@pytest.mark.parametrize("form", [gronwall_differential, gronwall_integral])
def test_a_scalar_takes_the_length_of_the_other_coefficient(form):
    # nt comes from phi and psi together, so either may be the scalar
    args = (1.0,) if form is gronwall_differential else ()
    phi, psi = np.array([0.5, 1.0, 1.5]), np.array([0.2, -0.1, 0.4])
    for scalar_phi, scalar_psi in ((phi, 1.0), (0.7, psi)):
        got = form(*args, scalar_phi, scalar_psi, 0.1)
        want = form(*args, np.broadcast_to(scalar_phi, 3), np.broadcast_to(scalar_psi, 3), 0.1)
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ParameterError, match="does not match"):
        form(*args, phi, np.ones(4), 0.1)


@pytest.mark.parametrize("form", [gronwall_differential, gronwall_integral])
def test_a_nan_growth_coefficient_is_refused(form):
    args = (1.0,) if form is gronwall_differential else ()
    for phi in (math.nan, np.array([0.5, math.nan, 1.5])):
        with pytest.raises(ParameterError, match=r"phi must lie in \[0\.0, inf\) on all nodes"):
            form(*args, phi, np.ones(3), 0.1)


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


@pytest.mark.parametrize("nt", [10**19, 2**63 // 64 + 2])
def test_an_oracle_grid_too_long_to_index_is_refused_before_any_array(nt):
    # (nt - 1) * 8 + 1 nodes of 8 bytes each overflow an array's byte count
    with pytest.raises(ParameterError, match="too large"):
        gronwall_oracle_check(1.0, 1.0, 0.0, 1.0, nt)


@pytest.mark.parametrize("bound_inf, solution_inf, names", [
    (True, False, ("bound",)), (False, True, ("oracle solution",)),
    (True, True, ("bound", "oracle solution")),
], ids=["bound", "solution", "both"])
def test_an_oracle_report_on_a_non_finite_node_fails_and_names_it(bound_inf, solution_inf,
                                                                  names):
    # inf - inf is nan, which no comparison can pass or fail: the report
    # names what is not finite instead of a violation of 0.0 and a nan gap
    bound, solution = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])
    if bound_inf:
        bound[1:] = math.inf
    if solution_inf:
        solution[2] = math.inf
    rep = oracle_report(bound, solution, 1e-6)
    assert not rep.passed and rep.not_finite == names
    assert oracle_report(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1e-6).not_finite == ()


# ---------------------------------------------------------------------------
# the forms' admission: finite coefficients run the recursion, others are refused


_FORMS = [gronwall_differential, gronwall_integral]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _coefficients(draw):
    """(u0, phi, psi, dt): finite, phi >= 0, each of phi and psi a scalar or
    nt nodal values for one nt in 2..200."""
    nt = draw(st.integers(2, 200))

    def scalar_or_nodal(values):
        return draw(st.one_of(values, st.lists(values, min_size=nt, max_size=nt).map(np.array)))

    phi = scalar_or_nodal(st.floats(min_value=0.0, allow_infinity=False))
    psi = scalar_or_nodal(_FINITE)
    return draw(_FINITE), phi, psi, draw(st.floats(1e-3, 1e3)) / (nt - 1)


def _form(form, u0, phi, psi, dt):
    return form(u0, phi, psi, dt) if form is gronwall_differential else form(phi, psi, dt)


@settings(max_examples=100, deadline=None)
@given(form=st.sampled_from(_FORMS), coefficients=_coefficients())
def test_finite_coefficients_give_the_bits_of_the_recursion(form, coefficients):
    # a recursion result without a NaN is returned bit for bit, one with a
    # NaN is refused
    u0, phi, psi, dt = coefficients
    nt = max(np.size(phi), np.size(psi))
    phi_n, psi_n = (np.broadcast_to(np.asarray(v, dtype=float), (nt,)) for v in (phi, psi))
    with np.errstate(all="ignore"):  # a finite input may still overflow
        if form is gronwall_differential:
            want = gronwall_recursion(u0, phi_n, 0.5 * dt * psi_n, dt)
        else:
            want = gronwall_recursion(0.0, phi_n, 0.5 * dt * phi_n * psi_n, dt) + psi_n
        if np.isnan(want).any():
            with pytest.raises(ParameterError, match="overflows with both signs"):
                _form(form, u0, phi, psi, dt)
            return
        got = _form(form, u0, phi, psi, dt)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("form", _FORMS)
def test_a_source_that_overflows_with_both_signs_is_refused(form):
    # 0.5 * dt * psi is +inf at one node and -inf at the next, whose sum the
    # recursion would return as NaN; overflow of one sign stays +inf
    with np.errstate(over="ignore"):
        with pytest.raises(ParameterError, match=r"half-step source 0\.5\*dt\*.*psi overflows "
                                                 "with both signs"):
            _form(form, 1.0, 1.0 if form is gronwall_integral else 0.0,
                  [1e308, -1e308, 1.0], 10.0)
        if form is gronwall_differential:
            np.testing.assert_array_equal(form(1.0, 0.0, [1e308, 1e308, 1.0], 10.0),
                                          [1.0, math.inf, math.inf])


@settings(max_examples=100, deadline=None)
@given(form=st.sampled_from(_FORMS), coefficients=_coefficients(), data=st.data(),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_coefficient_that_is_not_finite_is_refused(form, coefficients, data, bad):
    # one entry of u0, phi or psi is nan or +-inf: a ParameterError, never a
    # non-finite bound
    args = dict(zip(("u0", "phi", "psi"), coefficients[:3]))
    name = data.draw(st.sampled_from(["phi", "psi"] + ["u0"] * (form is gronwall_differential)))
    if np.ndim(args[name]) == 0:
        args[name] = bad
    else:
        args[name] = args[name].copy()
        args[name][data.draw(st.integers(0, len(args[name]) - 1))] = bad
    with pytest.raises(ParameterError, match=f"{name} must lie in"):
        _form(form, args["u0"], args["phi"], args["psi"], coefficients[3])
