"""Gronwall bounds in differential and integral form, with an ODE oracle.

Both forms are thin callers of operators.gronwall_recursion, the one
overflow-free kernel that also turns the majorant's functional into its
bound, so bound assembly elsewhere agrees bit-for-bit on common inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fields import MAX_FLOATS
from .operators import gronwall_recursion, nodes_in_range


def _growth_and_source(phi, psi, nt):
    """phi and psi at nt nodes, a scalar repeated, by the converter of the bound's
    weights: it refuses a phi < 0, and either one where it is not finite."""
    return nodes_in_range(phi, nt, "phi", 0.0, lo_closed=True), nodes_in_range(psi, nt, "psi")


def _not_nan(bound, source):
    """bound, refused where it holds a NaN: the recursion adds the half-step
    source's +inf and -inf where it overflows with both signs."""
    if np.isnan(bound).any():
        raise ParameterError(f"the half-step source {source} overflows with both signs")
    return bound


def gronwall_differential(u0, phi, psi, dt):
    """Bound t -> exp(Phi(t)) (u0 + int_0^t exp(-Phi(s)) psi(s) ds).

    Valid for u with u' <= phi u + psi, phi >= 0.  phi and psi may be
    scalars or nodal trajectories; u0, phi and psi must be finite, and a
    bound that holds a NaN is refused.
    """
    u0 = nodes_in_range(u0, 1, "u0")[0]
    phi_arr, psi_arr = _growth_and_source(phi, psi, max(np.size(phi), np.size(psi)))
    return _not_nan(gronwall_recursion(u0, phi_arr, 0.5 * dt * psi_arr, dt), "0.5*dt*psi")


def gronwall_integral(phi, psi, dt):
    """Bound t -> exp(Phi(t)) int_0^t exp(-Phi(s)) phi(s) psi(s) ds + psi(t).

    Valid for u with u(t) <= int_0^t phi u ds + psi(t), phi >= 0.  phi and
    psi must be finite, and a bound that holds a NaN is refused.
    """
    phi_arr, psi_arr = _growth_and_source(phi, psi, max(np.size(phi), np.size(psi)))
    bound = gronwall_recursion(0.0, phi_arr, 0.5 * dt * phi_arr * psi_arr, dt) + psi_arr
    return _not_nan(bound, "0.5*dt*phi*psi")


@dataclass
class OracleReport:
    """Outcome of checking a Gronwall bound against a direct ODE solve;
    not_finite names those of "bound" and "oracle solution" not finite at
    some node, where the check fails and measures nothing (nan)."""

    passed: bool
    max_violation: float
    max_rel_gap: float
    bound: np.ndarray = field(repr=False)
    solution: np.ndarray = field(repr=False)
    not_finite: tuple = ()


def _rk4(u0, rhs, times):
    u = np.empty(len(times))
    u[0] = u0
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        k1 = rhs(t, u[k])
        k2 = rhs(t + 0.5 * h, u[k] + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, u[k] + 0.5 * h * k2)
        k4 = rhs(t + h, u[k] + h * k3)
        u[k + 1] = u[k] + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def gronwall_oracle_check(phi, psi, u0, T, nt, refine=8, tol=1e-6):
    """Integrate u' = phi u + psi with RK4 and compare against the bound.

    phi and psi may be callables of t or nodal arrays (linearly
    interpolated for the refined oracle grid).  The hypothesis holds with
    equality, so the bound must dominate the solution everywhere and be
    tight up to quadrature error.
    """
    if (nt - 1) * refine + 1 > MAX_FLOATS:
        raise ParameterError(f"nt={nt} is too large for the refined oracle grid to fit an array")
    t_nodes = np.linspace(0.0, T, nt)
    # a callable is sampled at the nodes, an array interpolated between them
    phi_nodes, psi_nodes = _growth_and_source(
        *(np.array([v(t) for t in t_nodes]) if callable(v) else v for v in (phi, psi)), nt)
    phi_fn, psi_fn = (v if callable(v) else (lambda t, nodes=nodes: np.interp(t, t_nodes, nodes))
                      for v, nodes in ((phi, phi_nodes), (psi, psi_nodes)))
    bound = gronwall_differential(u0, phi_nodes, psi_nodes, T / (nt - 1))
    t_fine = np.linspace(0.0, T, (nt - 1) * refine + 1)
    u_fine = _rk4(u0, lambda t, u: phi_fn(t) * u + psi_fn(t), t_fine)
    return oracle_report(bound, u_fine[::refine], tol)


def oracle_report(bound, solution, tol):
    """Compare a nodal bound with the oracle solution: the bound must
    dominate it and be tight to tol, both relative to their common scale."""
    not_finite = tuple(name for name, v in (("bound", bound), ("oracle solution", solution))
                       if not np.isfinite(v).all())
    if not_finite:
        return OracleReport(False, np.nan, np.nan, bound, solution, not_finite)
    scale = max(np.abs(solution).max(), np.abs(bound).max(), 1.0)
    gap = bound - solution
    max_violation = float(max(0.0, -(gap.min())))
    max_rel_gap = float(np.abs(gap).max() / scale)
    passed = max_violation <= tol * scale and max_rel_gap <= tol
    return OracleReport(passed, max_violation, max_rel_gap, bound, solution)
