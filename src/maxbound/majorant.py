"""Guaranteed upper bounds for the energy-norm error of Maxwell approximations.

Given problem data, an approximation (Etilde, Etilde_t) and a free face
trajectory Y, the residual fields measure how far the approximation is
from solving the second-order curl-curl system.  Weighted space-time
integrals of those residuals, pushed through a Gronwall inequality, bound
the true error in the energy norms

    n(t) = ||e_t||^2_eps + rho ||curl e||^2_{mu^-1},
    N(t) = integral of (gamma *) n over (0, t),

for every admissible choice of the tuning variables (Y, gamma, rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import GridMismatchError, MaxboundError, ParameterError, PreconditionError
from .fields import FACE, FieldTrajectory, StaggeredField
from .operators import (
    apply_material_staggered,
    curl_edge_to_face,
    curl_face_to_edge,
    cumulative_trapezoid,
    ddt_matrix,
    ddt_stencil,
    exp_weighted_cumulative,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
)

THEOREMS = ("T1", "T3", "T4", "T5")
ZERO_VARIANTS = ("z", "z_tilde", "z_hat")

_EFFICIENCY_FLOOR = 1e3 * np.finfo(float).eps


@dataclass
class MajorantParams:
    """Free parameters of the bound: rho in (0,1), gamma > 0, Y, zero-term variant.

    rho and gamma may be scalars or nodal trajectories (trajectories are
    only admissible for the time-dependent-weight theorems T3/T4).  Y
    defaults to mu^-1 curl(Etilde), the natural near-minimizer.
    """

    rho: Union[float, np.ndarray] = 0.5
    gamma: Union[float, np.ndarray] = 1.0
    Y: Optional[FieldTrajectory] = None
    zero_variant: str = "z_hat"
    absolute_coupling: bool = False

    def __post_init__(self):
        if self.zero_variant not in ZERO_VARIANTS:
            raise ParameterError(f"unknown zero-term variant {self.zero_variant!r}")

    def rho_nodes(self, nt):
        return _nodes_in_range(self.rho, nt, "rho", 0.0, 1.0)

    def gamma_nodes(self, nt):
        return _nodes_in_range(self.gamma, nt, "gamma", 0.0, np.inf)

    def is_constant(self):
        return np.ndim(self.rho) == 0 and np.ndim(self.gamma) == 0


def _nodes_in_range(v, nt, name, lo, hi):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = np.full(nt, float(arr))
    elif arr.shape != (nt,):
        raise ParameterError(f"{name} trajectory length {arr.shape} != nt = {nt}")
    if np.any(arr <= lo) or np.any(arr >= hi):
        raise ParameterError(f"{name} must lie in ({lo}, {hi}) on all nodes")
    return arr


@dataclass
class Residuals:
    """Residual trajectories of the approximation against the curl-curl system.

    Khat   (edge): eps d2E/dt2 + curl Y - K        (high-regularity path)
    Ktilde (face): mu^-1 curl Etilde - Y
    Kcheck (edge): eps dEtilde_t/dt + curl Y - K   (weak-regularity path)
    Rt     (face): mu^-1 curl Etilde_t - dY/dt
    """

    Khat: Optional[FieldTrajectory]
    Ktilde: FieldTrajectory
    Kcheck: Optional[FieldTrajectory]
    Rt: Optional[FieldTrajectory]
    dt_Ktilde: Optional[FieldTrajectory] = None
    coupling_curl: Optional[FieldTrajectory] = None  # curl(Etilde_t - dEtilde/dt)


def default_Y(p, approx):
    """The natural free-field choice mu^-1 curl(Etilde)."""
    g = p.grid
    return apply_material_staggered(curl_edge_to_face(approx.Etilde, g), p.mu_inv, g)


def _check_Y(Y, grid):
    if Y.kind != FACE:
        raise GridMismatchError("Y must be a face-type trajectory")
    if Y.grid.nt != grid.nt:
        raise GridMismatchError(f"Y has {Y.grid.nt} nodes, problem has {grid.nt}")


def residuals(p, approx, Y):
    """All residual trajectories for the given free field Y."""
    g = p.grid
    _check_Y(Y, g)
    D = ddt_matrix(g.nt, g.dt)

    Ktilde = apply_material_staggered(curl_edge_to_face(approx.Etilde, g), p.mu_inv, g) - Y
    dt_Ktilde = trajectory_derivative(Ktilde, D)
    curl_Y = curl_face_to_edge(Y, g)

    dE = trajectory_derivative(approx.Etilde, D)

    Khat = None
    if g.nt >= 5:
        ddE = trajectory_derivative(dE, D)
        Khat = apply_material_staggered(ddE, p.eps, g) + curl_Y - p.K

    Kcheck = None
    Rt = None
    coupling_curl = None
    if approx.Etilde_t is not None:
        dEt = trajectory_derivative(approx.Etilde_t, D)
        Kcheck = apply_material_staggered(dEt, p.eps, g) + curl_Y - p.K
        curl_Et = curl_edge_to_face(approx.Etilde_t, g)
        Rt = apply_material_staggered(curl_Et, p.mu_inv, g) - trajectory_derivative(Y, D)
        coupling_curl = curl_edge_to_face(approx.Etilde_t - dE, g)
    return Residuals(Khat, Ktilde, Kcheck, Rt, dt_Ktilde, coupling_curl)


def norm_sq_trajectory(traj, w, grid):
    """Spatial weighted squared norm at each time node."""
    return np.array([weighted_norm_sq(traj.node(k), w, grid) for k in range(grid.nt)])


def inner_trajectory(a, b, grid):
    """Plain (unweighted) cell-centered inner product at each time node."""
    return np.array([weighted_inner(a.node(k), b.node(k), None, grid) for k in range(grid.nt)])


# ---------------------------------------------------------------------------
# zero term


@dataclass
class ZeroTermParts:
    et0_sq: float       # ||e_t(0)||^2_eps
    curl_e0_sq: float   # ||curl e(0)||^2_{mu^-1}
    cross: float        # <Ktilde(0), curl e(0)>
    ktilde0_sq: float   # ||Ktilde(0)||^2_mu

    def value(self, variant):
        if variant == "z":
            return self.et0_sq + self.curl_e0_sq + 2.0 * self.cross
        if variant == "z_tilde":
            return self.et0_sq + self.curl_e0_sq + 2.0 * abs(self.cross)
        if variant == "z_hat":
            return self.et0_sq + 2.0 * self.curl_e0_sq + self.ktilde0_sq
        raise ParameterError(f"unknown zero-term variant {variant!r}")


def zero_term_parts(p, approx, Y, use_Etilde_t=True):
    """Initial-condition error contributions, computable from given data only.

    curl e(0) = curl E0 - curl Etilde(0); the first slot error uses
    E0' - Etilde_t(0) (or E0' - dEtilde/dt(0) on the high-regularity path).
    Y None stands for the default free field, for which Ktilde(0) = 0.
    """
    g = p.grid
    if use_Etilde_t:
        first0 = approx.Etilde_t.node(0)
    else:
        first0 = _ddt_node(approx.Etilde.node, 0, g)
    et0_err = p.E0prime - first0
    curl_e0 = curl_edge_to_face(p.E0 - approx.Etilde.node(0), g)
    m0 = apply_material_staggered(curl_edge_to_face(approx.Etilde.node(0), g), p.mu_inv, g)
    ktilde0 = m0 - (m0 if Y is None else Y.node(0))
    return ZeroTermParts(
        et0_sq=weighted_norm_sq(et0_err, p.eps, g),
        curl_e0_sq=weighted_norm_sq(curl_e0, p.mu_inv, g),
        cross=weighted_inner(ktilde0, curl_e0, None, g),
        ktilde0_sq=weighted_norm_sq(ktilde0, p.mu, g),
    )


def zero_term(p, approx, Y, variant="z_hat", use_Etilde_t=True):
    return zero_term_parts(p, approx, Y, use_Etilde_t).value(variant)


# ---------------------------------------------------------------------------
# the per-node series, in one pass over the time nodes


class _Window:
    """Node fields made on first use and kept by node index until dropped."""

    def __init__(self, make):
        self._make = make
        self._nodes = {}

    def __call__(self, j):
        node = self._nodes.get(j)
        if node is None:
            node = self._nodes[j] = self._make(j)
        return node

    def drop_before(self, k):
        self._nodes = {j: node for j, node in self._nodes.items() if j >= k}


def _ddt_node(node, k, grid):
    """Row k of the time-derivative matrix applied to the fields node(j)."""
    lo, w = ddt_stencil(grid.nt, grid.dt, k)
    out = None
    for j, wj in zip(range(lo, lo + 3), w):
        if wj != 0.0:
            term = node(j) * wj
            out = term if out is None else out + term
    return out


@dataclass
class NodeSeries:
    """Per-node residual norms whose weighted combination is the functional f.

    edge_sq is ||Khat||^2_{eps^-1} (T1/T3) or ||Kcheck||^2_{eps^-1} (T4/T5);
    face_sq is ||dKtilde/dt||^2_mu (T1/T3) or ||Rt||^2_mu (T4/T5); coup is
    <Ktilde, curl(Etilde_t - dEtilde/dt)> on T4/T5 and None otherwise.
    """

    kt_sq: np.ndarray
    edge_sq: np.ndarray
    face_sq: np.ndarray
    coup: Optional[np.ndarray]
    zp: ZeroTermParts


def _check_theorem(theorem, grid, approx):
    if theorem not in THEOREMS:
        raise ParameterError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    if theorem in ("T1", "T3") and grid.nt < 5:
        raise PreconditionError(f"{theorem} needs nt >= 5 for second time differences")
    if theorem in ("T4", "T5") and approx.Etilde_t is None:
        raise PreconditionError(f"{theorem} requires the Etilde_t trajectory")


def series(p, approx, Y, theorem):
    """The theorem's per-node series in one pass over the time nodes.

    Every node sees the operations of `residuals` followed by a spatial
    norm, but only a window of node fields is held: the free field Y, the
    curl mismatch Ktilde and (T1/T3) the derivative dEtilde/dt, each kept
    from node k-2 on.  Y None stands for the default free field
    mu^-1 curl Etilde, built node by node.
    """
    g = p.grid
    _check_theorem(theorem, g, approx)
    if Y is not None:
        _check_Y(Y, g)
    nt = g.nt
    E, Et = approx.Etilde, approx.Etilde_t
    M = _Window(
        lambda j: apply_material_staggered(curl_edge_to_face(E.node(j), g), p.mu_inv, g)
    )
    Yw = M if Y is None else _Window(Y.node)
    Kt = _Window(lambda j: M(j) - Yw(j))
    dE = _Window(lambda j: _ddt_node(E.node, j, g))
    high = theorem in ("T1", "T3")

    kt_sq, edge_sq, face_sq = np.empty(nt), np.empty(nt), np.empty(nt)
    coup = None if high else np.empty(nt)
    for k in range(nt):
        kt_sq[k] = weighted_norm_sq(Kt(k), p.mu, g)
        curl_Y = curl_face_to_edge(Yw(k), g)
        if high:
            d2E = apply_material_staggered(_ddt_node(dE, k, g), p.eps, g)
            edge = d2E + curl_Y - p.K.node(k)
            face = _ddt_node(Kt, k, g)
        else:
            dEt = apply_material_staggered(_ddt_node(Et.node, k, g), p.eps, g)
            edge = dEt + curl_Y - p.K.node(k)
            curl_Et = curl_edge_to_face(Et.node(k), g)
            face = apply_material_staggered(curl_Et, p.mu_inv, g) - _ddt_node(Yw, k, g)
            coupling_curl = curl_edge_to_face(Et.node(k) - dE(k), g)
            coup[k] = weighted_inner(Kt(k), coupling_curl, None, g)
        edge_sq[k] = weighted_norm_sq(edge, p.eps_inv, g)
        face_sq[k] = weighted_norm_sq(face, p.mu, g)
        for w in (M, Yw, Kt, dE):
            w.drop_before(k - 1)
    zp = zero_term_parts(p, approx, Y, use_Etilde_t=not high)
    return NodeSeries(kt_sq, edge_sq, face_sq, coup, zp)


# ---------------------------------------------------------------------------
# the functional f and its Gronwall transform


def functional(s, rho, gamma, variant, dt, absolute_coupling=False):
    """The functional f at every node from a NodeSeries and nodal rho, gamma:

    f(t) = ||Ktilde||^2_mu(t) / (1-rho) + int (edge / gamma + face / (gamma rho)
           [+ 2 coup]) + z,
    with the coupling absolute-valued when absolute_coupling is set.
    """
    integrand = s.edge_sq / gamma + s.face_sq / (gamma * rho)
    if s.coup is not None:
        coup = np.abs(s.coup) if absolute_coupling else s.coup
        integrand = integrand + 2.0 * coup
    return s.kt_sq / (1.0 - rho) + cumulative_trapezoid(integrand, dt) + s.zp.value(variant)


def bound_b_and_B(f, gamma, dt, gamma_weighted_N=False):
    """Pointwise and integrated bounds from the functional f.

    b(t) = exp-weighted Gronwall integral of f plus f(t); B(t) bounds the
    time-integrated energy norm: the gamma-weighted integral itself for
    trajectory gamma, divided by the constant gamma otherwise.
    """
    f = np.asarray(f, dtype=float)
    nt = len(f)
    gam = _nodes_in_range(gamma, nt, "gamma", 0.0, np.inf)
    ewi = exp_weighted_cumulative(f, gam, dt)
    b = ewi + f
    B = ewi if gamma_weighted_N else ewi / gam
    return b, B


# ---------------------------------------------------------------------------
# true error norms (verification mode)


def true_error_norms(exact, approx, p, params, theorem="T5"):
    """Per-node energy error n and its cumulative integral N vs an exact output.

    For T1/T3 the first slot is the discrete time derivative of the error;
    for T4/T5 it is the Etilde_t error.  N is gamma-weighted exactly when
    the theorem uses trajectory weights (T3/T4).  Streams over the nodes.
    """
    g = p.grid
    rho = params.rho_nodes(g.nt)
    gam = params.gamma_nodes(g.nt)
    if theorem in ("T1", "T3"):
        first_approx = lambda k: _ddt_node(approx.Etilde.node, k, g)
    else:
        first_approx = approx.Etilde_t.node
    n = np.empty(g.nt)
    for k in range(g.nt):
        first_err = exact.Etilde_t.node(k) - first_approx(k)
        curl_err = curl_edge_to_face(exact.Etilde.node(k) - approx.Etilde.node(k), g)
        n[k] = (
            weighted_norm_sq(first_err, p.eps, g)
            + rho[k] * weighted_norm_sq(curl_err, p.mu_inv, g)
        )
    weight = gam if theorem in ("T3", "T4") else np.ones_like(gam)
    N = cumulative_trapezoid(weight * n, g.dt)
    return n, N


# ---------------------------------------------------------------------------
# certification


@dataclass
class MajorantReport:
    """Per-node bound values with optional true-error comparison."""

    theorem: str
    times: np.ndarray
    f: np.ndarray
    bound_b: np.ndarray
    bound_B: np.ndarray
    zero_value: float
    rho: np.ndarray
    gamma: np.ndarray
    zero_variant: str
    trueN: Optional[np.ndarray] = None
    trueBigN: Optional[np.ndarray] = None
    efficiency: Optional[np.ndarray] = None
    optimize_history: Optional[list] = None
    cg_iterations: Optional[int] = None


def certify(p, approx, params, theorem="T5", exact=None):
    """Assemble the majorant of the chosen theorem and optionally compare
    against an exact reference.

    T1: constant weights, high-regularity (discrete second time derivative).
    T3: trajectory weights, high-regularity.
    T4: trajectory weights, weak regularity (needs Etilde_t).
    T5: constant weights, weak regularity.

    The working memory beyond the inputs is a few node fields, whatever nt.
    """
    g = p.grid
    if theorem in ("T1", "T5") and not params.is_constant():
        raise PreconditionError(f"{theorem} requires constant rho and gamma")
    rho = params.rho_nodes(g.nt)
    gam = params.gamma_nodes(g.nt)
    s = series(p, approx, params.Y, theorem)
    f = functional(s, rho, gam, params.zero_variant, g.dt, params.absolute_coupling)
    gamma_weighted = theorem in ("T3", "T4")
    b, B = bound_b_and_B(f, gam, g.dt, gamma_weighted_N=gamma_weighted)
    if not np.isfinite(b).all():
        raise MaxboundError(f"{theorem} bound is not finite; no bound was certified")

    report = MajorantReport(
        theorem=theorem,
        times=g.times,
        f=f,
        bound_b=b,
        bound_B=B,
        zero_value=s.zp.value(params.zero_variant),
        rho=rho,
        gamma=gam,
        zero_variant=params.zero_variant,
    )
    if exact is not None:
        n, N = true_error_norms(exact, approx, p, params, theorem)
        report.trueN = n
        report.trueBigN = N
        scale = max(float(np.max(n)), float(np.max(b)), 1e-300)
        eff = np.full(g.nt, np.nan)
        ok = n > _EFFICIENCY_FLOOR * scale
        eff[ok] = b[ok] / n[ok]
        report.efficiency = eff
    return report


# ---------------------------------------------------------------------------
# combined electric + magnetic estimate


@dataclass
class CombinedReport:
    """First-order-system residuals and the combined two-field bound."""

    times: np.ndarray
    bound: np.ndarray           # 3 b + 2 ||f||^2_eps + 2 ||g||^2_mu
    electric_bound: np.ndarray  # b alone
    f_res_sq: np.ndarray
    g_res_sq: np.ndarray
    true_combined: Optional[np.ndarray] = None


def combined_estimate(p, approx, params, exact=None, theorem="T5"):
    """Bound for the combined error n_rho[e_t, e] + n_hat[h_t, h].

    Uses the first-order residuals f = F - Etilde_t + eps^-1 curl Htilde
    and g = G - Htilde_t - mu^-1 curl Etilde on top of the electric bound.
    """
    g = p.grid
    if approx.Htilde is None:
        raise PreconditionError("combined estimate requires the magnetic approximation")
    if theorem not in ("T4", "T5"):
        raise ParameterError("combined estimate uses the weak-regularity bounds (T4/T5)")
    Htilde_t = approx.Htilde_t
    if Htilde_t is None:
        Htilde_t = trajectory_derivative(approx.Htilde)

    report = certify(p, approx, params, theorem=theorem, exact=None)

    curl_H = curl_face_to_edge(approx.Htilde, g)
    f_res = p.F - approx.Etilde_t + apply_material_staggered(curl_H, p.eps_inv, g)
    g_res = p.G - Htilde_t - default_Y(p, approx)
    f_sq = norm_sq_trajectory(f_res, p.eps, g)
    g_sq = norm_sq_trajectory(g_res, p.mu, g)
    bound = 3.0 * report.bound_b + 2.0 * f_sq + 2.0 * g_sq

    true_combined = None
    if exact is not None:
        rho = params.rho_nodes(g.nt)
        n_e, _ = true_error_norms(exact, approx, p, params, theorem)
        h_err = exact.Htilde - approx.Htilde
        exact_Ht = exact.Htilde_t
        if exact_Ht is None:
            exact_Ht = trajectory_derivative(exact.Htilde)
        ht_err = exact_Ht - Htilde_t
        curl_h = curl_face_to_edge(h_err, g)
        n_h = rho * norm_sq_trajectory(ht_err, p.mu, g) + norm_sq_trajectory(curl_h, p.eps_inv, g)
        true_combined = n_e + n_h
    return CombinedReport(
        times=g.times,
        bound=bound,
        electric_bound=report.bound_b,
        f_res_sq=f_sq,
        g_res_sq=g_sq,
        true_combined=true_combined,
    )
