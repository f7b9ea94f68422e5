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

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import GridMismatchError, MaxboundError, ParameterError, PreconditionError
from .fields import EDGE, FACE, FieldTrajectory, StaggeredField
from .operators import (
    NodeWindow,
    apply_material_staggered,
    curl_edge_to_face,
    curl_face_to_edge,
    cumulative_trapezoid,
    ddt_node,
    exp_weighted_cumulative,
    nodes_in_range,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
)
from .solver import SolveOutput

# The two facts that set a theorem apart: derived_velocity, whether Etilde_t
# is read as dEtilde/dt (the high-regularity T1/T3, whose coupling
# <Ktilde, curl(Etilde_t - dEtilde/dt)> is then 0), and nodal_weights,
# whether rho and gamma may vary by node (T3/T4, whose N is gamma-weighted).
Theorem = namedtuple("Theorem", "derived_velocity nodal_weights")
THEOREMS = {"T1": Theorem(True, False), "T3": Theorem(True, True),
            "T4": Theorem(False, True), "T5": Theorem(False, False)}
ZERO_VARIANTS = ("z", "z_tilde", "z_hat")
_SMOOTH_VARIANTS = ("z", "z_hat")  # those a Y step can differentiate

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

    def __post_init__(self):
        if self.zero_variant not in ZERO_VARIANTS:
            raise ParameterError(f"unknown zero-term variant {self.zero_variant!r}")

    def rho_nodes(self, nt):
        return nodes_in_range(self.rho, nt, "rho", 0.0, 1.0)

    def gamma_nodes(self, nt):
        return nodes_in_range(self.gamma, nt, "gamma", 0.0)

    def is_constant(self):
        return np.ndim(self.rho) == 0 and np.ndim(self.gamma) == 0


@dataclass
class Residuals:
    """Residual trajectories of the approximation against the curl-curl system,
    Etilde_t being dEtilde/dt for T1/T3:

    Ktilde (face): mu^-1 curl Etilde - Y
    Kcheck (edge): eps dEtilde_t/dt + curl Y - K
    Rt     (face): mu^-1 curl Etilde_t - dY/dt
    coupling_curl (face): curl(Etilde_t - dEtilde/dt), None for T1/T3,
    where it is 0
    """

    Ktilde: FieldTrajectory
    Kcheck: FieldTrajectory
    Rt: FieldTrajectory
    coupling_curl: Optional[FieldTrajectory]


def mu_inv_curl(p, e, out=None):
    """mu^-1 curl e of an edge field or a whole edge trajectory, into out
    when it is given."""
    curl = curl_edge_to_face(e, p.grid, out)
    return apply_material_staggered(curl, p.mu_inv, p.grid, curl)


def default_Y(p, approx):
    """The natural free-field choice mu^-1 curl(Etilde)."""
    return mu_inv_curl(p, approx.Etilde.load())


def _check_Y(Y, grid):
    if Y.kind != FACE:
        raise GridMismatchError("Y must be a face-type trajectory")
    if Y.grid.nt != grid.nt:
        raise GridMismatchError(f"Y has {Y.grid.nt} nodes, problem has {grid.nt}")


def residuals(p, approx, Y, theorem):
    """The residual trajectories of the theorem for the given free field Y;
    the Y-optimizer's gradient reads them."""
    g = p.grid
    derived = _check_theorem(theorem, g, approx).derived_velocity
    _check_Y(Y, g)
    approx, Y = loaded(approx, theorem, g), Y.load()
    Ktilde = mu_inv_curl(p, approx.Etilde) - Y
    curl_Y = curl_face_to_edge(Y, g)
    dE = trajectory_derivative(approx.Etilde)
    Et = dE if derived else approx.Etilde_t
    Kcheck = apply_material_staggered(trajectory_derivative(Et), p.eps, g) + curl_Y
    for k in range(g.nt):  # K is made node by node
        Kcheck.node(k).apply(np.subtract, p.K.node(k), Kcheck.node(k))
    Rt = mu_inv_curl(p, Et) - trajectory_derivative(Y)
    coupling_curl = None if derived else curl_edge_to_face(Et - dE, g)
    return Residuals(Ktilde, Kcheck, Rt, coupling_curl)


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


def zero_term_parts(p, approx, Y, theorem="T5"):
    """Initial-condition error contributions, computable from given data only.

    curl e(0) = curl E0 - curl Etilde(0); the first slot error is
    E0' - Etilde_t(0), both nodes 0 read through _velocity_windows.  Y None
    stands for the default free field, for which Ktilde(0) = 0.
    """
    g = p.grid
    E, _, Et = _velocity_windows(approx, theorem, g)
    et0_err = p.E0prime - Et(0)
    curl_e0 = curl_edge_to_face(p.E0 - E(0), g)
    m0 = mu_inv_curl(p, E(0))
    ktilde0 = m0 - (m0 if Y is None else Y.node(0))
    return ZeroTermParts(
        et0_sq=weighted_norm_sq(et0_err, p.eps, g),
        curl_e0_sq=weighted_norm_sq(curl_e0, p.mu_inv, g),
        cross=weighted_inner(ktilde0, curl_e0, None, g),
        ktilde0_sq=weighted_norm_sq(ktilde0, p.mu, g),
    )


# ---------------------------------------------------------------------------
# the per-node series, in one pass over the time nodes


@dataclass
class NodeSeries:
    """Per-node residual norms whose weighted combination is the functional f.

    kt_sq is ||Ktilde||^2_mu, edge_sq ||Kcheck||^2_{eps^-1}, face_sq
    ||Rt||^2_mu and coup <Ktilde, curl(Etilde_t - dEtilde/dt)> (see
    Residuals); coup is 0 for T1/T3, whose Etilde_t is dEtilde/dt.
    error_sq, given an exact reference, holds ||e_t||^2_eps and
    ||curl e||^2_{mu^-1} at every node (see true_error_norms), else None.
    """

    kt_sq: np.ndarray
    edge_sq: np.ndarray
    face_sq: np.ndarray
    coup: np.ndarray
    zp: ZeroTermParts
    error_sq: Optional[tuple] = None


def _check_theorem(theorem, grid, approx):
    """The Theorem that THEOREMS names, once approx and grid meet it."""
    if not isinstance(theorem, str) or theorem not in THEOREMS:
        raise ParameterError(f"unknown theorem {theorem!r}; choose from {tuple(THEOREMS)}")
    th = THEOREMS[theorem]
    if th.derived_velocity and grid.nt < 5:
        raise PreconditionError(f"{theorem} needs nt >= 5 for second time differences")
    if grid.nt < 3:
        raise PreconditionError(f"{theorem} needs nt >= 3 for time differences")
    if not th.derived_velocity and approx.Etilde_t is None:
        raise PreconditionError(f"{theorem} requires the Etilde_t trajectory")
    return th


class _Work:
    """The node buffers of one pass: two edge and two face fields, a cell array."""

    def __init__(self, grid):
        self.edge, self.edge2 = (StaggeredField.zeros(grid, EDGE) for _ in range(2))
        self.face, self.face2 = (StaggeredField.zeros(grid, FACE) for _ in range(2))
        self.cells = np.zeros((grid.nx, grid.ny, grid.nz, 3))


def series(p, approx, Y, theorem, exact=None):
    """The theorem's per-node series in one pass over the time nodes.

    Every node sees the operations of `residuals` followed by a spatial
    norm, but only three nodes of Etilde, Y, Ktilde, Etilde_t and
    dEtilde/dt are held (for T1/T3 the last two are one), each input node
    is read once, and the residuals go into buffers made once per call.
    Y None stands for the default free field mu^-1 curl Etilde, built node
    by node; Ktilde is then zero, and kt_sq and the coupling are left at
    0.0 uncomputed, as the coupling of T1/T3 always is.  Given an exact
    reference, the pass takes the true-error norms of every node too.
    """
    g = p.grid
    E, dE, Et = _velocity_windows(approx, theorem, g)
    if Y is not None:
        _check_Y(Y, g)
    nt = g.nt
    work = _Work(g)
    M = NodeWindow(lambda j, out: mu_inv_curl(p, E(j), out))
    Yw = M if Y is None else NodeWindow(lambda j, _: Y.node(j))
    Kt = NodeWindow(lambda j, out: M(j).apply(np.subtract, Yw(j), out))

    # before the loop: on top of full windows its node fields made the pass's peak
    zp = zero_term_parts(p, approx, Y, theorem)
    kt_sq, edge_sq, face_sq, coup = (np.zeros(nt) for _ in range(4))
    error_sq = None if exact is None else (np.zeros(nt), np.zeros(nt))
    for k in range(nt):
        # the true error first: its node k of Etilde has not yet left the window
        if exact is not None:
            _error_node(p, exact, E, Et, k, work, error_sq)
        if Y is not None:
            kt_sq[k] = weighted_norm_sq(Kt(k), p.mu, g, work.cells)
        Yk = Yw(k)  # made before the derivatives below move the Etilde window on
        edge = ddt_node(Et, k, g, work.edge, work.edge2)
        apply_material_staggered(edge, p.eps, g, edge)
        edge += curl_face_to_edge(Yk, g, work.edge2)
        edge -= p.K.node(k)
        edge_sq[k] = weighted_norm_sq(edge, p.eps_inv, g, work.cells)
        dY = ddt_node(Yw, k, g, work.face2, work.face)
        face = mu_inv_curl(p, Et(k), work.face)
        face -= dY
        face_sq[k] = weighted_norm_sq(face, p.mu, g, work.cells)
        if Y is not None and Et is not dE:  # else the coupling curl is 0
            diff = Et(k).apply(np.subtract, dE(k), work.edge)
            coupling_curl = curl_edge_to_face(diff, g, work.face)
            coup[k] = weighted_inner(Kt(k), coupling_curl, None, g, work.cells)
    return NodeSeries(kt_sq, edge_sq, face_sq, coup, zp, error_sq)


def _velocity_windows(approx, theorem, grid):
    """The windows of Etilde, dEtilde/dt and the theorem's Etilde_t, the one
    choice of a node read's velocity: dEtilde/dt for derived_velocity (T1/T3)."""
    derived = _check_theorem(theorem, grid, approx).derived_velocity
    E = NodeWindow(lambda j, _: approx.Etilde.node(j))
    dE = NodeWindow(lambda j, out: ddt_node(E, j, grid, out))
    return E, dE, dE if derived else NodeWindow(lambda j, _: approx.Etilde_t.node(j))


def loaded(approx, theorem, grid):
    """approx's Etilde, and its Etilde_t unless the theorem reads dEtilde/dt, as
    whole trajectories once they meet the theorem: the Y-optimizer's input."""
    derived = _check_theorem(theorem, grid, approx).derived_velocity
    return SolveOutput(approx.Etilde.load(), None, None if derived else approx.Etilde_t.load())


def _error_node(p, exact, E, Et, k, work, error_sq):
    """Node k of the true-error norms ||e_t||^2_eps and ||curl e||^2_{mu^-1}
    into the two arrays error_sq, from the windows E and Et, through the
    buffers of work."""
    g = p.grid
    first = exact.Etilde_t.node(k).apply(np.subtract, Et(k), work.edge)
    error_sq[0][k] = weighted_norm_sq(first, p.eps, g, work.cells)
    diff = exact.Etilde.node(k).apply(np.subtract, E(k), work.edge)
    curl_err = curl_edge_to_face(diff, g, work.face)
    error_sq[1][k] = weighted_norm_sq(curl_err, p.mu_inv, g, work.cells)


def error_series(p, approx, exact, theorem):
    """The true-error norms of series(p, approx, Y, theorem, exact).error_sq,
    bit for bit, in a pass that takes no residual: the error block of
    series, node by node, in the same windows."""
    g = p.grid
    E, _, Et = _velocity_windows(approx, theorem, g)
    work = _Work(g)
    error_sq = (np.zeros(g.nt), np.zeros(g.nt))
    for k in range(g.nt):
        _error_node(p, exact, E, Et, k, work, error_sq)
    return error_sq


def residual_series(p, approx, Y, theorem):
    """series(p, approx, Y, theorem) for an explicit Y, bit for bit, from the
    whole trajectories of one residuals call, each norm taken at every node
    in one call: for a caller that holds whole trajectories already, at the
    memory of a few of them.  Returns the NodeSeries and the Residuals."""
    g = p.grid
    res = residuals(p, approx, Y, theorem)
    coup = (np.zeros(g.nt) if res.coupling_curl is None
            else weighted_inner(res.Ktilde, res.coupling_curl, None, g))
    return NodeSeries(weighted_norm_sq(res.Ktilde, p.mu, g),
                      weighted_norm_sq(res.Kcheck, p.eps_inv, g),
                      weighted_norm_sq(res.Rt, p.mu, g), coup,
                      zero_term_parts(p, approx, Y, theorem)), res


# ---------------------------------------------------------------------------
# the functional f and its Gronwall transform


def functional(s, rho, gamma, variant, dt):
    """The functional f at every node from a NodeSeries and nodal rho, gamma:

    f(t) = ||Ktilde||^2_mu(t) / (1-rho) + int (edge / gamma + face / (gamma rho)
           + 2 coup) + z.
    rho and gamma may carry leading candidate axes (a trailing axis of
    length 1 holds a weight constant in time); f then has one row per
    candidate.
    """
    integrand = s.edge_sq / gamma + s.face_sq / (gamma * rho) + 2.0 * s.coup
    return s.kt_sq / (1.0 - rho) + cumulative_trapezoid(integrand, dt) + s.zp.value(variant)


def bound_b_and_B(f, gamma, dt, gamma_weighted_N=False):
    """Pointwise and integrated bounds from the functional f.

    b(t) = exp-weighted Gronwall integral of f plus f(t); B(t) bounds the
    time-integrated energy norm: the gamma-weighted integral itself for
    trajectory gamma, divided by the constant gamma otherwise.  f and
    gamma may carry leading candidate axes, as functional gives them.
    """
    f = np.asarray(f, dtype=float)
    ewi = exp_weighted_cumulative(f, gamma, dt)
    b = ewi + f
    B = ewi if gamma_weighted_N else ewi / gamma
    return b, B


def final_bound(s, rho, gamma, variant, dt):
    """b(T) of a NodeSeries by certify's assembly, for nodal rho and gamma
    or for candidates of them on leading axes (see functional): one value
    per candidate."""
    return bound_b_and_B(functional(s, rho, gamma, variant, dt), gamma, dt)[0][..., -1]


def final_bound_weights(gamma, dt):
    """The weights of b(T), linear in the functional at fixed nodal gamma:
    (c, w_int) with b(T) = sum_k c_k f_k, c_k being b(T) of the unit
    functional at node k, and w_int = cumulative_trapezoid(I) c the weight
    of node j of f's integrand.  Both come from the assembly's own kernels
    run on the identity stack; c_k is +inf where its true value overflows.
    """
    eye = np.eye(len(gamma))
    c = bound_b_and_B(eye, gamma, dt)[0][:, -1]
    with np.errstate(invalid="ignore"):  # inf * 0 where c overflows
        return c, cumulative_trapezoid(eye, dt) @ c


# ---------------------------------------------------------------------------
# true error norms (verification mode)


def true_error_norms(exact, approx, p, params, theorem="T5"):
    """Per-node energy error n and its cumulative integral N vs an exact output.

    The first slot is the error of Etilde_t, which is dEtilde/dt for
    T1/T3.  N is gamma-weighted exactly when the theorem uses trajectory
    weights (T3/T4).  The norms are those certify reports, from the error
    block of its pass alone (error_series).
    """
    th, rho, gam = _checked_weights(p, approx, params, theorem)
    error_sq = error_series(p, approx, exact, theorem)
    return _error_norms(error_sq, rho, gam, th.nodal_weights, p.grid.dt)


def _error_norms(error_sq, rho, gam, nodal_weights, dt):
    """n = ||e_t||^2_eps + rho ||curl e||^2_{mu^-1} per node from the two
    norms of NodeSeries.error_sq, and N, gamma-weighted for nodal_weights."""
    first_sq, curl_sq = error_sq
    n = first_sq + rho * curl_sq
    weight = gam if nodal_weights else np.ones_like(gam)
    return n, cumulative_trapezoid(weight * n, dt)


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
    cg_sweeps: Optional[list] = None

    @property
    def cg_iterations(self):
        """CG iterations of the accepted Y steps; None outside optimize_all."""
        if self.cg_sweeps is None:
            return None
        return sum(s["iterations"] for s in self.cg_sweeps if s and s["accepted"])


def certify(p, approx, params, theorem="T5", exact=None):
    """Assemble the majorant of the chosen theorem and optionally compare
    against an exact reference.

    T5: constant weights, weak regularity (reads Etilde_t).
    T4: trajectory weights, weak regularity.
    T1: T5 with Etilde_t read as dEtilde/dt (high regularity), so that
        the coupling term is 0.
    T3: T4 with Etilde_t read as dEtilde/dt.

    One streamed series pass, then report_from_series.  The working memory
    beyond the inputs is a few node fields, whatever nt.
    """
    _checked_weights(p, approx, params, theorem)  # before the pass
    s = series(p, approx, params.Y, theorem, exact)
    return report_from_series(p, approx, params, theorem, s)


def _checked_weights(p, approx, params, theorem, y_step=False):
    """The Theorem and nodal rho and gamma of a bound: every entry point's
    admission, before any pass, load or probe.  In order, it refuses what
    _check_theorem refuses, nodal weights under T1/T5, rho or gamma out of
    range, and a zero term a due Y step cannot differentiate
    (MajorantParams refuses an unknown variant)."""
    g = p.grid
    th = _check_theorem(theorem, g, approx)
    if not th.nodal_weights and not params.is_constant():
        raise PreconditionError(f"{theorem} requires constant rho and gamma")
    rho, gam = params.rho_nodes(g.nt), params.gamma_nodes(g.nt)
    if y_step and params.zero_variant not in _SMOOTH_VARIANTS:
        raise ParameterError("Y-optimization needs a smooth zero-term variant, "
                             f"got {params.zero_variant!r}")
    return th, rho, gam


def report_from_series(p, approx, params, theorem, s):
    """certify's report from the NodeSeries s of params.Y: f, b and B, the
    refusal of a b that is not finite or is negative, and, when s carries
    error_sq, the true-error norms and the efficiency.  certify, the
    optimizer and the CLI's parameter search all report through it."""
    g = p.grid
    th, rho, gam = _checked_weights(p, approx, params, theorem)
    f = functional(s, rho, gam, params.zero_variant, g.dt)
    b, B = bound_b_and_B(f, gam, g.dt, gamma_weighted_N=th.nodal_weights)
    if not np.isfinite(b).all():
        raise MaxboundError(f"{theorem} bound is not finite; no bound was certified")
    if np.any(b < 0.0):
        raise MaxboundError(f"{theorem} bound is negative (min b = {float(b.min()):.17g})"
                            "; no bound was certified")

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
    if s.error_sq is not None:
        n, N = _error_norms(s.error_sq, rho, gam, th.nodal_weights, g.dt)
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
    An exact reference, when given, must hold Htilde too.
    """
    g = p.grid
    if approx.Htilde is None:
        raise PreconditionError("combined estimate requires the magnetic approximation")
    if exact is not None and exact.Htilde is None:
        raise PreconditionError("combined estimate requires the magnetic exact reference")
    th, rho, _ = _checked_weights(p, approx, params, theorem)
    if th.derived_velocity:
        raise ParameterError("combined estimate uses the weak-regularity bounds (T4/T5)")

    report = certify(p, approx, params, theorem=theorem, exact=exact)

    electric = loaded(approx, theorem, g)
    Htilde, Htilde_t = _magnetic(approx)
    curl_H = curl_face_to_edge(Htilde, g)
    f_res = p.F.load() - electric.Etilde_t + apply_material_staggered(curl_H, p.eps_inv, g)
    g_res = p.G.load() - Htilde_t - default_Y(p, electric)
    f_sq = weighted_norm_sq(f_res, p.eps, g)
    g_sq = weighted_norm_sq(g_res, p.mu, g)
    bound = 3.0 * report.bound_b + 2.0 * f_sq + 2.0 * g_sq

    true_combined = None
    if exact is not None:
        exact_H, exact_Ht = _magnetic(exact)
        curl_h = curl_face_to_edge(exact_H - Htilde, g)
        n_h = (rho * weighted_norm_sq(exact_Ht - Htilde_t, p.mu, g)
               + weighted_norm_sq(curl_h, p.eps_inv, g))
        true_combined = report.trueN + n_h
    return CombinedReport(
        times=g.times,
        bound=bound,
        electric_bound=report.bound_b,
        f_res_sq=f_sq,
        g_res_sq=g_sq,
        true_combined=true_combined,
    )


def _magnetic(fields):
    """fields' whole Htilde and Htilde_t, dHtilde/dt where it holds no Htilde_t."""
    H = fields.Htilde.load()
    return H, trajectory_derivative(H) if fields.Htilde_t is None else fields.Htilde_t.load()
