"""Minimization of the guaranteed bound over its free parameters.

Three layers: a golden-section scalar search over gamma (log-scaled) nested
in a coarse rho grid, a matrix-free conjugate-gradient minimization of the
bound as a convex quadratic in the stacked space-time free field Y, and an
alternating driver.  Every iterate of every layer is an admissible
parameter choice, so the bound stays guaranteed throughout; the objective
is the final-time bound value b(T) itself, which makes the alternation
monotone by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import MaxboundError, ParameterError
from .fields import FACE, FieldTrajectory
from .majorant import (
    MajorantParams,
    _check_theorem,
    _nodes_in_range,
    bound_b_and_B,
    certify,
    default_Y,
    functional,
    series,
)
from .operators import (
    apply_material_staggered,
    cumulative_trapezoid,
    curl_edge_to_face,
    curl_face_to_edge,
    ddt_matrix,
    gram_apply,
    trajectory_derivative,
    trapezoid_weights,
    zero_tangential,
)

_SMOOTH_VARIANTS = ("z", "z_hat")


@dataclass
class OptimizeConfig:
    """Search controls for the parameter optimization.

    gamma_bracket of length 2 is a golden-section bracket (log scale);
    longer sequences are treated as an explicit candidate grid.  y_init
    selects the starting free field: the natural choice mu^-1 curl(Etilde)
    or the zero trajectory.
    """

    gamma_bracket: Sequence[float] = (1e-3, 1e3)
    rho_grid: Sequence[float] = tuple(np.linspace(0.1, 0.9, 9))
    cg_max_iter: int = 200
    cg_tol: float = 1e-10
    y_init: str = "muInvCurlE"
    sweeps: int = 3
    gamma_tol: float = 1e-3
    gamma_pieces: int = 1

    def __post_init__(self):
        gb = tuple(float(v) for v in self.gamma_bracket)
        if len(gb) < 2 or any(v <= 0.0 for v in gb):
            raise ParameterError("gamma bracket/grid needs >= 2 positive values")
        if len(gb) == 2 and gb[0] >= gb[1]:
            raise ParameterError("gamma bracket must be ordered (lo, hi)")
        rg = tuple(float(v) for v in self.rho_grid)
        if not rg or any(not 0.0 < v < 1.0 for v in rg):
            raise ParameterError("rho grid values must lie in (0, 1)")
        if list(rg) != sorted(rg):
            raise ParameterError("rho grid must be ascending")
        if self.cg_max_iter < 1:
            raise ParameterError("cg_max_iter must be positive")
        if not 0.0 < self.cg_tol < 1.0 or not 0.0 < self.gamma_tol < 1.0:
            raise ParameterError("tolerances must lie in (0, 1)")
        if self.y_init not in ("zero", "muInvCurlE"):
            raise ParameterError(f"unknown y_init {self.y_init!r}")
        if self.sweeps < 0:
            raise ParameterError("sweeps must be nonnegative")
        if self.gamma_pieces < 1:
            raise ParameterError("gamma_pieces must be positive")
        self.gamma_bracket = gb
        self.rho_grid = rg


# ---------------------------------------------------------------------------
# scalar series: bound evaluation with Y fixed


def _bound_from_series(s, rho, gamma, variant, dt):
    """Final-node bound b(T) of a NodeSeries; the same assembly as certify."""
    b, _ = bound_b_and_B(functional(s, rho, gamma, variant, dt), gamma, dt)
    return float(b[-1])


# ---------------------------------------------------------------------------
# golden-section search


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo, hi, tol=1e-3, max_iter=200):
    """Minimize a scalar function on [lo, hi]; ties shrink toward lo.

    Returns (x, fn(x)) for the best point found.
    """
    if not lo < hi:
        raise ParameterError(f"empty bracket [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    it = 0
    while b - a > tol and it < max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        it += 1
    x = c if fc <= fd else d
    fx = fc if fc <= fd else fd
    fa, fb = fn(a), fn(b)
    for cand, fcand in ((a, fa), (b, fb)):
        if fcand < fx or (fcand == fx and cand < x):
            x, fx = cand, fcand
    return x, fx


def _search_gamma(obj, cfg):
    """Best gamma over the configured bracket or grid; warns at endpoints."""
    gb = cfg.gamma_bracket
    if len(gb) > 2:
        best_g, best_v = gb[0], obj(gb[0])
        for g in gb[1:]:
            v = obj(g)
            if v < best_v:
                best_g, best_v = g, v
        edge = best_g in (min(gb), max(gb))
        return best_g, best_v, edge
    llo, lhi = math.log(gb[0]), math.log(gb[1])
    x, v = golden_section(lambda u: obj(math.exp(u)), llo, lhi, tol=cfg.gamma_tol)
    edge = (x - llo) <= cfg.gamma_tol or (lhi - x) <= cfg.gamma_tol
    return math.exp(x), v, edge


def optimize_gamma_rho(p, approx, Y, cfg=None, theorem="T5", zero_variant="z_hat"):
    """Minimize the final-time bound over (gamma, rho) with Y fixed.

    Golden-section on log(gamma) nested in an ascending scan of the rho
    grid; ties resolve to the smallest gamma, then the smallest rho.  Y None
    stands for the default free field.  Returns (gamma, rho, bound value).
    """
    cfg = cfg if cfg is not None else OptimizeConfig()
    s = series(p, approx, Y, theorem)
    dt = p.grid.dt

    best = None
    best_edge = False
    for rho in cfg.rho_grid:
        g, v, edge = _search_gamma(
            lambda gam: _bound_from_series(s, rho, gam, zero_variant, dt), cfg
        )
        if best is None or v < best[2]:
            best = (g, rho, v)
            best_edge = edge
    if best_edge:
        warnings.warn(
            "gamma search selected a bracket endpoint; widen gamma_bracket, "
            "the optimum may lie outside",
            RuntimeWarning,
        )
    gamma, rho, value = best
    if cfg.gamma_pieces > 1 and theorem in ("T3", "T4"):
        gamma, value = _refine_gamma_pieces(s, rho, gamma, zero_variant, cfg, p.grid)
    return gamma, rho, value


def _refine_gamma_pieces(s, rho, gamma0, variant, cfg, grid):
    """Coordinate descent over a piecewise-constant gamma trajectory.

    Only meaningful for the theorems that admit time-dependent weights.
    Returns (gamma nodal array, bound value); never worse than the scalar
    start.
    """
    nt = grid.nt
    pieces = min(cfg.gamma_pieces, nt)
    edges = np.linspace(0, nt, pieces + 1).astype(int)
    vals = np.full(pieces, float(gamma0))

    def assemble(v):
        gam = np.empty(nt)
        for i in range(pieces):
            gam[edges[i] : edges[i + 1]] = v[i]
        return gam

    best_val = _bound_from_series(s, rho, assemble(vals), variant, grid.dt)
    for _ in range(2):
        for i in range(pieces):
            def obj(u, i=i):
                trial = vals.copy()
                trial[i] = math.exp(u)
                return _bound_from_series(s, rho, assemble(trial), variant, grid.dt)

            llo, lhi = math.log(cfg.gamma_bracket[0]), math.log(cfg.gamma_bracket[-1])
            x, v = golden_section(obj, llo, lhi, tol=cfg.gamma_tol)
            if v < best_val:
                vals[i] = math.exp(x)
                best_val = v
    return assemble(vals), best_val


# ---------------------------------------------------------------------------
# conjugate gradients on the quadratic-in-Y bound


def _per_node(w):
    """Nodal weights shaped to scale every dof of a trajectory component."""
    return w[:, None, None, None]


def _flatten(traj):
    return np.concatenate([c.ravel() for c in traj.components()])


def _unflatten(vec, grid):
    shapes = [(grid.nt,) + grid.shape(FACE, c) for c in ("x", "y", "z")]
    sizes = [int(np.prod(s)) for s in shapes]
    parts = np.split(vec, np.cumsum(sizes)[:-1])
    comps = [part.reshape(shape) for part, shape in zip(parts, shapes)]
    return FieldTrajectory(FACE, grid, *comps)


class BoundQuadratic:
    """The final-time bound b(T) as a convex quadratic in the stacked Y.

    Collapses the Gronwall-weighted time quadrature into fixed per-node
    weights so that value and Euclidean gradient evaluations are single
    passes over the trajectory.  Supports the smooth zero-term variants
    only (the absolute-valued one is not differentiable).
    """

    def __init__(self, p, approx, rho, gamma, theorem="T5", zero_variant="z_hat"):
        if zero_variant not in _SMOOTH_VARIANTS:
            raise ParameterError(
                f"Y-optimization needs a smooth zero-term variant, got {zero_variant!r}"
            )
        g = p.grid
        nt = g.nt
        _check_theorem(theorem, g, approx)
        self.p = p
        self.approx = approx
        self.grid = g
        self.theorem = theorem
        self.variant = zero_variant
        self.rho_n = _nodes_in_range(rho, nt, "rho", 0.0, 1.0)
        self.gam_n = _nodes_in_range(gamma, nt, "gamma", 0.0, np.inf)

        # Gronwall quadrature collapsed to per-node weights.
        tau = trapezoid_weights(nt, g.dt)
        big_gamma = cumulative_trapezoid(self.gam_n, g.dt)
        with np.errstate(over="ignore"):
            c = tau * np.exp(big_gamma[-1] - big_gamma) * self.gam_n
        if not np.all(np.isfinite(c)):
            raise MaxboundError(f"Gronwall weight exp(Gamma(T) - Gamma) overflows at "
                                f"Gamma(T) = {big_gamma[-1]:.6g}: the bound is not finite")
        c[-1] += 1.0
        self.Cz = float(c.sum())
        self.w_pt = c / (1.0 - self.rho_n)
        w_int = np.zeros(nt)
        for j in range(1, nt):
            w_int[: j + 1] += c[j] * trapezoid_weights(j + 1, g.dt)
        self.w_edge = w_int / self.gam_n
        self.w_face = w_int / (self.gam_n * self.rho_n)
        self.w_coup = w_int

        # The Y-independent pieces of the residuals and of the gradient.  K is
        # not folded into edge_base: gradient() subtracts it after adding
        # curl Y, the order that rounds like the per-node residual.
        self.D = ddt_matrix(nt, g.dt)
        self.M = apply_material_staggered(curl_edge_to_face(approx.Etilde, g), p.mu_inv, g)
        dE = trajectory_derivative(approx.Etilde, self.D)
        if theorem in ("T1", "T3"):
            self.edge_base = apply_material_staggered(
                trajectory_derivative(dE, self.D), p.eps, g
            )
            self.face_const = None  # residual is D applied to (M - Y) directly
            self.coupling_grad = None
        else:
            self.edge_base = apply_material_staggered(
                trajectory_derivative(approx.Etilde_t, self.D), p.eps, g
            )
            self.face_const = apply_material_staggered(
                curl_edge_to_face(approx.Etilde_t, g), p.mu_inv, g
            )
            coupling = curl_edge_to_face(approx.Etilde_t - dE, g)
            self.coupling_grad = gram_apply(coupling, None, g) * _per_node(2.0 * self.w_coup)
        curl_e0 = curl_edge_to_face(p.E0 - approx.Etilde.node(0), g)
        self.zero_grad = (2.0 * self.Cz) * gram_apply(curl_e0, None, g)

    def value(self, Y):
        s = series(self.p, self.approx, Y, self.theorem)
        return _bound_from_series(s, self.rho_n, self.gam_n, self.variant, self.grid.dt)

    def _face_residual(self, Y):
        if self.face_const is None:
            return trajectory_derivative(self.M - Y, self.D)
        return self.face_const - trajectory_derivative(Y, self.D)

    def gradient(self, Y):
        """Euclidean gradient of value() with respect to the Y dof values.

        One pass over whole trajectories; each node gets the same operations,
        in the same order, as a loop over the nodes would apply.
        """
        g = self.grid
        p = self.p
        mass = gram_apply(self.M - Y, p.mu, g)
        scaled = gram_apply(self._face_residual(Y), p.mu, g) * _per_node(self.w_face)
        e_res = self.edge_base + curl_face_to_edge(Y, g) - p.K
        ge = gram_apply(e_res, p.eps_inv, g)
        grad = (
            mass * _per_node(-2.0 * self.w_pt)
            + curl_edge_to_face(zero_tangential(ge), g) * _per_node(2.0 * self.w_edge)
            - 2.0 * trajectory_derivative(scaled, self.D.T)
        )
        if self.coupling_grad is not None:
            grad = grad - self.coupling_grad
        zero = self.zero_grad if self.variant == "z" else (2.0 * self.Cz) * mass.node(0)
        for comp, z in zip(grad.components(), zero.components()):
            comp[0] -= z
        return grad

    def gradient_flat(self, y_vec):
        return _flatten(self.gradient(_unflatten(y_vec, self.grid)))


def conjugate_gradient(apply_A, rhs, x0=None, tol=1e-10, max_iter=200, callback=None):
    """Solve A x = rhs for symmetric positive semidefinite A, matrix-free.

    Stops at relative residual tol or max_iter; a genuinely negative
    curvature direction (inconsistent with a convex objective) is a hard
    error.  Returns (x, iterations, relative residual).
    """
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    r = rhs - apply_A(x)
    d = r.copy()
    rs = float(r @ r)
    ref = math.sqrt(float(rhs @ rhs)) or 1.0
    it = 0
    while it < max_iter and math.sqrt(rs) > tol * ref:
        Ad = apply_A(d)
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            scale = float(np.linalg.norm(d)) * float(np.linalg.norm(Ad))
            if dAd < -1e-10 * max(scale, 1e-300):
                raise MaxboundError(
                    "conjugate gradients hit a negative-curvature direction; "
                    "the quadratic assembly is not positive semidefinite"
                )
            break  # null direction of a singular but consistent system
        alpha = rs / dAd
        x = x + alpha * d
        r = r - alpha * Ad
        rs_new = float(r @ r)
        it += 1
        if callback is not None:
            callback(x.copy(), it)
        d = r + (rs_new / rs) * d
        rs = rs_new
    return x, it, math.sqrt(rs) / ref


def optimize_Y(p, approx, gamma, rho, cfg=None, theorem="T5", zero_variant="z_hat",
               Y0=None, callback=None, info=None):
    """Minimize the final-time bound over the free field Y at fixed (gamma, rho).

    Conjugate gradients on the normal equations of the collapsed quadratic;
    the gradient is affine in Y, so the Hessian application is a gradient
    difference.  Returns the optimized FieldTrajectory; pass a dict as
    `info` to receive iteration counts, and a callback(Y, k) to observe
    iterates (each iterate is itself an admissible free field).
    """
    cfg = cfg if cfg is not None else OptimizeConfig()
    quad = BoundQuadratic(p, approx, rho, gamma, theorem, zero_variant)
    g = p.grid
    if Y0 is not None:
        y_start = _flatten(Y0)
    elif cfg.y_init == "zero":
        y_start = np.zeros(_flatten(FieldTrajectory.zeros(g, FACE)).shape)
    else:
        y_start = _flatten(default_Y(p, approx))

    grad0 = quad.gradient_flat(np.zeros_like(y_start))

    def apply_H(v):
        return quad.gradient_flat(v) - grad0

    rhs = -(quad.gradient_flat(y_start))

    def cb(delta, k):
        if callback is not None:
            callback(_unflatten(y_start + delta, g), k)

    delta, iters, rel_res = conjugate_gradient(
        apply_H, rhs, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter, callback=cb
    )
    if info is not None:
        info["iterations"] = iters
        info["relative_residual"] = rel_res
    return _unflatten(y_start + delta, g)


# ---------------------------------------------------------------------------
# alternating driver


def optimize_all(p, approx, cfg=None, theorem="T5", zero_variant="z_hat",
                 rho0=0.5, gamma0=1.0, exact=None):
    """Alternate Y- and (gamma, rho)-minimization for cfg.sweeps rounds.

    The objective is the bound itself, and every update is accepted only
    when it does not increase it, so the final bound never exceeds the
    bound at the initial parameters.  Returns the certification report at
    the optimized parameters, carrying the optimization history.
    """
    cfg = cfg if cfg is not None else OptimizeConfig()
    g = p.grid
    if cfg.y_init == "zero":
        Y = FieldTrajectory.zeros(g, FACE)
    else:
        Y = default_Y(p, approx)
    gamma, rho = float(gamma0), float(rho0)

    def bound_at(Y, gamma, rho):
        return _bound_from_series(series(p, approx, Y, theorem), rho, gamma, zero_variant, g.dt)

    current = bound_at(Y, gamma, rho)
    history = [current]
    cg_iters = 0
    for _ in range(cfg.sweeps):
        # at parameters where the bound overflows the quadratic in Y has no
        # finite weights; the (gamma, rho) step below moves away from them
        if math.isfinite(current):
            info = {}
            Y_new = optimize_Y(p, approx, gamma, rho, cfg, theorem, zero_variant,
                               Y0=Y, info=info)
            v_new = bound_at(Y_new, gamma, rho)
            if v_new <= current:
                Y, current = Y_new, v_new
                cg_iters += info.get("iterations", 0)
        g_new, r_new, v_par = optimize_gamma_rho(p, approx, Y, cfg, theorem, zero_variant)
        if v_par <= current:
            gamma, rho, current = g_new, r_new, v_par
        history.append(current)

    params = MajorantParams(rho=rho, gamma=gamma, Y=Y, zero_variant=zero_variant)
    report = certify(p, approx, params, theorem=theorem, exact=exact)
    report.optimize_history = history
    report.cg_iterations = cg_iters
    return report, params
