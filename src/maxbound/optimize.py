"""Minimization of the guaranteed bound over its free parameters.

Three layers: golden-section searches over gamma (log-scaled), one per
value of a coarse rho grid, run in lockstep; a matrix-free
conjugate-gradient minimization of the bound as a convex quadratic in the
stacked space-time free field Y, run in a scaled time eigenbasis where its
Hessian is block diagonal with one CG per block; and an alternating driver
that takes one residual assembly per free field it visits.
Every iterate of every layer is an admissible parameter choice, so the
bound stays guaranteed throughout; the objective is the final-time bound
value b(T) itself, which makes the alternation monotone by construction.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import MaxboundError, ParameterError
from .fields import EDGE, FACE, FieldTrajectory, StaggeredField
from .majorant import (
    MajorantParams,
    _checked_weights,
    default_Y,
    error_series,
    final_bound,
    final_bound_weights,
    loaded,
    report_from_series,
    residual_series,
    residuals,
    series,
)
from .operators import (
    curl_edge_to_face,
    curl_face_to_edge,
    ddt_stencil,
    gram_apply,
    trajectory_derivative,
    zero_tangential,
)

# A block of the Y solve stops once _STALL_WINDOW of its CG steps together
# lower b(T) by no more than _Y_STALL_RTOL / nt of its starting value, so
# all nt blocks by no more than _Y_STALL_RTOL: the residual stalls far
# above cg_tol (the Hessian is singular), while b(T) settles.
_STALL_WINDOW = 10
_Y_STALL_RTOL = 1e-5


class _Unformable(MaxboundError):
    """A Y step whose quadratic cannot be formed in floating point: Gronwall
    weights that overflow, or a time basis that is not positive definite,
    where b(T) itself may be finite.  optimize_all skips such a step."""


@dataclass
class OptimizeConfig:
    """Search controls for the parameter optimization.

    gamma_bracket is the golden-section bracket (lo, hi) of the gamma
    search, on a log scale.  cg_tol bounds the relative residual of each
    block of a Y solve in the scaled time eigenbasis it runs in; a report's
    cg_sweeps[*].relative_residual gives it over all blocks,
    |r^| / |b^| = sqrt(r.P^-1 r / rhs.P^-1 rhs) (see conjugate_gradient).
    cg_max_iter caps the lockstep steps of a Y solve.
    """

    gamma_bracket: Sequence[float] = (1e-3, 1e3)
    cg_max_iter: int = 200
    cg_tol: float = 1e-10
    sweeps: int = 3

    def __post_init__(self):
        gb = tuple(float(v) for v in self.gamma_bracket)
        if len(gb) != 2 or not 0.0 < gb[0] < gb[1] < math.inf:
            raise ParameterError("gamma bracket must be two finite values 0 < lo < hi")
        for name, least in (("cg_max_iter", 1), ("sweeps", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise ParameterError(f"{name} must be an integer >= {least}, got {v!r}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ParameterError("cg_tol must lie in (0, 1)")
        self.gamma_bracket = gb


# ---------------------------------------------------------------------------
# golden-section search


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo, hi, tol=1e-3, max_iter=200):
    """Minimize independent scalar functions, each on its bracket [lo, hi],
    by golden-section searches run in lockstep; ties shrink toward lo.

    lo and hi broadcast to the shape of the searches, and fn maps an array
    of that shape, one point per search, to the array of their values.
    Each search takes the steps, stopping rule and tie-breaks of a scalar
    search of its own, which is the case of scalar lo and hi: it stops once
    its bracket is no wider than tol, or after max_iter steps, and the
    values fn gives it afterwards go unread.

    Returns (x, fn(x)) for the best point of each search: arrays in the
    shape of the searches, scalars for scalar lo and hi.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    if not np.all(a < b):
        raise ParameterError(f"empty bracket [{lo}, {hi}]")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    it = 0
    active = b - a > tol
    while active.any() and it < max_iter:
        left = active & (fc <= fd)
        right = active & ~(fc <= fd)
        # left: b, d, fd = d, c, fc and c is the new point;
        # right: a, c, fc = c, d, fd and d is the new point
        b, d, fd, a, c, fc = (np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd),
                              np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc))
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = fn(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        it += 1
        active &= b - a > tol
    x = np.where(fc <= fd, c, d)
    fx = np.where(fc <= fd, fc, fd)
    fa, fb = fn(a), fn(b)
    for cand, fcand in ((a, fa), (b, fb)):
        better = (fcand < fx) | ((fcand == fx) & (cand < x))
        x, fx = np.where(better, cand, x), np.where(better, fcand, fx)
    return x[()], fx[()]


# gamma = exp(u) of each candidate by math.exp, which numpy's exp need not
# match to the last bit
_exp = np.vectorize(math.exp, otypes=[float])
_RHO_GRID = np.linspace(0.1, 0.9, 9)  # the rho values searched
_GAMMA_TOL = 1e-3  # the width in log(gamma) at which a gamma search stops


def optimize_gamma_rho(p, approx, Y, cfg=None, theorem="T5", zero_variant="z_hat"):
    """Minimize the final-time bound over (gamma, rho) with Y fixed.

    Golden-section on log(gamma) for every value of the rho grid, in
    lockstep; ties resolve to the smallest gamma, then the smallest rho.  Y
    None stands for the default free field.  Returns (gamma, rho, bound
    value).
    """
    cfg = cfg if cfg is not None else OptimizeConfig()
    params = MajorantParams(zero_variant=zero_variant)
    _checked_weights(p, approx, params, theorem)
    return _search_gamma_rho(series(p, approx, Y, theorem), cfg, zero_variant, p.grid)


def certify_gamma_rho(p, approx, cfg=None, theorem="T5", zero_variant="z_hat", exact=None):
    """certify at the (gamma, rho) that optimize_gamma_rho picks for the
    default free field, from one series pass: the search and the report
    read the same NodeSeries, which (gamma, rho) do not change.  Returns
    the report and its MajorantParams."""
    cfg = cfg if cfg is not None else OptimizeConfig()
    params = MajorantParams(zero_variant=zero_variant)
    _checked_weights(p, approx, params, theorem)
    s = series(p, approx, None, theorem, exact)
    gamma, rho, _ = _search_gamma_rho(s, cfg, zero_variant, p.grid)
    params = replace(params, rho=rho, gamma=gamma)
    return report_from_series(p, approx, params, theorem, s), params


def _search_gamma_rho(s, cfg, zero_variant, grid):
    """optimize_gamma_rho on the NodeSeries s of its Y, which (gamma, rho)
    do not change: one gamma search per rho of _RHO_GRID, in one lockstep call."""

    def bound(u):
        # row i of the log(gamma) candidates goes with _RHO_GRID[i]; time is the last axis
        rho = _RHO_GRID.reshape(_RHO_GRID.shape + (1,) * u.ndim)
        return final_bound(s, rho, _exp(u)[..., None], zero_variant, grid.dt)

    llo, lhi = (math.log(v) for v in cfg.gamma_bracket)
    x, values = golden_section(bound, np.full(len(_RHO_GRID), llo), lhi, tol=_GAMMA_TOL)
    i = int(np.argmin(values))
    if x[i] - llo <= _GAMMA_TOL or lhi - x[i] <= _GAMMA_TOL:
        warnings.warn(
            "gamma search selected a bracket endpoint; widen gamma_bracket, "
            "the optimum may lie outside",
            RuntimeWarning,
        )
    return float(_exp(x[i])), float(_RHO_GRID[i]), float(values[i])


# ---------------------------------------------------------------------------
# conjugate gradients on the quadratic-in-Y bound


def _per_node(w):
    """Nodal weights shaped to scale every dof of a trajectory component."""
    return w[:, None, None, None]


# A Y vector is an nt x face-dof array of rows: row k holds the x, y and z
# face dofs of time node k in turn, and in the scaled time eigenbasis row j
# holds eigen-block j, so that a time operator is one nt x nt matmul and
# each block of the Hessian acts on one row.


def _flatten(traj):
    """The rows of a face trajectory, as a new array."""
    return np.concatenate([c.reshape(len(c), -1) for c in traj.components()], axis=1)


def _unflatten(rows, grid, kind=FACE):
    """The field of this kind whose components are views of the rows (or
    of the rows raveled): a trajectory with one node per row, or for a
    single row a StaggeredField (a GridSpec has nt >= 2)."""
    shapes = [grid.shape(kind, c) for c in ("x", "y", "z")]
    rows = np.reshape(rows, (-1, sum(math.prod(shape) for shape in shapes)))
    m = len(rows)
    lead = (m,) if m > 1 else ()
    comps, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        comps.append(rows[:, lo:hi].reshape(lead + shape))
        lo = hi
    if m == 1:
        return StaggeredField(kind, *comps)
    return FieldTrajectory(kind, grid if grid.nt == m else replace(grid, nt=m), *comps)


# Same-colour dofs of a comb are three apart along some axis, so the cells
# that any one of them reaches through gram_apply, or through curl,
# gram_apply and the adjoint curl (its own cells and their face neighbours),
# are reached by no other: each value read back is the unit-vector probe's.
_COMB_OFFSETS = tuple(itertools.product(range(3), repeat=3))


def _comb_diagonals(ops, grid):
    """The diagonals of symmetric operators op(u, grid) on face fields, in
    the dof order of a Y row, probed with combs: every third dof along each axis
    of one component, all 27 offsets of a component in one batched call
    (the probes stand on the leading axis of a trajectory)."""
    probe_grid = replace(grid, nt=len(_COMB_OFFSETS))
    diags = [StaggeredField.zeros(grid, FACE) for _ in ops]
    for c in range(3):
        u = FieldTrajectory.zeros(probe_grid, FACE)
        comb = u.components()[c]
        for n, (i, j, k) in enumerate(_COMB_OFFSETS):
            comb[n, i::3, j::3, k::3] = 1.0
        for op, diag in zip(ops, diags):
            out = op(u, probe_grid).components()[c]
            for n, (i, j, k) in enumerate(_COMB_OFFSETS):
                diag.components()[c][i::3, j::3, k::3] = out[n, i::3, j::3, k::3]
    return [np.concatenate([comp.ravel() for comp in d.components()]) for d in diags]


def _curl_curl(p, u, grid, out=None, edge=None, work=None):
    """C^T Z G_eps^-1 Z C u for a face field or trajectory u, where C is
    curl_face_to_edge, Z zeroes the tangential edges and G_w is gram_apply
    with weight w; through the edge field edge and the kernels' flat work
    when they are given."""
    edge = curl_face_to_edge(u, grid, edge, work)
    gram_apply(edge, p.eps_inv, grid, edge, work)
    return curl_edge_to_face(zero_tangential(edge), grid, out, work)


def spatial_diagonals(p):
    """The diagonals of G_mu and of K = C^T Z G_eps^-1 Z C (_curl_curl),
    over the face dofs in the order of a Y row.

    The Hessian of BoundQuadratic is 2 [T1 (x) G_mu + diag(w_edge) (x) K];
    only its nt x nt time matrices depend on (gamma, rho), so these
    diagonals serve every Y solve on p.
    """
    return _comb_diagonals([lambda u, grid: gram_apply(u, p.mu, grid),
                            lambda u, grid: _curl_curl(p, u, grid)], p.grid)


class BoundQuadratic:
    """The final-time bound b(T) as a convex quadratic in the stacked Y.

    Collapses the Gronwall-weighted time quadrature into the per-node
    weights of b(T) that majorant.final_bound_weights derives from the
    bound's own assembly, so that a Euclidean gradient evaluation is a
    single pass over the trajectory, and into the nt x nt time matrix T1 of
    the Hessian (see spatial_diagonals).  Supports the smooth zero-term
    variants only (the absolute-valued one is not differentiable); it admits
    what certify admits (majorant._checked_weights) before any load.
    """

    def __init__(self, p, approx, rho, gamma, theorem="T5", zero_variant="z_hat"):
        params = MajorantParams(rho=rho, gamma=gamma, zero_variant=zero_variant)
        _, self.rho_n, self.gam_n = _checked_weights(p, approx, params, theorem, y_step=True)
        g = p.grid
        nt = g.nt
        self.p = p
        self.approx = loaded(approx, theorem, g)
        self.grid = g
        self.theorem = theorem
        self.variant = zero_variant

        # b(T) = sum_k c_k f_k, f's integrand weighted by w_int
        c, w_int = final_bound_weights(self.gam_n, g.dt)
        if not (np.isfinite(c).all() and np.isfinite(w_int).all()):
            raise _Unformable("a Gronwall weight of b(T) overflows: the bound is not finite")
        self.Cz = float(c.sum())
        self.w_pt = c / (1.0 - self.rho_n)
        self.w_edge = w_int / self.gam_n
        self.w_face = w_int / (self.gam_n * self.rho_n)
        self.w_coup = w_int

        # The time matrix T1 = diag(w_pt) + D^T diag(w_face) D, plus Cz at
        # (0, 0) for z_hat: row k of D adds w_face[k] w w^T on the three
        # nodes of its stencil w.
        self.t1 = np.diag(self.w_pt)
        for k in range(nt):
            lo, w = ddt_stencil(nt, g.dt, k)
            self.t1[lo : lo + 3, lo : lo + 3] += self.w_face[k] * np.outer(w, w)
        if zero_variant == "z_hat":
            self.t1[0, 0] += self.Cz

        curl_e0 = curl_edge_to_face(p.E0 - self.approx.Etilde.node(0), g)
        self.zero_grad = (2.0 * self.Cz) * gram_apply(curl_e0, None, g)

    def value(self, Y):
        s, _ = residual_series(self.p, self.approx, Y, self.theorem)
        return float(final_bound(s, self.rho_n, self.gam_n, self.variant, self.grid.dt))

    def gradient(self, Y, res=None):
        """Euclidean gradient of value() with respect to the Y dof values.

        One pass over whole trajectories, on the residuals of
        majorant.residuals, or on res when the caller holds those of Y
        already; each node gets the same operations, in the same order, as a
        loop over the nodes would apply.
        """
        g = self.grid
        p = self.p
        res = residuals(p, self.approx, Y, self.theorem) if res is None else res
        mass = gram_apply(res.Ktilde, p.mu, g)
        scaled = gram_apply(res.Rt, p.mu, g) * _per_node(self.w_face)
        ge = gram_apply(res.Kcheck, p.eps_inv, g)
        grad = (
            mass * _per_node(-2.0 * self.w_pt)
            + curl_edge_to_face(zero_tangential(ge), g) * _per_node(2.0 * self.w_edge)
            - 2.0 * trajectory_derivative(scaled, transpose=True)
        )
        if res.coupling_curl is not None:
            grad = grad - gram_apply(res.coupling_curl, None, g) * _per_node(2.0 * self.w_coup)
        zero = self.zero_grad if self.variant == "z" else (2.0 * self.Cz) * mass.node(0)
        for comp, z in zip(grad.components(), zero.components()):
            comp[0] -= z
        return grad

    def gradient_flat(self, y, res=None):
        """gradient() at the Y rows y, as rows in the shape of y (which may
        also be the rows raveled)."""
        return _flatten(self.gradient(_unflatten(y, self.grid), res)).reshape(np.shape(y))


def _time_eigenbasis(t1, w_edge):
    """Q and lam with Q^T T1 Q = I and Q^T diag(w_edge) Q = diag(lam), for
    an SPD nt x nt matrix T1.

    T1 is scaled to a unit diagonal first: its Gronwall weights can span
    many decades in time.
    """
    s = 1.0 / np.sqrt(np.diag(t1))
    try:
        chol = np.linalg.cholesky(s[:, None] * t1 * s)
    except np.linalg.LinAlgError as exc:
        raise _Unformable("the time matrix T1 is not positive definite") from exc
    back = np.linalg.inv(chol).T  # L^-T
    lam, u = np.linalg.eigh(back.T @ ((w_edge * s * s)[:, None] * back))
    return s[:, None] * (back @ u), lam


def _scaled_eigenbasis(quad, diagonals):
    """(Q, lam, S): the scaled time eigenbasis of quad's Hessian H, for the
    spatial_diagonals of its problem.

    Q^T (2 T1) Q = I and Q^T diag(2 w_edge) Q = diag(lam)
    (_time_eigenbasis) make Q^T H Q = I (x) G_mu + diag(lam) (x) K, with
    no coupling between different time indices j.  S = Dt^-1/2, nt x
    face-dof rows, scales it to a unit diagonal: Dt[j, dof] = m + lam_j c,
    m and c being the dof's entries of the two diagonals.  lam is clipped
    at 0 (it is >= 0 exactly, w_edge being so), which keeps every block
    G_mu + lam_j K semidefinite.  This is the time half of the fast
    diagonalisation method (Lynch, Rice and Thomas 1964).
    """
    q, lam = _time_eigenbasis(2.0 * quad.t1, 2.0 * quad.w_edge)
    lam = np.maximum(lam, 0.0)
    mass, curl = diagonals
    d_tilde = mass + lam[:, None] * curl
    if not np.all(d_tilde > 0.0):
        raise _Unformable("the Hessian has a diagonal entry <= 0 in the time eigenbasis")
    return q, lam, 1.0 / np.sqrt(d_tilde)


def _block_hessian(p, lam, scale):
    """The apply_A of conjugate_gradient for the Y solve: S (I (x) G_mu +
    diag(lam) (x) K) S w for rows w, the Hessian of BoundQuadratic in the
    scaled time eigenbasis whose lam and S _scaled_eigenbasis gives, on the
    eigen-blocks rows, row i of w being block rows[i].  One _curl_curl
    scaled by lam per row and one gram_apply, with no time operator.

    The product goes into the rows of a buffer of its own, which the next
    product overwrites.  Its edge, face and flat buffers are made here,
    once per solve, for up to nt rows; the flat one also holds gram_apply's
    cell sums.  The fields over the first m rows are made anew only when
    m differs from the last product's: in a CG solve, whose active rows
    only fall, once for each count of them.  Holding one set alone keeps the
    small objects of every count from piling up in the heap, which raises
    the solve's peak RSS.
    """
    g = p.grid
    edge = np.zeros((g.nt, sum(math.prod(g.shape(EDGE, c)) for c in "xyz")))
    vec, result = (np.zeros_like(scale) for _ in range(2))  # nt x face-dof rows
    # three times the largest component of either trajectory
    flat = np.zeros(3 * g.nt * max(math.prod(g.shape(kind, c))
                                   for kind in (EDGE, FACE) for c in "xyz"))
    held = [None, None]  # the last row count and its fields

    def apply(w, rows):
        m = len(w)
        if m != held[0]:
            held[:] = m, (_unflatten(vec[:m], g), _unflatten(edge[:m], g, EDGE),
                          result[:m], _unflatten(result[:m], g))
        face, edge_m, out, H = held[1]
        sw = vec[:m]
        # mode="wrap" gathers straight into sw; "raise" would buffer a copy.  The
        # rows of S are gathered twice: holding them through the product takes
        # a third face buffer, which would be the solve's peak
        np.take(scale, rows, axis=0, out=sw, mode="wrap")
        sw *= w
        _curl_curl(p, face, g, H, edge_m, flat)
        out *= lam[rows][:, None]
        gram_apply(face, p.mu, g, face, flat)
        out += sw
        np.take(scale, rows, axis=0, out=sw, mode="wrap")
        out *= sw
        return out

    return apply


def conjugate_gradient(apply_A, rhs, tol=1e-10, max_iter=200, stall_tol=0.0, info=None):
    """Solve A x = rhs for symmetric positive semidefinite A, matrix-free,
    from x = 0.

    rhs, a 2-D array, holds the right-hand sides of a block-diagonal
    A = diag(A_0, A_1, ...), one per row, and each row is solved by a CG
    of its own, all in lockstep: apply_A(d, rows) gives the products
    A_rows[i] d[i] of the active rows d, rows being their indices in rhs
    (read it before returning; it changes).  apply_A may return the same
    buffer at every call: a result is read before the next call.

    Row j stops at relative residual |rhs_j - A_j x_j| / |rhs_j| <= tol
    (at once for a zero rhs_j), at a null direction of A_j, or once its
    last _STALL_WINDOW steps together lowered q_j(x) = x.A_j x / 2 -
    rhs_j.x = -x.(r_j + rhs_j) / 2 by no more than stall_tol / len(rhs),
    so that the rows together lower q by no more than stall_tol.  CG
    lowers q at every step in exact arithmetic, so the default stall_tol
    of 0 ends only a solve whose iterates drift off, as those of a
    singular system whose A carries rounding noise do once the residual
    reaches its floor.  A stopped row leaves the active rows, so later
    products run on the others alone.  A genuinely negative curvature
    direction (inconsistent with a convex objective) is a hard error.  The
    solve ends once no row is active or after max_iter lockstep steps.

    Returns (x, iterations, relative residual): the lockstep steps taken
    and |rhs - A x| / |rhs| over all rows.  A dict info, when given,
    receives "row_steps", the steps each row took.  The residual is
    measured in the basis A and rhs are given in.  For the Y solve
    (_minimize_Y) that is the scaled time eigenbasis, where it is
    |r^| / |b^| = sqrt(r.P^-1 r / rhs.P^-1 rhs) for the residual r and
    right-hand side rhs of H delta = rhs and P^-1 = Q S^2 Q^T.

    The steps allocate nothing of rhs's size beyond what apply_A does:
    the active rows stay in front of x, r and d, moved there by swapping
    rows, every product goes through one scratch, and every dot product
    is a pairwise sum over a row of it, which no BLAS thread count changes.
    """
    b = np.asarray(rhs, dtype=float)
    nb = len(b)
    scratch = np.empty_like(b)
    x = np.zeros_like(b)
    r = b.copy()  # A 0 = 0
    d = b.copy()
    spare = np.empty(b.shape[1])

    def dots(u, v):
        m = len(u)
        return np.multiply(u, v, out=scratch[:m]).sum(axis=1)

    # per row of rhs: squared residual, |rhs_j| (1 for a zero row), steps
    # taken and the last _STALL_WINDOW + 1 values of q_j, by step modulo
    rs = dots(r, r)
    ref = np.sqrt(rs)
    ref[ref == 0.0] = 1.0
    ref0 = math.sqrt(float(rs.sum())) or 1.0
    steps = np.zeros(nb, dtype=int)
    qs = np.zeros((_STALL_WINDOW + 1, nb))  # q(0) = 0
    order = np.arange(nb)  # the row of rhs at each position of x, r and d

    def retire(stop, m):
        """Move the rows at the positions stop (of the first m) behind the
        active ones; returns their new count."""
        for i in np.flatnonzero(stop)[::-1]:
            m -= 1
            if i != m:
                for a in (x, r, d):
                    spare[:] = a[i]
                    a[i] = a[m]
                    a[m] = spare
                order[[i, m]] = order[[m, i]]
        return m

    m = retire(~(np.sqrt(rs) > tol * ref), nb)
    it = 0
    while m and it < max_iter:
        rows = order[:m]
        xa, ra, da = x[:m], r[:m], d[:m]
        Ad = apply_A(da, rows)
        dAd = dots(da, Ad)
        null = ~(dAd > 0.0)
        for i in np.flatnonzero(null):
            scale = math.sqrt(float(dots(da[i:i + 1], da[i:i + 1])[0]
                                    * dots(Ad[i:i + 1], Ad[i:i + 1])[0]))
            if dAd[i] < -1e-10 * max(scale, 1e-300):
                raise MaxboundError(
                    "conjugate gradients hit a negative-curvature direction; "
                    "the quadratic assembly is not positive semidefinite"
                )
        # a null direction of a singular but consistent system ends its row
        rs_old = rs[rows]
        alpha = np.divide(rs_old, dAd, out=np.zeros(m), where=~null)[:, None]
        xa += np.multiply(da, alpha, out=scratch[:m])
        ra -= np.multiply(Ad, alpha, out=scratch[:m])
        rs_new = rs[rows] = dots(ra, ra)
        # <x, rhs>, the rows of rhs gathered into the scratch
        xb = np.take(b, rows, axis=0, out=scratch[:m], mode="wrap")
        xb = np.multiply(xb, xa, out=xb).sum(axis=1)
        q = -0.5 * (dots(xa, ra) + xb)
        it += 1
        steps[rows[~null]] += 1
        qs[it % (_STALL_WINDOW + 1), rows] = q
        stalled = False
        if it >= _STALL_WINDOW:
            stalled = qs[(it - _STALL_WINDOW) % (_STALL_WINDOW + 1), rows] - q <= stall_tol / nb
        done = null | stalled | ~(np.sqrt(rs_new) > tol * ref[rows])
        da *= (rs_new / rs_old)[:, None]
        da += ra
        m = retire(done, m)
    if info is not None:
        info["row_steps"] = steps
    # x back in the order of rhs, in the scratch
    scratch[order] = x
    return scratch, int(steps.max()), math.sqrt(float(rs.sum())) / ref0


def optimize_Y(p, approx, gamma, rho, cfg=None, theorem="T5", zero_variant="z_hat",
               Y0=None, info=None):
    """Minimize the final-time bound over the free field Y at fixed (gamma, rho).

    Conjugate gradients on the collapsed quadratic, in the scaled time
    eigenbasis where its Hessian is block diagonal, one block per time
    eigen-index (_scaled_eigenbasis, _block_hessian); each block runs a
    CG of its own.  A block also stops once b(T) stalls on it (see
    _STALL_WINDOW), and the solve once every block has stopped.  Y0 None
    starts at default_Y.  Returns the optimized FieldTrajectory; pass a
    dict as `info` to receive the iteration count, the Hessian work in
    blocks and the relative residual.
    """
    cfg = cfg if cfg is not None else OptimizeConfig()
    quad = BoundQuadratic(p, approx, rho, gamma, theorem, zero_variant)
    approx = quad.approx
    Y0 = default_Y(p, approx) if Y0 is None else Y0.load()
    # one residual assembly of Y0: b(T) from its series, the gradient from it
    s, *held = residual_series(p, approx, Y0, theorem)
    value0 = float(final_bound(s, quad.rho_n, quad.gam_n, zero_variant, p.grid.dt))
    basis = _scaled_eigenbasis(quad, spatial_diagonals(p))
    return _minimize_Y(quad, basis, Y0, value0, cfg, info, held)


def _minimize_Y(quad, basis, Y0, value0, cfg, info=None, held=None):
    """optimize_Y from Y0 for the quadratic quad, basis being its
    _scaled_eigenbasis and value0 b(T) at Y0.  held, a list that may hold
    the Residuals of Y0, hands them to the gradient: they are taken out of
    it, so that they are freed with the gradient's own.

    CG on H delta = -grad in the scaled time eigenbasis (Q, S) of
    _scaled_eigenbasis: delta = Q S w, with S Q^T H Q S w = S Q^T (-grad).
    That system is block diagonal, one block per row of w, so
    conjugate_gradient runs one CG per row in lockstep, each with its own
    step lengths and stall rule, and drops a row from the products once it
    stops.  The right-hand side is mapped in once and the answer back
    once; no time operator runs inside the loop.  The buffers of the
    iterations are made after the gradient, whose residual trajectories
    are gone by then.  The gradient reads Y0 itself and the rows of the new
    Y are made after the CG, so that the solve holds Y once.
    """
    q, lam, scale = basis
    rhs = q.T @ _flatten(quad.gradient(Y0, held.pop() if held else None))
    rhs *= -scale
    cg = {}
    w, iters, rel_res = conjugate_gradient(
        _block_hessian(quad.p, lam, scale), rhs, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter,
        stall_tol=_Y_STALL_RTOL * abs(value0), info=cg)
    if info is not None:
        info["iterations"] = iters
        info["block_iterations"] = int(cg["row_steps"].sum())
        info["relative_residual"] = rel_res
    w *= scale
    y = _flatten(Y0)
    y += np.matmul(q, w, out=rhs)  # rhs is spent
    return _unflatten(y, quad.grid)


# ---------------------------------------------------------------------------
# alternating driver


def optimize_all(p, approx, cfg=None, theorem="T5", zero_variant="z_hat",
                 rho0=0.5, gamma0=1.0, exact=None):
    """Alternate Y- and (gamma, rho)-minimization for cfg.sweeps rounds,
    from default_Y at (gamma0, rho0).

    The objective is the bound itself, and every update is accepted only
    when it does not increase it, so the final bound never exceeds the
    bound at the initial parameters.  Returns the certification report at
    the optimized parameters, carrying the optimization history and each
    sweep's CG solve: the optimize_Y info dict plus whether its Y was
    accepted, None where the Y step was skipped: where b(T) overflows, or
    its quadratic in Y cannot be formed (_Unformable).
    """
    cfg = cfg if cfg is not None else OptimizeConfig()
    g = p.grid
    # the start, admitted where certify admits it; params holds the current point
    params = MajorantParams(rho=rho0, gamma=gamma0, zero_variant=zero_variant)
    _, rho, gamma = _checked_weights(p, approx, params, theorem, y_step=cfg.sweeps > 0)
    approx = loaded(approx, theorem, g)
    Y = default_Y(p, approx)
    # s is the series of Y, current the bound at (Y, params), and held the
    # Residuals of Y until the next Y step's gradient takes them: one residual
    # assembly for every Y the driver visits and keeps
    s, *held = residual_series(p, approx, Y, theorem)
    current = float(final_bound(s, rho, gamma, zero_variant, g.dt))
    history = [current]
    diagonals = None  # probed at the first Y step
    cg_sweeps = []
    for _ in range(cfg.sweeps):
        # at parameters where the bound overflows, or its quadratic in Y
        # cannot be formed, the Y step is skipped; the (gamma, rho) step below
        # moves away from them
        info = step = None
        if math.isfinite(current):
            diagonals = spatial_diagonals(p) if diagonals is None else diagonals
            try:
                quad = BoundQuadratic(p, approx, params.rho, params.gamma, theorem, zero_variant)
                step = quad, _scaled_eigenbasis(quad, diagonals)
            except _Unformable:
                pass
        if step is not None:
            info = {}
            Y_new = _minimize_Y(*step, Y, current, cfg, info=info, held=held)
            s_new, *held_new = residual_series(p, approx, Y_new, theorem)
            v_new = float(final_bound(s_new, quad.rho_n, quad.gam_n, zero_variant, g.dt))
            info["accepted"] = v_new <= current
            if info["accepted"]:
                Y, s, current, held = Y_new, s_new, v_new, held_new
            del held_new  # a rejected Y's residuals are not kept
        cg_sweeps.append(info)
        g_new, r_new, v_par = _search_gamma_rho(s, cfg, zero_variant, g)
        if v_par <= current:
            params, current = replace(params, rho=r_new, gamma=g_new), v_par
        history.append(current)

    # certify's report at the optimized parameters, from the series of Y
    # held already, which is certify's own bit for bit
    params = replace(params, Y=Y)
    if exact is not None:
        s = replace(s, error_sq=error_series(p, approx, exact, theorem))
    report = report_from_series(p, approx, params, theorem, s)
    report.optimize_history = history
    report.cg_sweeps = cg_sweeps
    return report, params
