"""Discrete curl operators, weighted inner products and quadrature kernels.

The two staggered curls are mutually adjoint with respect to the plain
dof inner product (uniform cell-volume weight) whenever the edge field has
zero tangential trace; norms used for error reporting sum each cell's
dofs per component, weight the sums by the per-cell material coefficients,
and sum over cells with one quadrature rule.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError
from .fields import EDGE, FACE, FieldTrajectory, GridSpec, StaggeredField, nodal_axes

_COMPONENTS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# spatial difference operators


def _field(grid, kind, comps):
    """Wrap component arrays: spatial ones in a StaggeredField, (nt, ...) ones
    in a FieldTrajectory."""
    if comps[0].ndim == 3:
        return StaggeredField(kind, *comps)
    return FieldTrajectory(kind, grid, *comps)


# The kernels below index the three spatial axes from the right, so each
# accepts a StaggeredField or a whole FieldTrajectory and returns the same
# type; every element sees the same operations in both cases.


def _lower_upper(a, axis):
    """The views a[:-1] and a[1:] along one of the spatial axes -3, -2, -1."""
    lo, hi = _LOWER_UPPER[axis]
    return a[lo], a[hi]


_LOWER_UPPER = {axis: tuple((...,) + (end,) + (slice(None),) * (-1 - axis)
                            for end in (slice(None, -1), slice(1, None)))
                for axis in (-3, -2, -1)}


def _corners(a, axes):
    """The views of a shifted by 0 or 1 along each of the spatial axes given,
    the last one fastest: per cell, its dofs across those axes."""
    views = [a]
    for axis in axes:
        views = [v for base in views for v in _lower_upper(base, axis - 3)]
    return views


# The curls and the cell sums of the norms take a fast path: one contiguous
# pass per shifted difference or corner sum over a flat component array, at
# a fixed offset, into a scratch in the component's shape.  Its rows at the
# upper end of a shifted axis pair dofs across rows and are never read; the
# view without them holds every element of the strided formula, each made
# by the same operations in the same order.  Those extra pairs may overflow
# where the strided formula does not, so the pass records floating-point
# errors instead of reporting them, and when it has recorded any, the
# strided formula makes the result again under the caller's np.errstate,
# with its warnings and errors.  A pass that records none has made every
# element as the strided formula does, which then reports nothing either.
# The strided formula alone runs while underflow is not ignored, and on
# arrays that are not C-contiguous or have fewer than _FLAT_MIN elements,
# where the set-up costs more than the pass saves.
_FLAT_MIN = 1 << 14


def _flat_size(*fields):
    """The scratch the fast path over the components of these fields takes,
    the size of the first field's largest component; 0 where the strided
    formula runs."""
    if fields[0].x.size < _FLAT_MIN or np.geterr()["under"] != "ignore" or not all(
            a.flags.c_contiguous for f in fields for a in f.components()):
        return 0
    return max(a.size for a in fields[0].components())


def _clean(fast, *args):
    """Whether fast(*args) ran with no floating-point error: underflow is
    ignored, the others are recorded, not reported."""
    errors = []
    with np.errstate(call=lambda kind, flag: errors.append(kind), divide="call",
                     over="call", invalid="call", under="ignore"):
        fast(*args)
    return not errors


def _scaling(h):
    """(op, s) with op(x, s) == x / h for every double x, bits and
    floating-point flags alike: x * (1/h) when h is a power of two whose
    reciprocal is finite, x / h and x * (1/h) then being one real number
    rounded once; x / h otherwise."""
    r = 1.0 / h
    return (np.multiply, r) if math.frexp(h)[0] == 0.5 and math.isfinite(r) else (np.divide, h)


def _difference(a, pre, axis, h, buf):
    """diff(a[pre]) / h along a spatial axis, as a view of buf: a shifted by
    one along the axis minus a, in one pass over flat a into buf, scaled
    there; in a's shape, its rows at the upper end of the axis pair dofs
    across rows, and the view leaves them out."""
    flat = a.reshape(-1)
    n = flat.size
    part = buf[: n - a.strides[axis] // a.itemsize]
    np.subtract(flat[n - part.size:], flat[: part.size], out=part)
    op, s = _scaling(h)
    op(part, s, out=part)
    return buf[:n].reshape(a.shape)[pre][_LOWER_UPPER[axis][0]]


def _curl_rows(f, terms, work):
    """out = diff(a[pre_a])/ha - diff(b[pre_b])/hb along the given axes for
    each (out, a, pre_a, axis_a, ha, b, pre_b, axis_b, hb), a and b being
    components of the field f; through the scratch work when it is given."""
    size = _flat_size(f)
    if size and _clean(_flat_curl_rows, terms, np.empty(size) if work is None else work):
        return
    scratch = np.empty(max(t[0].size for t in terms)) if work is None else work
    for out, a, pre_a, axis_a, ha, b, pre_b, axis_b, hb in terms:
        tmp = scratch[: out.size].reshape(out.shape)
        lo, hi = _lower_upper(a[pre_a], axis_a)
        np.subtract(hi, lo, out=out)
        out /= ha
        lo, hi = _lower_upper(b[pre_b], axis_b)
        np.subtract(hi, lo, out=tmp)
        tmp /= hb
        out -= tmp


def _flat_curl_rows(terms, buf):
    """_curl_rows' fast path: each difference made in buf, the first copied
    into out and the second subtracted from it."""
    for out, a, pre_a, axis_a, ha, b, pre_b, axis_b, hb in terms:
        np.copyto(out, _difference(a, pre_a, axis_a, ha, buf))
        out -= _difference(b, pre_b, axis_b, hb, buf)


# The curls and gram_apply write into out, a field of the result's kind and
# type, when it is given, and into new arrays otherwise: the same code and
# the same operations either way.  work, a flat float array with at least
# three times as many elements as the largest component of the result,
# takes the place of the scratch the curls and gram_apply would otherwise
# allocate, so that a caller that passes both out and work allocates no
# array.  That size holds any component of a curl's argument too, which is
# all the fast path's scratch.


def curl_edge_to_face(e, grid, out=None, work=None):
    """Circulation differences of an edge field, living on cell faces."""
    if e.kind != EDGE:
        raise DimensionError(f"curl_edge_to_face expects an edge field, got {e.kind}")
    e.check_extents(grid)
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    ex, ey, ez = e.x, e.y, e.z
    if out is None:
        out = _field(grid, FACE, [np.empty(ex.shape[:-3] + grid.shape(FACE, c))
                                  for c in _COMPONENTS])
    _curl_rows(e, [
        (out.x, ez, ..., -2, hy, ey, ..., -1, hz),
        (out.y, ex, ..., -1, hz, ez, ..., -3, hx),
        (out.z, ey, ..., -3, hx, ex, ..., -2, hy),
    ], work)
    return out


def curl_face_to_edge(h, grid, out=None, work=None):
    """Adjoint circulation differences of a face field, living on edges.

    Boundary-tangential edge values are set to zero; they pair against edge
    fields with homogeneous tangential trace.
    """
    if h.kind != FACE:
        raise DimensionError(f"curl_face_to_edge expects a face field, got {h.kind}")
    h.check_extents(grid)
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    hxc, hyc, hzc = h.x, h.y, h.z
    if out is None:
        out = _field(grid, EDGE, [np.empty(hxc.shape[:-3] + grid.shape(EDGE, c))
                                  for c in _COMPONENTS])
    # the rows left out below are exactly the tangential boundary values
    zero_tangential(out)
    inner_x, inner_y, inner_z = _INNER
    _curl_rows(h, [
        (out.x[..., 1:-1, 1:-1], hzc, inner_z, -2, hy, hyc, inner_y, -1, hz),
        (out.y[..., 1:-1, :, 1:-1], hxc, inner_x, -1, hz, hzc, inner_z, -3, hx),
        (out.z[..., 1:-1, 1:-1, :], hyc, inner_y, -3, hx, hxc, inner_x, -2, hy),
    ], work)
    return out


# a field's interior rows along x, y and z
_INNER = tuple((...,) + (slice(1, -1),) + (slice(None),) * (2 - d) for d in range(3))


def gradient_node_to_edge(phi, grid):
    """Discrete gradient of nodal scalar samples; curl_edge_to_face annihilates it."""
    want = (grid.nx + 1, grid.ny + 1, grid.nz + 1)
    if phi.shape != want:
        raise DimensionError(f"nodal scalar shape {phi.shape}, expected {want}")
    gx = (phi[1:, :, :] - phi[:-1, :, :]) / grid.hx
    gy = (phi[:, 1:, :] - phi[:, :-1, :]) / grid.hy
    gz = (phi[:, :, 1:] - phi[:, :, :-1]) / grid.hz
    return StaggeredField(EDGE, gx, gy, gz)


def zero_tangential(e):
    """Zero the tangential boundary components of an edge field, at both ends
    of their nodal axes, in place; returns the field."""
    for comp, ends in zip(e.components(), _TANGENTIAL_ENDS):
        for end in ends:
            comp[end] = 0.0
    return e


# per edge component, the index of each end of each of its nodal axes
_TANGENTIAL_ENDS = tuple(tuple((..., end) + (slice(None),) * (2 - d)
                               for d in nodal_axes(EDGE, i) for end in (0, -1))
                         for i in range(3))


# ---------------------------------------------------------------------------
# cell-centered averaging and weighted inner products


def _corner_sum(comp, kind, i, out):
    """Sum each cell's dofs of component i across its nodal axes, the first
    axis fastest, into out."""
    terms = _corners(comp, reversed(nodal_axes(kind, i)))
    np.add(terms[0], terms[1], out=out)
    for term in terms[2:]:
        out += term
    return out


def _flat_corner_sum(comp, kind, i, buf):
    """_corner_sum's sums of comp, in one pass per corner over flat comp into
    buf (see _difference), viewed as the cells."""
    flat = comp.reshape(-1)
    offsets = [0]
    for d in nodal_axes(kind, i):
        offsets += [o + comp.strides[d - 3] // comp.itemsize for o in offsets]
    n = flat.size - offsets[-1]
    part = buf[:n]
    np.add(flat[:n], flat[offsets[1]: offsets[1] + n], out=part)
    for o in offsets[2:]:
        part += flat[o: o + n]
    return buf[: flat.size].reshape(comp.shape)[_CELL_CORNER[kind, i]]


# per field kind and component, the index of each cell's first corner
_CELL_CORNER = {(kind, i): (...,) + tuple(slice(None, -1) if d in nodal_axes(kind, i)
                                          else slice(None) for d in range(3))
                for kind in (EDGE, FACE) for i in range(3)}


def cell_average(f, grid):
    """Average staggered components to cell centers; returns (..., nx, ny, nz, 3).
    A reference kernel: no pipeline path calls it or its adjoint."""
    f.check_extents(grid)
    out = _planar_cells(f.x.shape[:-3], grid)
    weight = 0.25 if f.kind == EDGE else 0.5
    for i, comp in enumerate(f.components()):
        total = _corner_sum(comp, f.kind, i, out[..., i])
        total *= weight
    return out


def _planar_cells(lead, grid, work=None):
    """A cell array (*lead, nx, ny, nz, 3) whose three slots each lie
    contiguous in memory, in work when it is given."""
    shape = (3,) + tuple(lead) + (grid.nx, grid.ny, grid.nz)
    size = math.prod(shape)
    flat = np.empty(size) if work is None else work[:size]
    return np.moveaxis(flat.reshape(shape), 0, -1)


def cell_average_adjoint(v, grid, kind):
    """Euclidean adjoint of cell_average: scatter cell values back to dofs."""
    return _scatter_to_dofs(v * (0.25 if kind == EDGE else 0.5), grid, kind, None)


def _scatter_to_dofs(v, grid, kind, out):
    """Add each cell value of v to the dofs of its cell, into out or new arrays."""
    if out is None:
        out = _field(grid, kind, [np.empty(v.shape[:-4] + grid.shape(kind, c))
                                  for c in _COMPONENTS])
    for i, o in enumerate(out.components()):
        o.fill(0.0)
        for corner in _corners(o, nodal_axes(kind, i)):
            corner += v[..., i]
    return out


def weighted_inner(u, v, w, grid, out=None):
    """Weighted inner product of two staggered fields of the same kind.

    Both fields are averaged to cell centers, the weight (a MaterialField
    or None for the identity) is applied there, and the result is summed
    with the uniform cell volume: sum_cells (w u_bar) . v_bar * dV.  Of
    two trajectories it is an array with the product at each time node,
    each with the bits of its node's own call.  out, a C-contiguous cell
    array, takes the cell products in place of a new array.
    """
    if u.kind != v.kind:
        raise DimensionError(f"kind mismatch: {u.kind} vs {v.kind}")
    return _cell_products(u, v, w, grid, out)


def weighted_norm_sq(u, w, grid, out=None):
    """weighted_inner(u, u, w, grid, out), with one corner sum per component."""
    return _cell_products(u, u, w, grid, out)


def _cell_products(u, v, w, grid, out):
    """weighted_inner(u, v, w, grid, out) from the cell sums of the dofs:
    each component's (w sum_u) sum_v goes into its slot of the cell array,
    and the squared averaging weight multiplies the total once.  It is a
    power of two, so the bits are those of averaging first.  A node's cells
    are one contiguous row of the array, so that its pairwise sum is the
    one np.sum takes of a single node's cells."""
    u.check_extents(grid)
    v.check_extents(grid)
    cells = np.empty(u.x.shape[:-3] + (grid.nx, grid.ny, grid.nz, 3)) if out is None else out
    # a face's corner sums, one add each, gain nothing from the fast path
    size = u.kind == EDGE and _flat_size(u, v)
    if not (size and _clean(_fill_cells, u, v, w, cells, _flat_corner_sum, size)):
        _fill_cells(u, v, w, cells, _corner_sum, cells.shape[:-1])
    weight = 0.25 if u.kind == EDGE else 0.5
    if cells.ndim == 4:
        return float(np.sum(cells) * (weight * weight) * grid.cell_volume)
    return cells.reshape(len(cells), -1).sum(axis=1) * (weight * weight) * grid.cell_volume


def _fill_cells(u, v, w, cells, corner_sum, shape):
    """The cell products of _cell_products into cells, each component's sums
    made by corner_sum(comp, kind, i, buf) in a new array of the given shape,
    one for u and one for v."""
    coeff = None if w is None or w.is_identity() else w.values
    su_buf = np.empty(shape)
    sv_buf = su_buf if v is u else np.empty(shape)
    for i, (a, b) in enumerate(zip(u.components(), v.components())):
        su = corner_sum(a, u.kind, i, su_buf)
        sv = su if v is u else corner_sum(b, u.kind, i, sv_buf)
        slot = cells[..., i]
        if coeff is None:
            np.multiply(su, sv, out=slot)
        else:
            np.multiply(su, coeff if w.kind == "scalar" else coeff[..., i], out=slot)
            slot *= sv


def gram_apply(u, w, grid, out=None, work=None):
    """Euclidean-dof representation of the weighted quadratic form.

    Returns g with weighted_norm_sq(u, w) == sum_dofs(u * g); used for
    gradients of quadratic functionals of staggered fields.  The cell sums
    are weighted as in _cell_products, then scattered back to the dofs of
    their cells.  out may be u itself: u is read in full before out is written.
    """
    cells = _planar_cells(u.x.shape[:-3], grid, work)
    coeff = None if w is None or w.is_identity() else w.values
    for i, comp in enumerate(u.components()):
        slot = _corner_sum(comp, u.kind, i, cells[..., i])
        if coeff is not None:
            slot *= coeff if w.kind == "scalar" else coeff[..., i]
    cells *= (0.25 if u.kind == EDGE else 0.5) ** 2 * grid.cell_volume
    return _scatter_to_dofs(cells, grid, u.kind, out)


def dof_inner(u, v, grid):
    """Plain staggered inner product: uniform cell-volume weight per dof."""
    if u.kind != v.kind:
        raise DimensionError(f"kind mismatch: {u.kind} vs {v.kind}")
    s = 0.0
    for a, b in zip(u.components(), v.components()):
        s += np.sum(a * b)
    return float(s * grid.cell_volume)


def apply_material_staggered(f, w, grid, out=None):
    """Apply a material to a staggered field in place of its dofs.

    Each dof takes the mean coefficient of its adjacent cells, which is
    exact for spatially constant materials; the coefficients are kept on
    the material, once per field kind.  The result goes into out (f
    itself, say) when it is given.
    """
    if w.is_identity():
        # the coefficient is exactly 1.0: keep f's own values
        if out is None:
            return _field(grid, f.kind, list(f.components()))
        for o, arr in zip(out.components(), f.components()):
            if o is not arr:
                np.copyto(o, arr)
        return out
    coeff = w.dof_cache.get(f.kind)
    if coeff is None:
        cells = (grid.nx, grid.ny, grid.nz, 3)
        coeff, count = (_scatter_to_dofs(np.broadcast_to(c, cells), grid, f.kind, None)
                        for c in (w.values[..., None] if w.kind == "scalar" else w.values, 1.0))
        coeff.apply(np.divide, count, coeff)
        w.dof_cache[f.kind] = coeff
    return f.apply(np.multiply, coeff, out)


# ---------------------------------------------------------------------------
# time quadrature, along the last axis: leading axes hold independent
# candidates, each row of which gets the bits of its own 1-D call


def cumulative_trapezoid(values, dt):
    """Composite trapezoid cumulative integral on the uniform time grid."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = 0.0
    np.cumsum(0.5 * dt * (v[..., 1:] + v[..., :-1]), axis=-1, out=out[..., 1:])
    return out


def nodes_in_range(v, nt, name, lo=-math.inf, hi=math.inf, lo_closed=False):
    """v at nt nodes, a scalar repeated: the converter of every weight and
    Gronwall coefficient, which refuses a value outside (lo, hi), or
    [lo, hi) for lo_closed, and so any NaN or +-inf."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = np.full(nt, float(arr))
    elif arr.shape != (nt,):
        raise ParameterError(f"{name} trajectory length {arr.shape} does not match nt = {nt}")
    if not np.all(((arr >= lo) if lo_closed else (arr > lo)) & (arr < hi)):  # nan too
        raise ParameterError(f"{name} must lie in {'[' if lo_closed else '('}{lo}, {hi}) "
                             "on all nodes")
    return arr


def gronwall_recursion(u0, rate, half, dt):
    """exp(R(t)) * (u0 + int_0^t exp(-R(s)) g(s) ds) at every node.

    R is the trapezoid cumulative integral of rate >= 0 and half = dt/2 * g
    is the half-step source.  The recursion E_k = q_k (E_{k-1} + half_{k-1})
    + half_k with q_k = exp(R_k - R_{k-1}) never forms exp(+-R): a node is
    +inf only when its true value is out of range, and 0 while u0 and the
    source have been 0.  Every Gronwall bound of the package runs through it.
    rate and half broadcast against each other; the q_k of all rows come
    from one call, and each row's recursion then runs in Python floats,
    which at a few dozen rows or fewer beats a vector step per node.
    """
    half = np.asarray(half, dtype=float)
    with np.errstate(over="ignore"):
        q = np.exp(np.diff(cumulative_trapezoid(rate, dt)))
    shape = np.broadcast_shapes(half.shape, q.shape[:-1] + half.shape[-1:])
    rows = math.prod(shape[:-1])
    qs = np.broadcast_to(q, shape[:-1] + q.shape[-1:]).reshape(rows, -1).tolist()
    halves = np.broadcast_to(half, shape).reshape(rows, -1).tolist()
    out = []
    for q_row, h_row in zip(qs, halves):
        e = float(u0)
        out.append(e)
        for qk, h_prev, h in zip(q_row, h_row[:-1], h_row[1:]):
            s = e + h_prev
            e = (qk * s if s else 0.0) + h
            out.append(e)
    return np.array(out).reshape(shape)


def exp_weighted_cumulative(f, gamma, dt):
    """exp(Gamma(t)) * int_0^t exp(-Gamma(s)) gamma(s) f(s) ds at every node,
    with Gamma the trapezoid cumulative integral of gamma > 0."""
    f = np.asarray(f, dtype=float)
    g = np.broadcast_to(np.asarray(gamma, dtype=float), f.shape)
    if not np.all(g > 0.0):  # nan too
        raise ParameterError("gamma must be positive on all nodes")
    with np.errstate(over="ignore"):
        half = 0.5 * dt * g * f
    return gronwall_recursion(0.0, g, half, dt)


class NodeWindow:
    """The fields of the last three nodes, each made on first use.

    Node j is held in slot j % 3 until node j + 3 takes the slot.
    make(j, out) makes it, out being the field the slot held (None at
    first): a derived field is written into it, an input node ignores it.
    """

    def __init__(self, make):
        self._make = make
        self._held = [None] * 3
        self._fields = [None] * 3

    def __call__(self, j):
        i = j % 3
        if self._held[i] != j:
            self._fields[i] = self._make(j, self._fields[i])
            self._held[i] = j
        return self._fields[i]


def ddt_stencil(nt, dt, k):
    """Row k of the time-derivative matrix as (first node, three weights):
    centered in the interior, second-order one-sided at both ends."""
    if nt < 3:
        raise ParameterError(f"time derivative needs nt >= 3, got {nt}")
    if k == 0:
        return 0, np.array([-1.5, 2.0, -0.5]) / dt
    if k == nt - 1:
        return nt - 3, np.array([0.5, -2.0, 1.5]) / dt
    return k - 1, np.array([-0.5, 0.0, 0.5]) / dt


def ddt_node(node, k, grid, out=None, work=None):
    """Row k of the time-derivative matrix applied to the fields node(j),
    into out when it is given; work, a field of their kind too, then takes
    the products after the first in place of a new field."""
    lo, w = ddt_stencil(grid.nt, grid.dt, k)
    (j0, w0), *rest = [(j, wj) for j, wj in zip(range(lo, lo + 3), w) if wj != 0.0]
    out = node(j0).apply(np.multiply, w0, out)
    for j, wj in rest:
        work = node(j).apply(np.multiply, wj, work)
        out += work
    return out


def trajectory_derivative(traj, transpose=False):
    """D, or its transpose D^T, applied along the time axis of a trajectory,
    D being the time-derivative matrix of the ddt_stencil rows: O(nt) per
    dof.  Row k of D sums its products in the order of ddt_node."""
    nt, dt = traj.grid.nt, traj.grid.dt
    _, (w_lo, _, w_hi) = ddt_stencil(nt, dt, 1)  # every interior row
    ends = [ddt_stencil(nt, dt, k) for k in (0, nt - 1)]
    comps = []
    for a in traj.components():
        out = np.empty_like(a)
        if transpose:
            # interior row k sends w_lo a[k] to node k - 1 and w_hi a[k] to k + 1
            np.multiply(a[1:-1], w_lo, out=out[:-2])
            out[-2:] = 0.0
            out[2:] += w_hi * a[1:-1]
            for k, (lo, w) in zip((0, nt - 1), ends):
                for j, wj in zip(range(lo, lo + 3), w):
                    out[j] += wj * a[k]
        else:
            np.multiply(a[:-2], w_lo, out=out[1:-1])
            out[1:-1] += w_hi * a[2:]
            for k, (lo, w) in zip((0, nt - 1), ends):
                out[k] = w[0] * a[lo] + w[1] * a[lo + 1] + w[2] * a[lo + 2]
        comps.append(out)
    return FieldTrajectory(traj.kind, traj.grid, *comps)
