"""The node-buffer passes against the allocating code they replace, bit for bit.

The leapfrog step and the certify series write every node field into
buffers they own.  The reference functions below are the allocating
formulas and loops written out with a new array for every operation;
each in-place pass must give the same bits, signed zeros included.
"""

import contextlib
import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxbound as mb
import maxbound.snapshot as snapshot
from maxbound import cli, majorant, operators, optimize, problem, solver
from maxbound.cli import main
from maxbound.fields import EDGE, FACE, FieldTrajectory, MaterialField, StaggeredField
from maxbound.majorant import (
    NodeSeries,
    ZeroTermParts,
    bound_b_and_B,
    functional,
    series,
    true_error_norms,
)
from maxbound.operators import (
    apply_material_staggered,
    cell_average,
    cell_average_adjoint,
    cumulative_trapezoid,
    curl_edge_to_face,
    curl_face_to_edge,
    ddt_node,
    ddt_stencil,
    dof_inner,
    gram_apply,
    trajectory_derivative,
    weighted_inner,
    weighted_norm_sq,
    zero_tangential,
)
from maxbound.solver import SolveOutput, cfl_limit, exact_reference

seeds = st.integers(0, 2**32 - 1)


def _same(got, want):
    """Equal bit for bit: values, signed zeros and NaN payloads."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def _same_field(got, want):
    assert got.kind == want.kind
    for a, b in zip(got.components(), want.components()):
        _same(a, b)


def _values(rng, shape):
    """Random values with signed zeros and subnormals sprinkled in."""
    v = rng.standard_normal(shape)
    flat = v.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
    flat[picks] = np.resize([-0.0, 0.0, 5e-324, -5e-324], picks.size)
    return v


def _field(grid, kind, rng):
    return StaggeredField(kind, *(_values(rng, grid.shape(kind, c)) for c in "xyz"))


def _traj(grid, kind, rng):
    return FieldTrajectory(kind, grid, *(_values(rng, (grid.nt,) + grid.shape(kind, c))
                                         for c in "xyz"))


# ---------------------------------------------------------------------------
# the allocating reference formulas


def _ref_curl_edge_to_face(e, grid):
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    ex, ey, ez = e.x, e.y, e.z
    fx = (ez[..., 1:, :] - ez[..., :-1, :]) / hy - (ey[..., 1:] - ey[..., :-1]) / hz
    fy = (ex[..., 1:] - ex[..., :-1]) / hz - (ez[..., 1:, :, :] - ez[..., :-1, :, :]) / hx
    fz = (ey[..., 1:, :, :] - ey[..., :-1, :, :]) / hx - (ex[..., 1:, :] - ex[..., :-1, :]) / hy
    return StaggeredField(FACE, fx, fy, fz)


def _ref_curl_face_to_edge(h, grid):
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    hxc, hyc, hzc = h.x, h.y, h.z
    ox, oy, oz = (np.zeros(hxc.shape[:-3] + grid.shape(EDGE, c)) for c in "xyz")
    ox[..., 1:-1, 1:-1] = (
        (hzc[..., 1:, 1:-1] - hzc[..., :-1, 1:-1]) / hy
        - (hyc[..., 1:-1, 1:] - hyc[..., 1:-1, :-1]) / hz
    )
    oy[..., 1:-1, :, 1:-1] = (
        (hxc[..., 1:-1, :, 1:] - hxc[..., 1:-1, :, :-1]) / hz
        - (hzc[..., 1:, :, 1:-1] - hzc[..., :-1, :, 1:-1]) / hx
    )
    oz[..., 1:-1, 1:-1, :] = (
        (hyc[..., 1:, 1:-1, :] - hyc[..., :-1, 1:-1, :]) / hx
        - (hxc[..., 1:-1, 1:, :] - hxc[..., 1:-1, :-1, :]) / hy
    )
    return StaggeredField(EDGE, ox, oy, oz)


def _ref_zero_tangential(e):
    out = e.copy()
    out.x[..., 0, :] = out.x[..., -1, :] = out.x[..., 0] = out.x[..., -1] = 0.0
    out.y[..., 0, :, :] = out.y[..., -1, :, :] = out.y[..., 0] = out.y[..., -1] = 0.0
    out.z[..., 0, :, :] = out.z[..., -1, :, :] = out.z[..., 0, :] = out.z[..., -1, :] = 0.0
    return out


def _ref_cell_average(f, grid):
    out = np.empty((grid.nx, grid.ny, grid.nz, 3))
    if f.kind == EDGE:
        out[..., 0] = 0.25 * (f.x[:, :-1, :-1] + f.x[:, 1:, :-1] + f.x[:, :-1, 1:]
                              + f.x[:, 1:, 1:])
        out[..., 1] = 0.25 * (f.y[:-1, :, :-1] + f.y[1:, :, :-1] + f.y[:-1, :, 1:]
                              + f.y[1:, :, 1:])
        out[..., 2] = 0.25 * (f.z[:-1, :-1, :] + f.z[1:, :-1, :] + f.z[:-1, 1:, :]
                              + f.z[1:, 1:, :])
    else:
        out[..., 0] = 0.5 * (f.x[:-1, :, :] + f.x[1:, :, :])
        out[..., 1] = 0.5 * (f.y[:, :-1, :] + f.y[:, 1:, :])
        out[..., 2] = 0.5 * (f.z[..., :-1] + f.z[..., 1:])
    return out


def _ref_cell_average_adjoint(v, grid, kind):
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    ox, oy, oz = (np.zeros(grid.shape(kind, c)) for c in "xyz")
    if kind == EDGE:
        vx, vy, vz = (0.25 * v[..., i] for i in range(3))
        for a in (0, 1):
            for b in (0, 1):
                ox[:, a : ny + a, b : nz + b] += vx
                oy[a : nx + a, :, b : nz + b] += vy
                oz[a : nx + a, b : ny + b, :] += vz
    else:
        vx, vy, vz = (0.5 * v[..., i] for i in range(3))
        for a in (0, 1):
            ox[a : nx + a, :, :] += vx
            oy[:, a : ny + a, :] += vy
            oz[:, :, a : nz + a] += vz
    return StaggeredField(kind, ox, oy, oz)


# The norms and gram_apply in the kernels' own order of operations, node
# fields and trajectories alike: per component, the cell sums of the dofs
# (the first nodal axis fastest), the material, the product; the squared
# averaging weight and the cell volume once, at the end.  Averaging first
# gives the same bits except where a quarter or a half of a dof underflows,
# as it does for subnormal dofs.  Every operation that may raise a
# floating-point error comes in the kernels' order, so these raise and
# warn as the kernels do.


def _ref_cell_sums(f, i):
    c = f.components()[i]
    if f.kind == FACE:
        lo, hi = ([slice(None)] * 3 for _ in range(2))
        lo[i], hi[i] = slice(None, -1), slice(1, None)
        return c[(...,) + tuple(lo)] + c[(...,) + tuple(hi)]
    if i == 0:
        return c[..., :-1, :-1] + c[..., 1:, :-1] + c[..., :-1, 1:] + c[..., 1:, 1:]
    if i == 1:
        return (c[..., :-1, :, :-1] + c[..., 1:, :, :-1] + c[..., :-1, :, 1:]
                + c[..., 1:, :, 1:])
    return c[..., :-1, :-1, :] + c[..., 1:, :-1, :] + c[..., :-1, 1:, :] + c[..., 1:, 1:, :]


def _ref_coeff(w, i):
    return None if w is None or w.is_identity() else (
        w.values if w.kind == "scalar" else w.values[..., i])


def _ref_weighted_inner(u, v, w, grid):
    cells = np.empty(u.x.shape[:-3] + (grid.nx, grid.ny, grid.nz, 3))
    for i in range(3):
        su = _ref_cell_sums(u, i)
        sv = su if v is u else _ref_cell_sums(v, i)
        c = _ref_coeff(w, i)
        cells[..., i] = su * sv if c is None else su * c * sv
    scale = (0.25 if u.kind == EDGE else 0.5) ** 2
    if cells.ndim == 4:
        return float(np.sum(cells) * scale * grid.cell_volume)
    return cells.reshape(len(cells), -1).sum(axis=1) * scale * grid.cell_volume


def _ref_weighted_norm_sq(u, w, grid):
    return _ref_weighted_inner(u, u, w, grid)


def _ref_gram_apply(u, w, grid):
    sums = []
    for i in range(3):
        s = _ref_cell_sums(u, i)
        c = _ref_coeff(w, i)
        sums.append(s if c is None else s * c)
    cells = np.stack(sums) * ((0.25 if u.kind == EDGE else 0.5) ** 2 * grid.cell_volume)
    comps = []
    for i, c in enumerate("xyz"):
        out = np.zeros(u.x.shape[:-3] + grid.shape(u.kind, c))
        nodal = [d for d in range(3) if (d == i) == (u.kind == FACE)]
        for corner in itertools.product((0, 1), repeat=len(nodal)):
            index = [slice(None)] * 3
            for d, a in zip(nodal, corner):
                index[d] = slice(a, a + (grid.nx, grid.ny, grid.nz)[d])
            out[(...,) + tuple(index)] += cells[i]
        comps.append(out)
    return StaggeredField(u.kind, *comps)


def _ref_material(f, w, grid):
    if w.is_identity():
        return f
    return apply_material_staggered(f, w, grid)


def _ref_mu_inv_curl(p, e):
    return _ref_material(_ref_curl_edge_to_face(e, p.grid), p.mu_inv, p.grid)


def _ref_ddt_node(node, k, grid):
    lo, w = ddt_stencil(grid.nt, grid.dt, k)
    out = None
    for j, wj in zip(range(lo, lo + 3), w):
        if wj != 0.0:
            term = node(j) * wj
            out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# kernels with and without out=

@st.composite
def _grids(draw):
    """2 to 5 cells per axis, each spacing a power of two (2**-3 to 2**3,
    which the curls scale by its reciprocal) or any in between."""
    cells = [draw(st.integers(2, 5)) for _ in range(3)]
    lengths = [draw(st.one_of(st.floats(0.5, 2.0),
                              st.integers(-3, 3).map(lambda j, n=n: n * 2.0**j)))
               for n in cells]
    return mb.GridSpec(*cells, *lengths, draw(st.integers(3, 6)), draw(st.floats(0.5, 2.0)))


grids = _grids()

# the least component size from which the kernels take their fast path:
# every size, and none
FLAT_MINS = (0, math.inf)


@contextlib.contextmanager
def _flat_from(size):
    """The kernels take their fast path on components of size elements or more."""
    saved = operators._FLAT_MIN
    operators._FLAT_MIN = size
    try:
        yield
    finally:
        operators._FLAT_MIN = saved


def _materials(grid, rng):
    cells = (grid.nx, grid.ny, grid.nz)
    return [None, MaterialField.identity(grid),
            MaterialField("scalar", rng.uniform(0.5, 2.0, cells)),
            MaterialField("diagonal", rng.uniform(0.5, 2.0, cells + (3,)))]


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_kernels_equal_their_allocating_formulas_with_and_without_out(grid, seed):
    for flat_min in FLAT_MINS:
        with _flat_from(flat_min):
            _kernels_against_formulas(grid, np.random.default_rng(seed))


def _kernels_against_formulas(grid, rng):
    e, h = _field(grid, EDGE, rng), _field(grid, FACE, rng)
    garbage = lambda kind: _field(grid, kind, rng)  # out= must not read its old values

    # work: a flat scratch of three times the largest component, any contents
    work = lambda: rng.standard_normal(3 * max(a.size for a in e.components() + h.components()))

    for got in (curl_edge_to_face(e, grid), curl_edge_to_face(e, grid, garbage(FACE)),
                curl_edge_to_face(e, grid, garbage(FACE), work())):
        _same_field(got, _ref_curl_edge_to_face(e, grid))
    for got in (curl_face_to_edge(h, grid), curl_face_to_edge(h, grid, garbage(EDGE)),
                curl_face_to_edge(h, grid, garbage(EDGE), work())):
        _same_field(got, _ref_curl_face_to_edge(h, grid))
    want = _ref_zero_tangential(e)
    assert zero_tangential(e) is e
    _same_field(e, want)
    cells = rng.standard_normal((grid.nx, grid.ny, grid.nz, 3))
    for f in (e, h):
        _same(cell_average(f, grid), _ref_cell_average(f, grid))
        want = _ref_cell_average_adjoint(cells, grid, f.kind)
        _same_field(cell_average_adjoint(cells, grid, f.kind), want)
        other = _field(grid, f.kind, rng)
        for w in _materials(grid, rng):
            want = _ref_gram_apply(f, w, grid)
            _same_field(gram_apply(f, w, grid), want)
            _same_field(gram_apply(f, w, grid, garbage(f.kind), work()), want)
            g = f.copy()
            _same_field(gram_apply(g, w, grid, g, work()), want)
            want = _ref_weighted_norm_sq(f, w, grid)
            assert weighted_norm_sq(f, w, grid) == want
            assert weighted_norm_sq(f, w, grid, cells) == want
            want = _ref_weighted_inner(f, other, w, grid)
            assert weighted_inner(f, other, w, grid) == want
            assert weighted_inner(f, other, w, grid, cells) == want
            if w is not None:
                want = _ref_material(f, w, grid)
                _same_field(apply_material_staggered(f, w, grid), want)
                _same_field(apply_material_staggered(f.copy(), w, grid, garbage(f.kind)), want)
                g = f.copy()
                _same_field(apply_material_staggered(g, w, grid, g), want)

    traj = _traj(grid, EDGE, rng)
    for k in range(grid.nt):
        want = _ref_ddt_node(traj.node, k, grid)
        _same_field(ddt_node(traj.node, k, grid), want)
        _same_field(ddt_node(traj.node, k, grid, garbage(EDGE), garbage(EDGE)), want)


# ---------------------------------------------------------------------------
# floating-point errors: the fast path raises and warns as the strided formula

_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                      1e308, -1e308])
# under="ignore" lets the fast path run; the others send every call to the
# strided formula
ERRSTATES = (dict(all="raise", under="ignore"), dict(all="warn", under="ignore"),
             dict(all="ignore"), dict(all="raise"), dict(all="warn"))


def _special_values(rng, shape, share):
    """Random values, about a share of them drawn from _SPECIALS."""
    v = rng.standard_normal(shape)
    picks = rng.random(shape) < share
    v[picks] = rng.choice(_SPECIALS, int(picks.sum()))
    return v


def _outcome(fn, errstate):
    """What fn() does under the errstate: ("ok", result) or ("raised", message),
    and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
        warnings.simplefilter("always")
        try:
            result = ("ok", fn())
        except FloatingPointError as exc:
            result = ("raised", str(exc))
    return result, [str(w.message) for w in caught]


def _same_outcome(got, want):
    (got_kind, got_value), got_warnings = got
    (want_kind, want_value), want_warnings = want
    assert (got_kind, got_warnings) == (want_kind, want_warnings)
    if got_kind == "raised":
        assert got_value == want_value
    elif isinstance(want_value, (StaggeredField, FieldTrajectory)):
        _same_field(got_value, want_value)
    else:
        _same(got_value, want_value)


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds, whole=st.booleans(), share=st.sampled_from((0.0, 0.02, 0.3)))
def test_kernels_raise_and_warn_exactly_as_their_strided_formulas(grid, seed, whole, share):
    """Node fields or whole trajectories holding signed zeros, infinities,
    NaN, subnormals and +-1e308: under every errstate, on either path, each
    kernel raises when its formula raises, with its message, gives the same
    warnings, and else returns the formula's bits."""
    rng = np.random.default_rng(seed)
    lead = (grid.nt,) if whole else ()

    def field(kind):
        comps = (_special_values(rng, lead + grid.shape(kind, c), share) for c in "xyz")
        return FieldTrajectory(kind, grid, *comps) if whole else StaggeredField(kind, *comps)

    e, h = field(EDGE), field(FACE)
    w = _materials(grid, rng)[int(rng.integers(0, 4))]
    work = np.empty(3 * max(a.size for a in e.components() + h.components()))
    cases = [(lambda: curl_edge_to_face(e, grid), lambda: _ref_curl_edge_to_face(e, grid)),
             (lambda: curl_edge_to_face(e, grid, _traj_or_field(grid, FACE, lead), work),
              lambda: _ref_curl_edge_to_face(e, grid)),
             (lambda: curl_face_to_edge(h, grid), lambda: _ref_curl_face_to_edge(h, grid)),
             (lambda: curl_face_to_edge(h, grid, _traj_or_field(grid, EDGE, lead), work),
              lambda: _ref_curl_face_to_edge(h, grid))]
    for f in (e, h):
        other = field(f.kind)
        cells = np.empty(lead + (grid.nx, grid.ny, grid.nz, 3))
        cases += [(lambda f=f: weighted_norm_sq(f, w, grid),
                   lambda f=f: _ref_weighted_norm_sq(f, w, grid)),
                  (lambda f=f, o=other: weighted_inner(f, o, w, grid, cells),
                   lambda f=f, o=other: _ref_weighted_inner(f, o, w, grid)),
                  (lambda f=f: gram_apply(f, w, grid), lambda f=f: _ref_gram_apply(f, w, grid))]
    for errstate in ERRSTATES:
        for kernel, formula in cases:
            want = _outcome(formula, errstate)
            for flat_min in FLAT_MINS:
                with _flat_from(flat_min):
                    _same_outcome(_outcome(kernel, errstate), want)


def _traj_or_field(grid, kind, lead):
    """An out= of garbage: a trajectory for a leading time axis, else a node field."""
    comps = [np.full(lead + grid.shape(kind, c), np.nan) for c in "xyz"]
    return FieldTrajectory(kind, grid, *comps) if lead else StaggeredField(kind, *comps)


@pytest.mark.parametrize("errstate", ERRSTATES)
@pytest.mark.parametrize("flat_min", FLAT_MINS)
def test_row_end_pairs_that_overflow_leave_the_curl_as_the_strided_formula_makes_it(
        flat_min, errstate):
    """e.y alternates +-1e308 from row to row: every difference the curl takes
    is 0, but a flat pass along z pairs the end of one row with the start of
    the next, and that difference overflows."""
    grid = mb.GridSpec(4, 4, 4, 1.0, 1.0, 1.0, 3, 1.0)
    e = StaggeredField.zeros(grid, EDGE)
    for j in range(grid.ny):
        e.y[:, j, :] = (-1) ** j * 1e308
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        operators._difference(e.y, ..., -1, grid.hz, np.empty(e.y.size))
    want = _outcome(lambda: _ref_curl_edge_to_face(e, grid), errstate)
    assert want == (("ok", want[0][1]), [])
    with _flat_from(flat_min):
        got = _outcome(lambda: curl_edge_to_face(e, grid), errstate)
    _same_outcome(got, want)
    assert not any(np.any(c) for c in got[0][1].components())


def _kernel_calls(grid, rng):
    """Both curls and gram_apply, each given out= and work=."""
    e, h = _field(grid, EDGE, rng), _field(grid, FACE, rng)
    face, edge = StaggeredField.zeros(grid, FACE), StaggeredField.zeros(grid, EDGE)
    work = np.empty(3 * max(a.size for a in e.components() + h.components()))
    w = MaterialField.diagonal(grid, 1.0, 2.0, 3.0)
    return {"curl_edge_to_face": lambda: curl_edge_to_face(e, grid, face, work),
            "curl_face_to_edge": lambda: curl_face_to_edge(h, grid, edge, work),
            "gram_apply": lambda: gram_apply(e, w, grid, edge, work)}


@pytest.mark.parametrize("flat_min", FLAT_MINS)
def test_a_caller_that_gives_out_and_work_allocates_no_array(flat_min, monkeypatch):
    grid = mb.GridSpec(6, 5, 4, 1.0, 1.0, 1.0, 3, 1.0)

    def refused(*args, **kwargs):
        raise AssertionError("a kernel given out= and work= allocated an array")

    calls = _kernel_calls(grid, np.random.default_rng(4))
    with _flat_from(flat_min):
        for name in ("empty", "zeros", "empty_like", "zeros_like", "full"):
            monkeypatch.setattr(np, name, refused)
        for call in calls.values():
            call()


# ---------------------------------------------------------------------------
# end to end: the CLI's reports with the kernels and with their formulas


def _as_result(got, like, out):
    """The formula's field got as the kernel returns it: in out when given,
    else a trajectory on like's grid for a leading time axis."""
    if out is not None:
        for o, g in zip(out.components(), got.components()):
            np.copyto(o, g)
        return out
    if isinstance(like, FieldTrajectory):
        return FieldTrajectory(got.kind, like.grid, *got.components())
    return got


FORMULAS = {
    "curl_edge_to_face": lambda e, grid, out=None, work=None: _as_result(
        _ref_curl_edge_to_face(e, grid), e, out),
    "curl_face_to_edge": lambda h, grid, out=None, work=None: _as_result(
        _ref_curl_face_to_edge(h, grid), h, out),
    "weighted_norm_sq": lambda u, w, grid, out=None: _ref_weighted_norm_sq(u, w, grid),
    "weighted_inner": lambda u, v, w, grid, out=None: _ref_weighted_inner(u, v, w, grid),
    "gram_apply": lambda u, w, grid, out=None, work=None: _as_result(
        _ref_gram_apply(u, w, grid), u, out),
}


def _cli_outputs(tmp_path, name, cfg, runs):
    """The bytes of the snapshot of CLI solve and of the reports of each CLI
    certify in runs (a list of extra arguments)."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / name)
    assert main(["solve", "--config", str(path), "--out", out]) == 0
    snap = os.path.join(out, "snapshot.bin")
    with open(snap, "rb") as fh:
        outputs = {"snapshot": fh.read()}
    for i, extra in enumerate(runs):
        report = os.path.join(out, str(i))
        assert main(["certify", "--config", str(path), "--snapshot", snap, "--out", report,
                     *extra]) == 0
        for file in ("report.json", "report.csv"):
            with open(os.path.join(report, file), "rb") as fh:
                outputs[i, file] = fh.read()
    return outputs


def _cli_case(n, nt, **blocks):
    return {"grid": {"nx": n, "ny": n, "nz": n, "lx": 1.0, "ly": 1.0, "lz": 1.0, "nt": nt,
                     "T": 1.0 if blocks else 0.25}, **blocks}


@pytest.mark.parametrize("case", ["cavity16", "cavity12", "poly4"])
def test_cli_reports_equal_those_of_the_formulas(case, tmp_path, monkeypatch, capsys):
    """The fast kernels, taken at every size, against their formulas in every
    module that imports them: the snapshot and both reports byte for byte.
    h = 1/16 scales by the reciprocal, h = 1/12 divides."""
    if case == "poly4":
        cfg = _cli_case(4, 9, case={"name": "polynomial_source"}, solver={"method": "exact"},
                        perturbation={"bump": "poly_t2", "delta": 0.01},
                        majorant={"theorem": "T5", "optimizeConfig": {"sweeps": 2}})
        runs = [["--optimize", "full"]]
    else:
        cfg = dict(_cli_case(16 if case == "cavity16" else 12, 17), case={"name": "cavity_mode"})
        runs = [["--theorem", t, "--optimize", o] for t in ("T1", "T5") for o in ("none", "params")]
    monkeypatch.setattr(operators, "_FLAT_MIN", 0)
    fast = _cli_outputs(tmp_path, "fast", cfg, runs)
    for module in (operators, majorant, solver, optimize, problem, cli):
        for name, formula in FORMULAS.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, formula)
    formulas = _cli_outputs(tmp_path, "formulas", cfg, runs)
    capsys.readouterr()
    assert fast.keys() == formulas.keys()
    for key in fast:
        assert fast[key] == formulas[key], key


# ---------------------------------------------------------------------------
# the leapfrog step


def _ref_leapfrog(p):
    """(E, H, Etilde_t) at every node and the energy trace, one new array per
    operation: the textbook allocating leapfrog loop."""
    g, dt = p.grid, p.grid.dt
    mat = lambda f, w: _ref_material(f, w, g)
    E = _ref_zero_tangential(p.E0)
    H_half = p.H0 + 0.5 * dt * (mat(_ref_curl_edge_to_face(E, g) * (-1.0), p.mu_inv)
                                + p.G.node(0))
    Es, Hs = [E], [p.H0]
    energies = [_energy(p, E, p.H0, H_half)]
    prev_half = H_half
    for k in range(g.nt - 1):
        F_half = 0.5 * (p.F.node(k) + p.F.node(k + 1))
        E = E + dt * (mat(_ref_curl_face_to_edge(prev_half, g), p.eps_inv) + F_half)
        E = _ref_zero_tangential(E)
        rhs = mat(_ref_curl_edge_to_face(E, g) * (-1.0), p.mu_inv) + p.G.node(k + 1)
        if k < g.nt - 2:
            next_half = prev_half + dt * rhs
            Hs.append(0.5 * (prev_half + next_half))
            energies.append(_energy(p, E, prev_half, next_half))
        else:
            next_half = prev_half + 0.5 * dt * rhs
            Hs.append(next_half)
        Es.append(E)
        prev_half = next_half
    Ets = [_ref_ddt_node(Es.__getitem__, k, g) for k in range(g.nt)]
    return Es, Hs, Ets, np.array(energies)


def _energy(p, E, H_lo, H_hi):
    g = p.grid
    eE = apply_material_staggered(E, p.eps, g)
    muH = apply_material_staggered(H_lo, p.mu, g)
    return dof_inner(eE, E, g) + dof_inner(muH, H_hi, g)


def _stable_grid(rng, n, c_max=1.0):
    """An n^3 grid whose time step sits inside the leapfrog CFL limit for
    the wave speed c_max, with a few spare time nodes drawn at random."""
    lx, ly, lz = rng.uniform(0.6, 1.5, 3)
    limit = 1.0 / (c_max * math.hypot(n / lx, n / ly, n / lz))
    T = rng.uniform(0.3, 1.0)
    nt = int(math.ceil(T / (0.85 * limit))) + 1 + int(rng.integers(0, 4))
    return mb.GridSpec(n, n, n, lx, ly, lz, max(nt, 3), T)


def _leapfrog_problem(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "cavity":
        grid = _stable_grid(rng, n)
        return mb.assemble_problem(grid, case=mb.cavity_mode(m=1 + int(rng.integers(0, 2))))
    if kind == "polynomial":
        grid = _stable_grid(rng, n)
        return mb.assemble_problem(grid, case=mb.polynomial_source(rng.uniform(0.5, 2.0)))
    d = rng.uniform(0.5, 2.0, 6)
    grid = _stable_grid(rng, n, c_max=1.0 / math.sqrt(d[:3].min() * d[3:].min()))
    return mb.assemble_problem(grid, eps=MaterialField.diagonal(grid, *d[:3]),
                               mu=MaterialField.diagonal(grid, *d[3:]),
                               E0=_field(grid, EDGE, rng), H0=_field(grid, FACE, rng))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("cavity", "polynomial", "diagonal")), n=st.integers(2, 5),
       seed=seeds, track_energy=st.booleans())
def test_the_in_place_leapfrog_equals_the_allocating_loop_at_every_node(kind, n, seed,
                                                                        track_energy):
    p = _leapfrog_problem(kind, n, seed)
    assert p.grid.dt <= 0.9 * cfl_limit(p)
    if kind == "polynomial":
        assert all(np.any(f.x) or np.any(f.y) or np.any(f.z)
                   for f in (p.F.load(), p.G.load(), p.K.load()))
    got = mb.leapfrog_solve(p, track_energy=track_energy)
    Es, Hs, Ets, energies = _ref_leapfrog(p)
    for k in range(p.grid.nt):
        _same_field(got.Etilde.node(k), Es[k])
        _same_field(got.Htilde.node(k), Hs[k])
        _same_field(got.Etilde_t.node(k), Ets[k])
    if track_energy:
        _same(got.energy_trace, energies)
    else:
        assert got.energy_trace is None


@settings(max_examples=30, deadline=None)
@given(material=st.sampled_from(("identity", "scalar", "diagonal", "polynomial_source")),
       given_sources=st.sampled_from(("FG", "F", "G")), n=st.integers(2, 4),
       nt=st.integers(3, 9), seed=seeds)
def test_a_node_of_K_is_the_row_of_the_whole_trajectory_formula(material, given_sources, n,
                                                                nt, seed):
    """K(k) against row k of eps D(F) + curl G on whole trajectories."""
    rng = np.random.default_rng(seed)
    grid = mb.GridSpec(n, n + 1, n, *rng.uniform(0.5, 1.5, 3), nt, rng.uniform(0.5, 2.0))
    if material == "polynomial_source":
        p = mb.assemble_problem(grid, case=mb.polynomial_source(rng.uniform(0.5, 2.0)))
        F, G = p.F.load(), p.G.load()
    else:
        eps = {"identity": MaterialField.identity(grid),
               "scalar": MaterialField.scalar(grid, rng.uniform(0.5, 2.0)),
               "diagonal": MaterialField.diagonal(grid, *rng.uniform(0.5, 2.0, 3))}[material]
        sources = {"F": _traj(grid, EDGE, rng), "G": _traj(grid, FACE, rng)}
        p = mb.assemble_problem(grid, eps=eps, **{s: sources[s] for s in given_sources})
        F, G = (sources[s] if s in given_sources else FieldTrajectory.zeros(grid, kind)
                for s, kind in (("F", EDGE), ("G", FACE)))
    want = (apply_material_staggered(trajectory_derivative(F), p.eps, grid)
            + curl_face_to_edge(G, grid))
    # two passes, then a random order: the window on F is refilled as needed
    for k in [*range(nt), *range(nt), *rng.permutation(nt)]:
        _same_field(p.K.node(k), want.node(k))


def test_a_sink_receives_fields_the_solver_later_overwrites():
    """set_node must copy: a sink that keeps references sees the buffers move on."""
    p = _leapfrog_problem("cavity", 3, 1)

    class Keep:
        def __init__(self):
            self.fields = []

        def set_node(self, k, f):
            self.fields.append(f)

    out = mb.leapfrog_solve(p, out=SolveOutput(Keep(), Keep(), Keep()))
    held = {id(f) for f in out.Etilde.fields}
    assert len(held) <= 3 < p.grid.nt


def test_the_solve_samples_each_F_node_once():
    p = _leapfrog_problem("polynomial", 3, 2)
    sampled = []
    node = p.F.node
    p.F.node = lambda k: sampled.append(k) or node(k)
    mb.leapfrog_solve(p)
    assert sampled == list(range(p.grid.nt))


# ---------------------------------------------------------------------------
# the certify series


def _ref_series(p, approx, Y, theorem):
    """The allocating per-node series: every residual a new field.  T1/T3
    are T5/T4 with Etilde_t = dEtilde/dt, whose coupling is 0."""
    g = p.grid
    nt = g.nt
    E = approx.Etilde
    mu_inv_curl = lambda e: _ref_mu_inv_curl(p, e)
    Yn = (lambda j: mu_inv_curl(E.node(j))) if Y is None else Y.node
    Kt = lambda j: mu_inv_curl(E.node(j)) - Yn(j)
    dE = lambda j: _ref_ddt_node(E.node, j, g)
    derived = theorem in ("T1", "T3")
    Et = dE if derived else approx.Etilde_t.node
    kt_sq, edge_sq, face_sq, coup = (np.zeros(nt) for _ in range(4))
    for k in range(nt):
        curl_Y = _ref_curl_face_to_edge(Yn(k), g)
        dEt = apply_material_staggered(_ref_ddt_node(Et, k, g), p.eps, g)
        edge = dEt + curl_Y - p.K.node(k)
        face = mu_inv_curl(Et(k)) - _ref_ddt_node(Yn, k, g)
        face_sq[k] = _ref_weighted_norm_sq(face, p.mu, g)
        edge_sq[k] = _ref_weighted_norm_sq(edge, p.eps_inv, g)
        if Y is not None:
            kt_sq[k] = _ref_weighted_norm_sq(Kt(k), p.mu, g)
            if not derived:
                coupling_curl = _ref_curl_edge_to_face(Et(k) - dE(k), g)
                coup[k] = _ref_weighted_inner(Kt(k), coupling_curl, None, g)
    first0 = Et(0)
    curl_e0 = _ref_curl_edge_to_face(p.E0 - E.node(0), g)
    m0 = mu_inv_curl(E.node(0))
    ktilde0 = m0 - (m0 if Y is None else Y.node(0))
    zp = ZeroTermParts(_ref_weighted_norm_sq(p.E0prime - first0, p.eps, g),
                       _ref_weighted_norm_sq(curl_e0, p.mu_inv, g),
                       _ref_weighted_inner(ktilde0, curl_e0, None, g),
                       _ref_weighted_norm_sq(ktilde0, p.mu, g))
    return kt_sq, edge_sq, face_sq, coup, zp


def _ref_true_error(exact, approx, p, rho, gam, theorem):
    g = p.grid
    derived = theorem in ("T1", "T3")
    n = np.empty(g.nt)
    for k in range(g.nt):
        first = (_ref_ddt_node(approx.Etilde.node, k, g) if derived
                 else approx.Etilde_t.node(k))
        first_err = exact.Etilde_t.node(k) - first
        curl_err = _ref_curl_edge_to_face(exact.Etilde.node(k) - approx.Etilde.node(k), g)
        n[k] = (_ref_weighted_norm_sq(first_err, p.eps, g)
                + rho[k] * _ref_weighted_norm_sq(curl_err, p.mu_inv, g))
    weight = gam if theorem in ("T3", "T4") else np.ones_like(gam)
    return n, cumulative_trapezoid(weight * n, g.dt)


def _certify_inputs(case, seed):
    rng = np.random.default_rng(seed)
    if case == "cavity":
        mode = mb.cavity_mode(m=2, n=1)
        p = mb.assemble_problem(_stable_grid(rng, 4), case=mode)
        return p, mb.leapfrog_solve(p), exact_reference(mode, p.grid)
    grid = mb.GridSpec(3, 2, 3, 1.0, 0.7, 1.3, 7, 0.8)
    d = rng.uniform(0.5, 2.0, 6)
    p = mb.assemble_problem(grid, eps=MaterialField.diagonal(grid, *d[:3]),
                            mu=MaterialField("scalar", rng.uniform(0.5, 2.0, (3, 2, 3))),
                            F=_traj(grid, EDGE, rng), G=_traj(grid, FACE, rng),
                            E0=_field(grid, EDGE, rng), H0=_field(grid, FACE, rng))
    approx = SolveOutput(_traj(grid, EDGE, rng), _traj(grid, FACE, rng), _traj(grid, EDGE, rng))
    exact = SolveOutput(_traj(grid, EDGE, rng), None, _traj(grid, EDGE, rng))
    return p, approx, exact


@pytest.mark.parametrize("case", ["cavity", "random"])
@pytest.mark.parametrize("explicit_Y", [False, True])
@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T5"])
def test_series_and_certify_equal_the_allocating_pass(theorem, explicit_Y, case):
    p, approx, exact = _certify_inputs(case, 11)
    g = p.grid
    rng = np.random.default_rng(3)
    Y = _traj(g, FACE, rng) if explicit_Y else None
    kt_sq, edge_sq, face_sq, coup, zp = _ref_series(p, approx, Y, theorem)

    s = series(p, approx, Y, theorem)
    for got, want in ((s.kt_sq, kt_sq), (s.edge_sq, edge_sq), (s.face_sq, face_sq),
                      (s.coup, coup)):
        _same(got, want)
    assert s.zp == zp and s.error_sq is None

    constant = theorem in ("T1", "T5")
    rho = 0.4 if constant else np.linspace(0.3, 0.6, g.nt)
    gamma = 1.5 if constant else np.linspace(0.8, 2.0, g.nt)
    params = mb.MajorantParams(rho=rho, gamma=gamma, Y=Y, zero_variant="z")
    rep = mb.certify(p, approx, params, theorem=theorem, exact=exact)
    rho_n, gam_n = params.rho_nodes(g.nt), params.gamma_nodes(g.nt)
    ref = NodeSeries(kt_sq, edge_sq, face_sq, coup, zp)
    f = functional(ref, rho_n, gam_n, "z", g.dt)
    b, B = bound_b_and_B(f, gam_n, g.dt, gamma_weighted_N=theorem in ("T3", "T4"))
    n, N = _ref_true_error(exact, approx, p, rho_n, gam_n, theorem)
    for got, want in ((rep.f, f), (rep.bound_b, b), (rep.bound_B, B), (rep.trueN, n),
                      (rep.trueBigN, N)):
        _same(got, want)
    for got, want in zip(true_error_norms(exact, approx, p, params, theorem), (n, N)):
        _same(got, want)


# ---------------------------------------------------------------------------
# node reads


class _Counted:
    """A trajectory stand-in that counts node reads."""

    def __init__(self, traj, counter):
        self._traj, self._counter = traj, counter
        self.grid, self.kind = traj.grid, traj.kind

    def node(self, k):
        self._counter.append(k)
        return self._traj.node(k)


@pytest.mark.parametrize("explicit_Y", [False, True])
@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T5"])
def test_certify_reads_each_node_once_plus_the_zero_term_s_window(theorem, explicit_Y):
    p, approx, exact = _certify_inputs("random", 5)
    g = p.grid
    reads = []
    counted = SolveOutput(_Counted(approx.Etilde, reads), approx.Htilde,
                          _Counted(approx.Etilde_t, reads))
    Y = _traj(g, FACE, np.random.default_rng(2)) if explicit_Y else None
    constant = theorem in ("T1", "T5")
    params = mb.MajorantParams(rho=0.5 if constant else np.full(g.nt, 0.5), Y=Y)
    mb.certify(p, counted, params, theorem=theorem, exact=exact)
    # Etilde once per node and Etilde_t too when the theorem reads it; the
    # zero term's windows read Etilde(0) and Etilde_t(0), or the three nodes
    # of dEtilde/dt(0)
    per_node = 2 if theorem in ("T4", "T5") else 1
    zero_term = 2 if theorem in ("T4", "T5") else 3
    assert len(reads) == per_node * g.nt + zero_term


def test_cli_certify_reads_2nt_plus_2_archived_nodes(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"grid": {"nx": 8, "ny": 8, "nz": 8, "lx": 1.0, "ly": 1.0, "lz": 1.0, '
                   '"nt": 33, "T": 1.0}, "case": {"name": "cavity_mode"}}')
    out = str(tmp_path / "out")
    assert main(["solve", "--config", str(cfg), "--out", out]) == 0
    reads = []
    node = snapshot._Stored.node
    monkeypatch.setattr(snapshot._Stored, "node",
                        lambda self, k: reads.append(k) or node(self, k))
    assert main(["certify", "--config", str(cfg), "--snapshot", out + "/snapshot.bin",
                 "--out", out]) == 0
    capsys.readouterr()
    assert len(reads) == 2 * 33 + 2


# ---------------------------------------------------------------------------
# exact samples from profiles kept per grid


def _direct_cavity(m, n, A):
    """The cavity mode sampled straight from its formulas."""
    def fields(grid, t):
        w = math.pi * math.hypot(m / grid.lx, n / grid.ly)
        bx, by = m * math.pi / grid.lx, n * math.pi / grid.ly
        zero = lambda X, Y, Z: 0.0 * X
        s, c = math.sin(w * t) / w, math.cos(w * t)
        return {
            "E": StaggeredField.sample(grid, EDGE, zero, zero, lambda X, Y, Z: A * np.sin(
                bx * X) * np.sin(by * Y) * math.cos(w * t)),
            "dtE": StaggeredField.sample(grid, EDGE, zero, zero, lambda X, Y, Z: -A * w * np.sin(
                bx * X) * np.sin(by * Y) * math.sin(w * t)),
            "H": StaggeredField.sample(
                grid, FACE, lambda X, Y, Z: -A * by * np.sin(bx * X) * np.cos(by * Y) * s,
                lambda X, Y, Z: A * bx * np.cos(bx * X) * np.sin(by * Y) * s, zero),
            "dtH": StaggeredField.sample(
                grid, FACE, lambda X, Y, Z: -A * by * np.sin(bx * X) * np.cos(by * Y) * c,
                lambda X, Y, Z: A * bx * np.cos(bx * X) * np.sin(by * Y) * c, zero),
        }
    return fields


def _direct_polynomial(A):
    def fields(grid, t):
        X = lambda x: 4.0 * x * (grid.lx - x) / grid.lx**2
        dX = lambda x: 4.0 * (grid.lx - 2.0 * x) / grid.lx**2
        Y = lambda y: 4.0 * y * (grid.ly - y) / grid.ly**2
        dY = lambda y: 4.0 * (grid.ly - 2.0 * y) / grid.ly**2
        s = t / grid.T
        q, dq = 1.0 + s + 0.5 * s * s, (1.0 + t / grid.T) / grid.T
        zero = lambda Xc, Yc, Zc: 0.0 * Xc
        return {
            "E": StaggeredField.sample(grid, EDGE, zero, zero,
                                       lambda Xc, Yc, Zc: A * X(Xc) * Y(Yc) * q),
            "dtE": StaggeredField.sample(grid, EDGE, zero, zero,
                                         lambda Xc, Yc, Zc: A * X(Xc) * Y(Yc) * dq),
            "H": StaggeredField.zeros(grid, FACE),
            "dtH": StaggeredField.zeros(grid, FACE),
            "G": StaggeredField.sample(grid, FACE, lambda Xc, Yc, Zc: A * X(Xc) * dY(Yc) * q,
                                       lambda Xc, Yc, Zc: -A * dX(Xc) * Y(Yc) * q, zero),
        }
    return fields


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(("cavity", "polynomial")), grid=grids,
       m=st.integers(1, 3), n=st.integers(1, 3), A=st.floats(-2.0, 2.0),
       times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_profile_samples_equal_the_direct_formula(which, grid, m, n, A, times):
    if which == "cavity":
        case, direct = mb.cavity_mode(m=m, n=n, amplitude=A), _direct_cavity(m, n, A)
    else:
        case, direct = mb.polynomial_source(A), _direct_polynomial(A)
    samplers = {"E": case.sample_E, "dtE": case.sample_dtE, "H": case.sample_H,
                "dtH": case.sample_dtH}
    if case.sample_G is not None:
        samplers["G"] = case.sample_G
        assert case.sample_F is case.sample_dtE
    for t in times + times:  # the second round reads the kept profiles
        want = direct(grid, t)
        for name, sample in samplers.items():
            got = sample(grid, t)
            _same_field(got, want[name])
            assert all(np.array_equal(np.signbit(a), np.signbit(b))
                       for a, b in zip(got.components(), want[name].components()))
