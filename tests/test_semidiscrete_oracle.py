"""The exact Yee semi-discrete solution as a reference.

On a small unit-material cavity, A = curl^T mu^-1 curl on the interior
edge dofs is assembled from unit-vector products of the two curls and
diagonalised by a dense eigh.  The semi-discrete problem E'' + A E = 0
with the leapfrog's own initial data E(0) = E0, E'(0) = E0' is then solved
in closed form: each eigen-component with lambda > 0 is a cosine and a
sine of frequency sqrt(lambda), and each null component evolves linearly.
This is the solution the bound covers, so the true error against it is
the error the bound must dominate, free of the gap to the continuous mode.
"""

import numpy as np
import pytest

import maxbound as mb
from maxbound.fields import EDGE, FieldTrajectory, StaggeredField
from maxbound.operators import curl_edge_to_face, curl_face_to_edge, zero_tangential
from maxbound.solver import SolveOutput


def _flat(f):
    return np.concatenate([c.ravel() for c in f.components()])


def _edge_field(values, grid):
    """The edge field whose dofs, in the order of _flat, are values."""
    f = StaggeredField.zeros(grid, EDGE)
    lo = 0
    for c in f.components():
        c[...] = values[lo:lo + c.size].reshape(c.shape)
        lo += c.size
    return f


def _curl_curl(e, grid):
    return curl_face_to_edge(curl_edge_to_face(e, grid), grid)


class SemiDiscrete:
    """E(t), E'(t) and E''(t) on the interior edges (those with no tangential
    trace), as dense vectors, for the problem p with unit materials."""

    def __init__(self, p):
        g = p.grid
        ones = StaggeredField.zeros(g, EDGE)
        for c in ones.components():
            c[...] = 1.0
        self.size = _flat(ones).size
        self.inner = np.flatnonzero(_flat(zero_tangential(ones)))
        cols = []
        for j in self.inner:
            unit = np.zeros(self.size)
            unit[j] = 1.0
            cols.append(_flat(_curl_curl(_edge_field(unit, g), g))[self.inner])
        A = np.array(cols).T
        assert np.array_equal(A, A.T)
        self.lam, self.V = np.linalg.eigh(A)
        self.null = self.lam < 1e-10 * self.lam.max()
        self.omega = np.sqrt(np.where(self.null, 1.0, self.lam))
        self.e0 = self.V.T @ _flat(p.E0)[self.inner]
        self.v0 = self.V.T @ _flat(p.E0prime)[self.inner]

    def __call__(self, t):
        w, e0, v0, null = self.omega, self.e0, self.v0, self.null
        c = np.where(null, e0 + v0 * t, e0 * np.cos(w * t) + v0 * np.sin(w * t) / w)
        d = np.where(null, v0, -e0 * w * np.sin(w * t) + v0 * np.cos(w * t))
        a = np.where(null, 0.0, -self.lam * c)
        return self.V @ c, self.V @ d, self.V @ a

    def field(self, values, grid):
        full = np.zeros(self.size)
        full[self.inner] = values
        return _edge_field(full, grid)

    def reference(self, grid):
        """The exact E and E' at the time nodes, as certify's exact input."""
        E, dE = (FieldTrajectory.zeros(grid, EDGE) for _ in range(2))
        for k, t in enumerate(grid.times):
            e, d, _ = self(t)
            E.set_node(k, self.field(e, grid))
            dE.set_node(k, self.field(d, grid))
        return SolveOutput(E, None, dE)


def _cavity(n, nt, mode):
    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, 1.0)
    return mb.assemble_problem(grid, case=mb.cavity_mode(*mode))


MODES = [(1, 2), (1, 1), (2, 2)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mode", MODES)
def test_the_oracle_solves_the_semi_discrete_equation(n, mode):
    # eps E'' + A E = 0 at the nodes, A applied by the package's own curls
    p = _cavity(n, 9, mode)
    grid = p.grid
    oracle = SemiDiscrete(p)
    for got, want in zip(oracle(0.0), (p.E0, p.E0prime)):
        want = _flat(want)[oracle.inner]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for t in grid.times:
        e, _, a = oracle(t)
        Ae = _flat(_curl_curl(oracle.field(e, grid), grid))[oracle.inner]
        assert np.linalg.norm(a + Ae) <= 1e-12 * np.linalg.norm(Ae)


@pytest.mark.parametrize("mode", MODES)
def test_leapfrog_converges_to_the_oracle_at_second_order_in_dt(mode):
    # on one 4^3 grid the semi-discrete solution is fixed, so the error is
    # the time discretization's alone
    oracle = SemiDiscrete(_cavity(4, 9, mode))
    errors = []
    for nt in (9, 17, 33):
        p = _cavity(4, nt, mode)
        E = mb.leapfrog_solve(p).Etilde
        errors.append(max(np.linalg.norm(_flat(E.node(k))[oracle.inner] - oracle(t)[0])
                          for k, t in enumerate(p.grid.times)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.9), orders


@pytest.mark.parametrize("theorem", ["T1", "T5"])
@pytest.mark.parametrize("nt", [9, 17])
@pytest.mark.parametrize("mode", MODES)
def test_the_bound_dominates_the_error_against_the_oracle(theorem, nt, mode):
    # certify of leapfrog output at the default parameters; at mode (1, 2)
    # b(T)/n(T) is 67 at nt = 9 and 44 at nt = 17
    p = _cavity(4, nt, mode)
    report = mb.certify(p, mb.leapfrog_solve(p), mb.MajorantParams(), theorem,
                        SemiDiscrete(p).reference(p.grid))
    assert np.all(report.bound_b >= report.trueN)
    assert report.trueN[-1] > 0.0
