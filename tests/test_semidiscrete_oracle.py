"""The exact Yee semi-discrete solution as a reference.

On a small unit-material cavity, A = curl^T mu^-1 curl on the interior
edge dofs is assembled from unit-vector products of the two curls and
diagonalised by a dense eigh.  The semi-discrete problem E'' + A E = 0
with the leapfrog's own initial data E(0) = E0, E'(0) = E0' is then solved
in closed form: each eigen-component with lambda > 0 is a cosine and a
sine of frequency sqrt(lambda), and each null component evolves linearly.
This is the solution the bound covers, so the true error against it is
the error the bound must dominate, free of the gap to the continuous mode.

Besides the leapfrog, classical RK4 on (E, E') runs on the same dense A:
an integrator of fourth order whose velocity is its own, not a difference
of E.
"""

import json
import os

import numpy as np
import pytest

import maxbound as mb
from maxbound import snapshot
from maxbound.cli import EXIT_OK, main
from maxbound.config import problem_from_config
from maxbound.fields import EDGE, FACE, FieldTrajectory, StaggeredField
from maxbound.operators import curl_edge_to_face, curl_face_to_edge, zero_tangential
from maxbound.solver import SolveOutput, exact_reference


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
        self.A = np.array(cols).T
        assert np.array_equal(self.A, self.A.T)
        self.lam, self.V = np.linalg.eigh(self.A)
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


def _rk4(p, oracle):
    """Classical RK4 on E' = V, V' = -A E over the interior edges, from p's
    E0 and E0', with every node of E and of V as Etilde and Etilde_t."""
    g, A, dt = p.grid, oracle.A, p.grid.dt
    e, v = (_flat(f)[oracle.inner] for f in (p.E0, p.E0prime))
    E, V = (FieldTrajectory.zeros(g, EDGE) for _ in range(2))
    for k in range(g.nt):
        E.set_node(k, oracle.field(e, g))
        V.set_node(k, oracle.field(v, g))
        k1 = (v, -A @ e)
        k2 = (v + 0.5 * dt * k1[1], -A @ (e + 0.5 * dt * k1[0]))
        k3 = (v + 0.5 * dt * k2[1], -A @ (e + 0.5 * dt * k2[0]))
        k4 = (v + dt * k3[1], -A @ (e + dt * k3[0]))
        e = e + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = v + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return SolveOutput(E, None, V)


@pytest.mark.parametrize("nt", [9, 17])
@pytest.mark.parametrize("mode", MODES)
def test_the_bound_dominates_the_error_of_rk4_against_the_oracle(nt, mode):
    # T1 and T5 at the default parameters and after two optimizer sweeps; at
    # mode (1, 2) under T5, b(T)/n(T) is 5.0e3 and 6.7e4 at the default
    # parameters.  At node 0 under T5, b = 0 and n is the rounding of the
    # oracle's eigenbasis round trip of E0 and E0'
    p = _cavity(4, nt, mode)
    oracle = SemiDiscrete(p)
    approx, exact = _rk4(p, oracle), oracle.reference(p.grid)
    energy = mb.weighted_norm_sq(p.E0, p.eps, p.grid) + mb.weighted_norm_sq(p.H0, p.mu, p.grid)
    for theorem in ("T1", "T5"):
        default = mb.certify(p, approx, mb.MajorantParams(), theorem, exact)
        optimized, _ = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=2), theorem=theorem,
                                       exact=exact)
        for report in (default, optimized):
            assert np.all(report.bound_b[1:] >= report.trueN[1:])
            assert report.bound_b[0] >= report.trueN[0] - 1e-12 * energy
            assert report.trueN[-1] > 0.0


def test_cli_full_optimization_of_an_rk4_snapshot_is_the_library_optimizer(
        tmp_path, capsys, monkeypatch):
    # an archive another program wrote, H~ = 0: certify --optimize full reads
    # E~ and E~_t alone and reports what optimize_all reports on them
    cfg = {"grid": {"nx": 4, "ny": 4, "nz": 4, "lx": 1.0, "ly": 1.0, "lz": 1.0, "nt": 9,
                    "T": 1.0},
           "case": {"name": "cavity_mode", "parameters": {"m": 1, "n": 2}},
           "majorant": {"theorem": "T5", "optimize": "full", "optimizeConfig": {"sweeps": 2}}}
    p, case = problem_from_config(cfg)
    approx = _rk4(p, SemiDiscrete(p))
    snap, path = str(tmp_path / "rk4.bin"), str(tmp_path / "run.json")
    mb.save_snapshot(snap, p.grid, SolveOutput(approx.Etilde, FieldTrajectory.zeros(p.grid, FACE),
                                               approx.Etilde_t))
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    loaded = []
    load = snapshot._Stored.load

    def recorded(self):
        loaded.append(self.name)
        return load(self)

    monkeypatch.setattr(snapshot._Stored, "load", recorded)
    out = str(tmp_path / "out")
    assert main(["certify", "--config", path, "--snapshot", snap, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert loaded == ["Etilde", "Etilde_t"]
    want, _ = mb.optimize_all(p, approx, mb.OptimizeConfig(sweeps=2), theorem="T5",
                              exact=exact_reference(case, p.grid))
    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    for key in ("bound_b", "bound_B", "trueN"):
        assert [row[key] for row in doc["rows"]] == getattr(want, key).tolist()
    for key in ("rho", "gamma"):
        assert doc["parameters"][key] == [float(v) for v in getattr(want, key)]
    assert doc["parameters"]["cg_sweeps"] == json.loads(json.dumps(want.cg_sweeps))
