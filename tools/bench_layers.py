"""Layer harness: wall time and traced peak memory of the certify path,
the optimizer and CLI certify, size by size, each size in a process of its
own.

    python3 tools/bench_layers.py --src SRC... --label NAME... --out BENCH.json
        [--sizes 8x33 16x65] [--repeats 5] [--processes 1]

SRC is the ``src`` directory of a checkout to measure (this one by
default), and NAME the key of its run in the file, which keeps the labels
it already holds; two checkouts go into one file under two labels.  Every
size runs in a fresh process with one BLAS thread, so an out-of-memory
kill loses that size alone.  With ``--processes N`` each size runs in N
such processes per checkout, the checkouts taking turns process by
process, so that the host's drift falls on all of them alike; each wall
time and peak is then the median over a checkout's N processes (the speed
of a whole process varies from one to the next on a small shared
machine), ``wall_s_each`` keeps each process's own, and every b(T) and
margin must agree across them.

The input of size n x nt is of the poly-optimize benchmark's kind: the exact
projection of ``polynomial_source`` on the n^3 unit cube with nt time
nodes, with 1e-2 times the ``poly_t2`` bump added to Etilde and its time
derivative to Etilde_t, certified by T5 against the exact projection.
Per size it records, each as the median wall time over the repeats and
the tracemalloc peak of one further call:

- ``assemble``: ``problem_from_config`` on the config of the input's
  problem, the grid and the ``polynomial_source`` case;
- ``certify``: certify at rho = 0.5, gamma = 1;
- ``optimize_all``: two sweeps from the default start;
- ``closing_report``: the report optimize_all closes with, at its
  parameters: from the series of its Y, which it holds, and a true-error
  pass;
- ``hessian_m1`` and ``hessian_mnt``: one product of the Y solve's block
  Hessian on 1 and on all nt eigen-blocks, its buffers made by an
  earlier product, as in the solve's loop;
- ``gamma_rho_search``: the (gamma, rho) search of optimize_all on the
  series of its optimized Y;
- ``curl_edge_to_face``, ``curl_face_to_edge``, ``apply_material_staggered``,
  ``gram_apply`` and ``trajectory_derivative``: each kernel once on a
  whole trajectory, Etilde or the face trajectory curl Etilde, the
  material being the diagonal (1, 2, 3);
- ``node_curl_edge_to_face``, ``node_curl_face_to_edge``,
  ``node_weighted_norm_sq_edge`` and ``node_weighted_norm_sq_face``: the
  same on one node of those trajectories, each given its out= as
  ``series`` and ``leapfrog_solve`` give it, the norms weighted by the
  problem's eps and mu;
- ``cli_full_T1`` and ``cli_full_T5``: CLI ``certify --optimize full``
  (two sweeps) under T1 and T5, reading the input from a snapshot file and
  writing both reports;

b(T) of certify, of optimize_all, of the (gamma, rho) search and of both
CLI runs, which must not move with a speed-up; and ``margin``, the
minimum over the nodes after node 0 of b - trueN for certify at rho =
0.5, gamma = 1 and for optimize_all, on the same input with Etilde_t left
exact, so that Etilde_t is not dEtilde/dt.  Node 0 is left out because
the bump vanishes there, so that b = trueN = 0 at it.  A negative margin
is a b below the true error; a bound the program refuses is recorded as
its error message.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}


def _inputs(n, nt, perturb_velocity=True):
    """(problem, approx, exact); approx's Etilde_t is exact's when
    perturb_velocity is false."""
    import maxbound as mb
    from maxbound.problem import bump_field, bump_field_dt

    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, 1.0)
    case = mb.polynomial_source()
    p = mb.assemble_problem(grid, case=case)
    exact = mb.project_exact(case, grid)
    bump, bump_dt = (mb.FieldTrajectory.sample(grid, mb.EDGE, lambda t, f=f: f("poly_t2", grid, t))
                     for f in (bump_field, bump_field_dt))
    velocity = exact.Etilde_t + 1e-2 * bump_dt if perturb_velocity else exact.Etilde_t
    approx = mb.SolveOutput(exact.Etilde + 1e-2 * bump, exact.Htilde, velocity)
    return p, approx, exact


def _config(n, nt, **blocks):
    """The run config of the n^3 x nt polynomial_source input with the blocks given."""
    return {"grid": {"nx": n, "ny": n, "nz": n, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                     "nt": nt, "T": 1.0},
            "case": {"name": "polynomial_source"}, **blocks}


def _measure(fn, repeats):
    """Median wall time over the repeats, then the traced peak of one call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"wall_s": statistics.median(times), "peak_mb": peak / 2**20}


def _margin(run):
    """min(b - trueN) over the nodes after node 0 of the report run()
    returns, or the refusal's message."""
    from maxbound.errors import MaxboundError

    try:
        report = run()
    except MaxboundError as exc:
        return f"refused: {exc}"
    return float((report.bound_b - report.trueN)[1:].min())


def _kernels(p, Etilde, repeats):
    """The records of the kernels on the whole trajectory Etilde and on the
    face trajectory of its curl, and on one node of each."""
    import numpy as np

    import maxbound as mb
    from maxbound import operators

    g = p.grid
    material = mb.MaterialField.diagonal(g, 1.0, 2.0, 3.0)
    face = operators.curl_edge_to_face(Etilde, g)
    runs = {
        "curl_edge_to_face": lambda: operators.curl_edge_to_face(Etilde, g),
        "curl_face_to_edge": lambda: operators.curl_face_to_edge(face, g),
        "apply_material_staggered": lambda: operators.apply_material_staggered(
            Etilde, material, g),
        "gram_apply": lambda: operators.gram_apply(Etilde, material, g),
        "trajectory_derivative": lambda: operators.trajectory_derivative(Etilde),
    }
    records = {name: _measure(run, repeats) for name, run in runs.items()}
    k = g.nt // 2
    e, h = Etilde.node(k), face.node(k)
    e_out, h_out = (mb.StaggeredField.zeros(g, kind) for kind in (mb.EDGE, mb.FACE))
    cells = np.zeros((g.nx, g.ny, g.nz, 3))
    nodes = {
        "node_curl_edge_to_face": lambda: operators.curl_edge_to_face(e, g, h_out),
        "node_curl_face_to_edge": lambda: operators.curl_face_to_edge(h, g, e_out),
        "node_weighted_norm_sq_edge": lambda: operators.weighted_norm_sq(e, p.eps, g, cells),
        "node_weighted_norm_sq_face": lambda: operators.weighted_norm_sq(h, p.mu, g, cells),
    }
    # a node takes microseconds: the median is over ten times the repeats
    records.update((name, _measure(run, 10 * repeats)) for name, run in nodes.items())
    return records


def _cli_full(n, nt, approx, repeats, workdir):
    """The records of CLI certify --optimize full under T1 and T5 on approx,
    written to a snapshot in workdir, and their b(T)."""
    import maxbound as mb
    from maxbound.cli import main

    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, 1.0)
    snap = os.path.join(workdir, "snapshot.bin")
    mb.save_snapshot(snap, grid, approx)
    records, bounds = {}, {}
    for theorem in ("T1", "T5"):
        cfg = os.path.join(workdir, f"{theorem}.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(_config(n, nt, majorant={"theorem": theorem, "optimize": "full",
                                               "optimizeConfig": {"sweeps": 2}}), fh)
        out = os.path.join(workdir, theorem)
        argv = ["certify", "--config", cfg, "--snapshot", snap, "--out", out]

        def certify():
            # main reports on stdout and warns on stderr; the record is stdout's last line
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if main(argv) != 0:
                    raise RuntimeError(f"certify {theorem} failed")

        records[f"cli_full_{theorem}"] = _measure(certify, repeats)
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            bounds[f"cli_full_{theorem}"] = json.load(fh)["rows"][-1]["bound_b"]
    return records, bounds


def measure_size(n, nt, repeats=5):
    """The record of one size (see the module docstring), in this process."""
    import warnings

    import numpy as np

    import maxbound as mb
    import maxbound.majorant as majorant
    import maxbound.optimize as optimize
    from maxbound.config import problem_from_config

    p, approx, exact = _inputs(n, nt)
    cfg = mb.OptimizeConfig(sweeps=2)
    params = mb.MajorantParams(rho=0.5, gamma=1.0)
    record = {"size": f"{n}^3 x {nt}"}
    record["assemble"] = _measure(lambda: problem_from_config(_config(n, nt)), repeats)
    record["certify"] = _measure(lambda: mb.certify(p, approx, params, "T5", exact), repeats)

    def optimize_all():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return mb.optimize_all(p, approx, cfg, "T5", exact=exact)

    record["optimize_all"] = _measure(optimize_all, repeats)
    report, best = optimize_all()
    s, _ = majorant.residual_series(p, approx, best.Y, "T5")

    def closing():
        held = replace(s, error_sq=majorant.error_series(p, approx, exact, "T5"))
        return majorant.report_from_series(p, approx, best, "T5", held)

    record["closing_report"] = _measure(closing, repeats)

    def gamma_rho_search():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return optimize._search_gamma_rho(s, cfg, "z_hat", p.grid)

    record["gamma_rho_search"] = _measure(gamma_rho_search, repeats)
    record.update(_kernels(p, approx.Etilde, repeats))

    quad = optimize.BoundQuadratic(p, approx, best.rho, best.gamma)
    _, lam, scale = optimize._scaled_eigenbasis(quad, optimize.spatial_diagonals(p))
    w = np.random.default_rng(0).standard_normal(scale.shape)
    for m, name in ((1, "hessian_m1"), (nt, "hessian_mnt")):
        apply_A = optimize._block_hessian(p, lam, scale)
        rows = np.arange(m)
        apply_A(w[:m], rows)
        record[name] = _measure(lambda: apply_A(w[:m], rows), 10 * repeats)

    with tempfile.TemporaryDirectory() as workdir:
        cli_records, cli_bounds = _cli_full(n, nt, approx, repeats, workdir)
    record.update(cli_records)
    record["bound_T"] = dict(
        certify=float(mb.certify(p, approx, params, "T5", exact).bound_b[-1]),
        optimize_all=float(report.bound_b[-1]), gamma_rho_search=gamma_rho_search()[2],
        **cli_bounds)

    _, independent, _ = _inputs(n, nt, perturb_velocity=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        record["margin"] = {
            "certify": _margin(lambda: mb.certify(p, independent, params, "T5", exact)),
            "optimize_all": _margin(
                lambda: mb.optimize_all(p, independent, cfg, "T5", exact=exact)[0]),
        }
    return record


def _child(args):
    sys.path.insert(0, args.src[0])
    n, nt = (int(v) for v in args.size.split("x"))
    print(json.dumps(measure_size(n, nt, args.repeats)))


def _median_record(records):
    """One size's record from those of several processes: each wall time and
    peak the median over them, each process's wall time in wall_s_each; an
    error if any process failed or the processes disagree on a bound."""
    failed = [r["error"] for r in records if "error" in r]
    if failed:
        return {"error": failed[0]}
    first = records[0]
    if any((r["bound_T"], r["margin"]) != (first["bound_T"], first["margin"]) for r in records):
        return {"error": "the processes disagree on b(T) or a margin",
                "bound_T_each": [r["bound_T"] for r in records]}
    combined = dict(first)
    for name, row in first.items():
        if isinstance(row, dict) and "wall_s" in row:
            walls = [r[name]["wall_s"] for r in records]
            combined[name] = {"wall_s": statistics.median(walls),
                              "peak_mb": statistics.median(r[name]["peak_mb"] for r in records),
                              "wall_s_each": walls}
    return combined


def _size_record(src, size, repeats, env):
    """The record of one size in a fresh process on the checkout src."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                           "--size", size, "--repeats", str(repeats)],
                          capture_output=True, text=True, env=env)
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", nargs="+", default=[DEFAULT_SRC],
                    help="the src directories to measure")
    ap.add_argument("--label", nargs="+", default=["change"],
                    help="the key of each src's run in --out")
    ap.add_argument("--out", help="the JSON file to merge the runs into; stdout if not given")
    ap.add_argument("--sizes", nargs="+", default=["8x33", "16x65"], help="n x nt")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--processes", type=int, default=1,
                    help="fresh processes per size and src; each time is their median")
    ap.add_argument("--size", help=argparse.SUPPRESS)  # one size, in a child process
    args = ap.parse_args()
    if args.size:
        return _child(args)
    if len(args.label) != len(args.src):
        ap.error("give one --label per --src")

    env = dict(os.environ, **BLAS_ENV)
    records = {label: {size: [] for size in args.sizes} for label in args.label}
    for size in args.sizes:
        for _ in range(args.processes):
            for src, label in zip(args.src, args.label):
                records[label][size].append(
                    _size_record(os.path.abspath(src), size, args.repeats, env))
    import numpy as np

    doc = {}
    if args.out is not None and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    for label in args.label:
        sizes = {size: _median_record(runs) for size, runs in records[label].items()}
        doc[label] = {"python": platform.python_version(), "numpy": np.__version__,
                      "machine": platform.machine(), "cpus": os.cpu_count(), "blas_threads": 1,
                      "processes": args.processes, "repeats": args.repeats, "sizes": sizes}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        print(text, end="")
        return
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    main()
