"""Layer harness: wall time and traced peak memory of the certify path and
the optimizer, size by size, each size in a process of its own.

    python3 tools/bench_layers.py --src SRC --label NAME --out BENCH.json
        [--sizes 8x33 16x65] [--repeats 5]

SRC is the ``src`` directory of the checkout to measure (this one by
default), so that two checkouts can be measured into one file under two
labels; the file keeps the labels it already holds.  Every size runs in a
fresh process with one BLAS thread, so an out-of-memory kill loses that
size alone.

The input of size n x nt is of the poly-optimize benchmark's kind: the exact
projection of ``polynomial_source`` on the n^3 unit cube with nt time
nodes, with 1e-2 times the ``poly_t2`` bump added to Etilde and its time
derivative to Etilde_t, certified by T5 against the exact projection.
Per size it records, each as the median wall time over the repeats and
the tracemalloc peak of one further call:

- ``certify``: certify at rho = 0.5, gamma = 1;
- ``optimize_all``: two sweeps from the default start;
- ``closing_report``: the report optimize_all closes with, at its
  parameters: from the series of its Y, which it holds, and a true-error
  pass, when the program has ``majorant.report_from_series``; a full
  certify otherwise;
- ``hessian_m1`` and ``hessian_mnt``: one product of the Y solve's block
  Hessian on 1 and on all nt eigen-blocks, its buffers made by an
  earlier product, as in the solve's loop;

and b(T) of certify and of optimize_all, which must not move with a
speed-up.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}


def _inputs(n, nt):
    import maxbound as mb
    from maxbound.problem import bump_field, bump_field_dt

    grid = mb.GridSpec(n, n, n, 1.0, 1.0, 1.0, nt, 1.0)
    case = mb.polynomial_source()
    p = mb.assemble_problem(grid, case=case)
    exact = mb.project_exact(case, grid)
    bump, bump_dt = (mb.FieldTrajectory.sample(grid, mb.EDGE, lambda t, f=f: f("poly_t2", grid, t))
                     for f in (bump_field, bump_field_dt))
    approx = mb.SolveOutput(exact.Etilde + 1e-2 * bump, exact.Htilde,
                            exact.Etilde_t + 1e-2 * bump_dt)
    return p, approx, exact


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


def measure_size(n, nt, repeats=5):
    """The record of one size (see the module docstring), in this process."""
    import warnings

    import numpy as np

    import maxbound as mb
    import maxbound.majorant as majorant
    import maxbound.optimize as optimize

    p, approx, exact = _inputs(n, nt)
    cfg = mb.OptimizeConfig(sweeps=2)
    params = mb.MajorantParams(rho=0.5, gamma=1.0)
    record = {"size": f"{n}^3 x {nt}"}
    record["certify"] = _measure(lambda: mb.certify(p, approx, params, "T5", exact), repeats)

    def optimize_all():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return mb.optimize_all(p, approx, cfg, "T5", exact=exact)

    record["optimize_all"] = _measure(optimize_all, repeats)
    report, best = optimize_all()
    if hasattr(majorant, "report_from_series"):
        s, _ = majorant.residual_series(p, approx, best.Y, "T5")

        def closing():
            held = replace(s, error_sq=majorant.error_series(p, approx, exact, "T5"))
            return majorant.report_from_series(p, approx, best, "T5", held)
    else:
        def closing():
            return mb.certify(p, approx, best, "T5", exact)
    record["closing_report"] = _measure(closing, repeats)

    quad = optimize.BoundQuadratic(p, approx, best.rho, best.gamma)
    _, lam, scale = optimize._scaled_eigenbasis(quad, optimize.spatial_diagonals(p))
    w = np.random.default_rng(0).standard_normal(scale.shape)
    for m, name in ((1, "hessian_m1"), (nt, "hessian_mnt")):
        apply_A = optimize._block_hessian(p, lam, scale)
        rows = np.arange(m)
        apply_A(w[:m], rows)
        record[name] = _measure(lambda: apply_A(w[:m], rows), 10 * repeats)

    record["bound_T"] = {
        "certify": float(mb.certify(p, approx, params, "T5", exact).bound_b[-1]),
        "optimize_all": float(report.bound_b[-1]),
    }
    return record


def _child(args):
    sys.path.insert(0, args.src)
    n, nt = (int(v) for v in args.size.split("x"))
    print(json.dumps(measure_size(n, nt, args.repeats)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=DEFAULT_SRC, help="the src directory to measure")
    ap.add_argument("--label", default="change", help="the key of this run in --out")
    ap.add_argument("--out", help="the JSON file to merge the run into; stdout if not given")
    ap.add_argument("--sizes", nargs="+", default=["8x33", "16x65"], help="n x nt")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--size", help=argparse.SUPPRESS)  # one size, in a child process
    args = ap.parse_args()
    if args.size:
        return _child(args)

    src = os.path.abspath(args.src)
    env = dict(os.environ, **BLAS_ENV)
    sizes = {}
    for size in args.sizes:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                               "--size", size, "--repeats", str(args.repeats)],
                              capture_output=True, text=True, env=env)
        if done.returncode != 0:
            sizes[size] = {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
        else:
            sizes[size] = json.loads(done.stdout.strip().splitlines()[-1])
    import numpy as np

    run = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "cpus": os.cpu_count(), "blas_threads": 1,
           "sizes": sizes}
    if args.out is None:
        print(json.dumps(run, indent=1))
        return
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc[args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
