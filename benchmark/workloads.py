"""The benchmark's workloads: inputs made from a seed, and the job bodies.

Every workload maps its seed onto one of ``VARIANTS`` input sets, so
that each input set has a recorded reference bound in
``references.json`` (see ``record.py``).  The program only ever sees the
generated inputs: a config file that both workloads run through the CLI.

Each ``run_*`` function is called in a fresh job process right after
``maxbound`` has been imported.  It returns the job's outputs and the
monotonic time of its last output; the caller stops the ``run_s`` clock
there.
"""

import json
import os
import time

VARIANTS = 8

CAVITY_MODES = ((1, 1), (1, 2), (2, 1), (2, 2))
CAVITY_AMPLITUDES = (1.0, 0.5)


def cavity_inputs(variant):
    m, n = CAVITY_MODES[variant % 4]
    return {
        "grid": {"nx": 32, "ny": 32, "nz": 32, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                 "nt": 129, "T": 1.0},
        "case": {"name": "cavity_mode",
                 "parameters": {"m": m, "n": n,
                                "amplitude": CAVITY_AMPLITUDES[variant // 4]}},
        "solver": {"method": "leapfrog", "cfl": 0.9},
        "majorant": {"theorem": "T5", "rho": 0.5, "gamma": 1.0,
                     "zeroTermVariant": "z_hat", "optimize": "none"},
    }


def poly_inputs(variant):
    return {
        "grid": {"nx": 8, "ny": 8, "nz": 8, "lx": 1.0, "ly": 1.0, "lz": 1.0,
                 "nt": 33, "T": 1.0},
        "case": {"name": "polynomial_source"},
        "solver": {"method": "exact"},
        "perturbation": {"bump": "poly_t2", "delta": 1e-2 * (0.8 + 0.05 * variant)},
        "majorant": {"theorem": "T5", "optimize": "full",
                     "optimizeConfig": {"sweeps": 2}},
    }


def _cli_job(cfg, workdir):
    """Run ``solve`` then ``certify`` through ``maxbound.cli.main``.

    The CLI does not write the optimizer's sweep history, so the
    ``optimize_all`` the CLI calls is wrapped to keep it.
    """
    import maxbound.cli as cli

    history = []
    optimize_all = cli.optimize_all

    def keep_history(*args, **kwargs):
        report, params = optimize_all(*args, **kwargs)
        history.extend(report.optimize_history)
        return report, params

    cli.optimize_all = keep_history
    cfg_path = os.path.join(workdir, "run.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out = os.path.join(workdir, "out")
    snap = os.path.join(out, "snapshot.bin")
    for argv in (["solve", "--config", cfg_path, "--out", out],
                 ["certify", "--config", cfg_path, "--snapshot", snap, "--out", out]):
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(code)
    t_end = time.monotonic()
    os.remove(snap)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    rows = report["rows"]
    return t_end, {
        "bound_b": [r["bound_b"] for r in rows],
        "trueN": [r["trueN"] for r in rows],
        "history": history or None,
    }


def run_cavity(variant, workdir):
    return _cli_job(cavity_inputs(variant), workdir)


def run_poly(variant, workdir):
    return _cli_job(poly_inputs(variant), workdir)


RUNNERS = {
    "cavity-certify": run_cavity,
    "poly-optimize": run_poly,
}
