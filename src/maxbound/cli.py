"""Command-line front end: solve, certify, verify, gronwall subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (CHECK_SPEC_SCHEMA, case_from_config, grid_from_config, load_config,
                     materials_from_config, problem_from_config)
from .errors import (
    ConfigError,
    GridMismatchError,
    MaxboundError,
    ParameterError,
    PreconditionError,
    StabilityError,
    UnsupportedCaseError,
)
from .fields import EDGE, FieldTrajectory, GridSpec
from .gronwall import gronwall_differential, gronwall_oracle_check, oracle_report
from .majorant import MajorantParams, certify
from .operators import weighted_norm_sq
from .optimize import OptimizeConfig, optimize_all, optimize_gamma_rho
from .problem import assemble_problem, bump_field, bump_field_dt
from .snapshot import load_snapshot, save_snapshot
from .solver import leapfrog_solve, project_exact

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_MISMATCH = 4
EXIT_PRECONDITION = 5


def _fmt(v):
    return "%.17g" % float(v)


def _round17(v):
    """Round-trip a float through its 17-significant-digit decimal form."""
    return float(_fmt(v))


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _build_approx(p, case, cfg):
    solver_block = cfg.get("solver", {})
    method = solver_block.get("method", "leapfrog")
    if method == "exact":
        if case is None:
            raise ConfigError("solver method 'exact' needs a case block", "$['solver']['method']")
        approx = project_exact(case, p.grid)
    else:
        approx = leapfrog_solve(
            p,
            cfl=solver_block.get("cfl", 0.9),
            track_energy=solver_block.get("trackEnergy", False),
        )
    pert = cfg.get("perturbation")
    if pert is not None and pert["delta"] != 0.0:
        grid = p.grid
        delta = float(pert["delta"])
        key = pert["bump"]
        shift = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field(key, grid, t))
        shift_dt = FieldTrajectory.sample(grid, EDGE, lambda t: bump_field_dt(key, grid, t))
        approx.Etilde = approx.Etilde + delta * shift
        approx.Etilde_t = approx.Etilde_t + delta * shift_dt
    return approx


def _optimize_config(maj_block):
    oc = maj_block.get("optimizeConfig", {})
    kwargs = {}
    mapping = {
        "gammaBracket": "gamma_bracket",
        "rhoGrid": "rho_grid",
        "cgMaxIter": "cg_max_iter",
        "cgTol": "cg_tol",
        "yInit": "y_init",
        "sweeps": "sweeps",
        "gammaTol": "gamma_tol",
        "gammaPieces": "gamma_pieces",
    }
    for key, attr in mapping.items():
        if key in oc:
            kwargs[attr] = oc[key]
    return OptimizeConfig(**kwargs)


def _initial_energy(p):
    return weighted_norm_sq(p.E0, p.eps, p.grid) + weighted_norm_sq(p.H0, p.mu, p.grid)


def _out_dir(args):
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args):
    cfg = load_config(args.config)
    p, case = problem_from_config(cfg)
    approx = _build_approx(p, case, cfg)
    out = _out_dir(args)
    snap_path = args.snapshot or os.path.join(out, "snapshot.bin")
    save_snapshot(snap_path, p.grid, approx)
    print(f"snapshot written: {snap_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _report_rows(report):
    rows = []
    for k, t in enumerate(report.times):
        row = {
            "t": _round17(t),
            "bound_b": _round17(report.bound_b[k]),
            "bound_B": _round17(report.bound_B[k]),
        }
        if report.trueN is not None:
            row["trueN"] = _round17(report.trueN[k])
            eff = report.efficiency[k]
            row["efficiency"] = None if not np.isfinite(eff) else _round17(eff)
        rows.append(row)
    return rows


def _write_reports(out, cfg, report, theorem):
    rows = _report_rows(report)
    doc = {
        "metadata": {
            "tool": "maxbound",
            "version": __version__,
            "config": cfg,
        },
        "parameters": {
            "theorem": theorem,
            "rho": [_round17(v) for v in report.rho],
            "gamma": [_round17(v) for v in report.gamma],
            "zero_variant": report.zero_variant,
            "zero_term": _round17(report.zero_value),
            "cg_iterations": report.cg_iterations,
        },
        "rows": rows,
    }
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MaxboundError(f"report is not strict JSON: {exc}") from None
    json_path = os.path.join(out, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

    columns = ["t", "bound_b", "bound_B"]
    if report.trueN is not None:
        columns += ["trueN", "efficiency"]
    csv_path = os.path.join(out, "report.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if row.get(c) is None else _fmt(row[c]) for c in columns]
            )
    return json_path, csv_path


def cmd_certify(args):
    cfg = load_config(args.config)
    if not args.snapshot:
        raise ConfigError("certify needs --snapshot", "--snapshot")
    p, case = problem_from_config(cfg)
    _, approx = load_snapshot(args.snapshot, p.grid)

    maj = cfg.get("majorant", {})
    theorem = args.theorem or maj.get("theorem", "T5")
    variant = maj.get("zeroTermVariant", "z_hat")
    params = MajorantParams(
        rho=maj.get("rho", 0.5), gamma=maj.get("gamma", 1.0), zero_variant=variant
    )
    mode = args.optimize or maj.get("optimize", "none")
    exact = project_exact(case, p.grid) if case is not None else None

    if mode == "none":
        report = certify(p, approx, params, theorem=theorem, exact=exact)
    elif mode == "params":
        ocfg = _optimize_config(maj)
        gamma, rho, _ = optimize_gamma_rho(p, approx, None, ocfg, theorem, variant)
        params = MajorantParams(rho=rho, gamma=gamma, zero_variant=variant)
        report = certify(p, approx, params, theorem=theorem, exact=exact)
    else:
        ocfg = _optimize_config(maj)
        report, _ = optimize_all(
            p, approx, ocfg, theorem=theorem, zero_variant=variant,
            rho0=maj.get("rho", 0.5), gamma0=maj.get("gamma", 1.0), exact=exact,
        )

    out = _out_dir(args)
    json_path, csv_path = _write_reports(out, cfg, report, theorem)
    print(f"reports written: {json_path}, {csv_path}")
    print(f"bound_b(T) = {_fmt(report.bound_b[-1])}")
    if report.trueN is not None:
        print(f"trueN(T) = {_fmt(report.trueN[-1])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    cfg = load_config(args.config)
    case = case_from_config(cfg)
    if case is None:
        raise ConfigError("verify needs a case block", "$['case']")
    base = grid_from_config(cfg)
    levels = cfg.get("verify", {}).get("levels", 2)
    maj = cfg.get("majorant", {})
    theorem = args.theorem or maj.get("theorem", "T5")
    variant = maj.get("zeroTermVariant", "z_hat")
    method = cfg.get("solver", {}).get("method", "leapfrog")

    rows = []
    for lev in range(levels):
        f = 2**lev
        grid = GridSpec(
            base.nx * f, base.ny * f, base.nz * f,
            base.lx, base.ly, base.lz,
            (base.nt - 1) * f + 1, base.T,
        )
        eps, mu = materials_from_config(cfg, grid)
        p = assemble_problem(grid, eps=eps, mu=mu, case=case)
        # refinement studies measure discretization error, not injected bumps
        approx = _build_approx(p, case, {k: v for k, v in cfg.items() if k != "perturbation"})
        exact = project_exact(case, grid)
        params = MajorantParams(
            rho=maj.get("rho", 0.5), gamma=maj.get("gamma", 1.0), zero_variant=variant
        )
        report = certify(p, approx, params, theorem=theorem, exact=exact)
        eff = report.efficiency[-1] if report.efficiency is not None else float("nan")
        rows.append({
            "cells": f"{grid.nx}x{grid.ny}x{grid.nz}",
            "nt": grid.nt,
            "trueN_T": float(report.trueN[-1]),
            "bound_b_T": float(report.bound_b[-1]),
            "efficiency_T": float(eff),
            "energy_scale": _initial_energy(p),
        })

    orders_bound = []
    orders_true = []
    for a, b in zip(rows[:-1], rows[1:]):
        orders_bound.append(_order(a["bound_b_T"], b["bound_b_T"]))
        orders_true.append(_order(a["trueN_T"], b["trueN_T"]))

    header = f"{'level':>5} {'cells':>12} {'nt':>6} {'trueN(T)':>24} {'bound_b(T)':>24} {'efficiency':>12}"
    print(header)
    for i, row in enumerate(rows):
        print(
            f"{i:>5} {row['cells']:>12} {row['nt']:>6} "
            f"{_fmt(row['trueN_T']):>24} {_fmt(row['bound_b_T']):>24} "
            f"{row['efficiency_T']:>12.4g}"
        )
    if orders_bound:
        print("observed orders (bound):", ", ".join(f"{o:.3f}" for o in orders_bound))
        print("observed orders (trueN):", ", ".join(f"{o:.3f}" for o in orders_true))

    out = _out_dir(args)
    table_path = os.path.join(out, "verify.json")
    with open(table_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"rows": rows, "orders_bound": orders_bound, "orders_true": orders_true},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(f"table written: {table_path}")

    if method == "exact":
        ok = all(r["bound_b_T"] <= 1e-10 * max(r["energy_scale"], 1.0) for r in rows)
    else:
        decreasing = all(
            b["bound_b_T"] < a["bound_b_T"] and b["trueN_T"] < a["trueN_T"]
            for a, b in zip(rows[:-1], rows[1:])
        )
        ok = decreasing and all(o >= 1.9 for o in orders_bound + orders_true)
    if not ok:
        print("verification FAILED")
        return EXIT_VERIFY_FAIL
    print("verification passed")
    return EXIT_OK


def _order(coarse, fine):
    if coarse <= 0 or fine <= 0:
        return float("nan")
    return math.log2(coarse / fine)


# ---------------------------------------------------------------------------
# gronwall


# the six cases of acceptance criterion 5, on [0, 1] with 1001 nodes
_BUILTIN_GRONWALL_SUITE = [
    {"name": "constant-phi-constant-psi", "phi": {"value": 1.5}, "psi": {"value": 0.7}, "u0": 0.3},
    {"name": "zero-phi-constant-psi", "phi": {"value": 0.0}, "psi": {"value": 1.0}, "u0": 1.0},
    {"name": "linear-phi-constant-psi", "phi": {"kind": "linear", "slope": 2.0, "offset": 0.5},
     "psi": {"value": 0.2}, "u0": 0.1},
    {"name": "constant-phi-sin-psi", "phi": {"value": 1.0},
     "psi": {"kind": "sin", "amplitude": 1.0, "frequency": 3.0, "offset": 1.5}},
    {"name": "zero-phi-sin-psi", "phi": {"value": 0.0},
     "psi": {"kind": "sin", "amplitude": 0.5, "frequency": 5.0, "offset": 1.0}, "u0": 2.0},
    {"name": "linear-phi-sin-psi", "phi": {"kind": "linear", "slope": 1.0},
     "psi": {"kind": "sin", "amplitude": 1.0, "frequency": 2.0, "offset": 2.0}, "u0": 0.5},
]


def _coeff_fn(spec):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        v = float(spec.get("value", 0.0))
        return lambda t: v
    if kind == "linear":
        a = float(spec.get("slope", 1.0))
        b = float(spec.get("offset", 0.0))
        return lambda t: a * t + b
    amp = float(spec.get("amplitude", 1.0))
    freq = float(spec.get("frequency", 1.0))
    off = float(spec.get("offset", 0.0))
    return lambda t: off + amp * math.sin(freq * t)


def _run_gronwall_case(case):
    """The oracle check of one validated case; injectViolation compares the
    oracle solution with the bound computed for -psi instead."""
    phi = _coeff_fn(case["phi"])
    psi = _coeff_fn(case["psi"])
    u0 = float(case.get("u0", 0.0))
    T = float(case.get("T", 1.0))
    nt = int(case.get("nt", 1001))
    tol = float(case.get("tol", 1e-6))
    report = gronwall_oracle_check(phi, psi, u0, T, nt, tol=tol)
    if case.get("injectViolation", False):
        t_nodes = np.linspace(0.0, T, nt)
        wrong = gronwall_differential(
            u0, [phi(t) for t in t_nodes], [-psi(t) for t in t_nodes], T / (nt - 1)
        )
        report = oracle_report(wrong, report.solution, tol)
    return report


def cmd_gronwall(args):
    spec = load_config(args.config, CHECK_SPEC_SCHEMA) if args.config else {}
    all_ok = True
    for case in spec.get("cases") or _BUILTIN_GRONWALL_SUITE:
        rep = _run_gronwall_case(case)
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {case.get('name', 'unnamed')} "
              f"(max_violation={rep.max_violation:.3e}, max_rel_gap={rep.max_rel_gap:.3e})")
        all_ok = all_ok and rep.passed
    if not all_ok:
        print("gronwall suite FAILED")
        return EXIT_VERIFY_FAIL
    print("gronwall suite passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxbound",
        description="Guaranteed a-posteriori error bounds for time-dependent "
        "Maxwell approximations on staggered grids.",
    )
    parser.add_argument("--version", action="version", version=f"maxbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--snapshot", help="field snapshot archive path")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--theorem", choices=["T1", "T3", "T4", "T5"], default=None)
    common.add_argument("--optimize", choices=["none", "params", "full"], default=None)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="run the forward solver, write a snapshot archive")
    p_solve.set_defaults(func=cmd_solve)
    p_cert = sub.add_parser("certify", parents=[common],
                            help="compute guaranteed error bounds for a snapshot")
    p_cert.set_defaults(func=cmd_certify)
    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a refinement study on a catalog case")
    p_ver.set_defaults(func=cmd_verify)
    p_gron = sub.add_parser("gronwall", parents=[common],
                            help="check the Gronwall bounds against an ODE oracle")
    p_gron.set_defaults(func=cmd_gronwall)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("solve", "certify", "verify") and not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        loc = f" at {exc.path}" if exc.path else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except GridMismatchError as exc:
        print(f"data mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (UnsupportedCaseError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MaxboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
