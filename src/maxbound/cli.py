"""Command-line front end: solve, certify, verify, gronwall subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from . import __version__
from .config import CHECK_SPEC_SCHEMA, OPTIMIZE_MODES, load_config, problem_from_config
from .errors import (
    ConfigError,
    GridMismatchError,
    MaxboundError,
    ParameterError,
    PreconditionError,
    StabilityError,
    UnsupportedCaseError,
)
from .gronwall import gronwall_differential, gronwall_oracle_check, oracle_report
from .majorant import THEOREMS, MajorantParams, certify
from .operators import weighted_norm_sq
from .optimize import OptimizeConfig, certify_gamma_rho, optimize_all
from .problem import bump_field, bump_field_dt
from .snapshot import snapshot_reader, snapshot_writer
from .solver import exact_reference, leapfrog_solve, project_exact

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


def _solve(p, case, solver_block, out=None):
    """Run the configured solver into out (in-memory trajectories when None)."""
    if solver_block.get("method") == "exact":
        return project_exact(case, p.grid, out)
    # the solver's own default cfl stands where the block gives none
    cfl = {"cfl": solver_block["cfl"]} if "cfl" in solver_block else {}
    return leapfrog_solve(p, out=out, **cfl)


def _shifted(sink, bump, key, delta, grid):
    """Node sink that adds delta * bump(t_k) to node k before passing it on."""
    return SimpleNamespace(
        set_node=lambda k, f: sink.set_node(k, f + bump(key, grid, grid.times[k]) * delta))


def _field_name(key):
    """The snake_case OptimizeConfig field a camelCase optimizeConfig key names."""
    return re.sub("[A-Z]", lambda m: "_" + m.group().lower(), key)


def _optimize_config(maj_block):
    oc = maj_block.get("optimizeConfig", {})
    return OptimizeConfig(**{_field_name(key): value for key, value in oc.items()})


def _majorant_params(maj_block):
    """The MajorantParams of the block's rho, gamma and zeroTermVariant, the
    library's defaults standing for those it leaves out."""
    names = {"rho": "rho", "gamma": "gamma", "zeroTermVariant": "zero_variant"}
    return MajorantParams(**{names[key]: maj_block[key] for key in names if key in maj_block})


def _initial_energy(p):
    return weighted_norm_sq(p.E0, p.eps, p.grid) + weighted_norm_sq(p.H0, p.mu, p.grid)


def _unwritable(path, exc):
    """The error of an OSError met while writing path: a bad output argument."""
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _out_dir(args):
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out, exc) from None
    return out


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args):
    cfg = load_config(args.config)
    p, case = problem_from_config(cfg)
    solver_block = cfg.get("solver", {})
    exact = solver_block.get("method") == "exact"
    if exact and case is None:
        raise ConfigError("solver method 'exact' needs a case block", "$['solver']['method']")
    names = ("Etilde", "Htilde", "Etilde_t") + (("Htilde_t",) if exact else ())
    out = _out_dir(args)
    snap_path = args.snapshot or os.path.join(out, "snapshot.bin")
    try:
        with snapshot_writer(snap_path, p.grid, names) as sinks:
            pert = cfg.get("perturbation")
            if pert is not None and pert["delta"] != 0.0:
                delta, key = float(pert["delta"]), pert["bump"]
                sinks.Etilde = _shifted(sinks.Etilde, bump_field, key, delta, p.grid)
                sinks.Etilde_t = _shifted(sinks.Etilde_t, bump_field_dt, key, delta, p.grid)
            _solve(p, case, solver_block, sinks)
    except OSError as exc:
        raise _unwritable(snap_path, exc) from None
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
            row["efficiency"] = _finite_or_none(_round17(report.efficiency[k]))
        rows.append(row)
    return rows


def _write_json(out, name, doc):
    """Write doc as strict JSON to the file name in out; returns its path.  A
    nan or inf is an error, not a literal that a strict reader refuses."""
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MaxboundError(f"{name} is not strict JSON: {exc}") from None
    path = os.path.join(out, name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _unwritable(path, exc) from None
    return path


def _finite_or_none(v):
    """v, or None where it is undefined (nan or +-inf)."""
    return v if math.isfinite(v) else None


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
            "cg_sweeps": report.cg_sweeps,
        },
        "rows": rows,
    }
    json_path = _write_json(out, "report.json", doc)

    columns = ["t", "bound_b", "bound_B"]
    if report.trueN is not None:
        columns += ["trueN", "efficiency"]
    csv_path = os.path.join(out, "report.csv")
    try:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow(
                    ["" if row.get(c) is None else _fmt(row[c]) for c in columns]
                )
    except OSError as exc:
        raise _unwritable(csv_path, exc) from None
    return json_path, csv_path


def cmd_certify(args):
    cfg = load_config(args.config)
    if not args.snapshot:
        raise ConfigError("certify needs --snapshot", "--snapshot")
    p, case = problem_from_config(cfg)
    maj = cfg.get("majorant", {})
    mode = args.optimize or maj.get("optimize", "none")
    with snapshot_reader(args.snapshot, p.grid) as (_, approx):
        theorem = args.theorem or maj.get("theorem", "T5")
        params = _majorant_params(maj)
        exact = exact_reference(case, p.grid) if case is not None else None

        if mode == "none":
            report = certify(p, approx, params, theorem=theorem, exact=exact)
        elif mode == "params":
            report, _ = certify_gamma_rho(p, approx, _optimize_config(maj), theorem,
                                          params.zero_variant, exact)
        else:
            report, _ = optimize_all(p, approx, _optimize_config(maj), theorem=theorem,
                                     zero_variant=params.zero_variant, rho0=params.rho,
                                     gamma0=params.gamma, exact=exact)

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
    if "case" not in cfg:
        raise ConfigError("verify needs a case block", "$['case']")
    out = _out_dir(args)  # before the study, which an unwritable --out would lose
    levels = cfg.get("verify", {}).get("levels", 2)
    maj = cfg.get("majorant", {})
    theorem = args.theorem or maj.get("theorem", "T5")
    params = _majorant_params(maj)
    method = cfg.get("solver", {}).get("method", "leapfrog")

    g = cfg["grid"]
    rows = []
    for lev in range(levels):
        f = 2**lev
        refined = dict(g, nx=g["nx"] * f, ny=g["ny"] * f, nz=g["nz"] * f,
                       nt=(g["nt"] - 1) * f + 1)
        p, case = problem_from_config(dict(cfg, grid=refined))
        # refinement studies measure discretization error, not injected bumps
        approx = _solve(p, case, cfg.get("solver", {}))
        exact = exact_reference(case, p.grid)
        report = certify(p, approx, params, theorem=theorem, exact=exact)
        rows.append({
            "cells": f"{p.grid.nx}x{p.grid.ny}x{p.grid.nz}",
            "nt": p.grid.nt,
            "trueN_T": float(report.trueN[-1]),
            "bound_b_T": float(report.bound_b[-1]),
            "efficiency_T": float(report.efficiency[-1]),
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

    # an efficiency or an order that is undefined (a zero error) is null
    table_path = _write_json(out, "verify.json", {
        "rows": [dict(row, efficiency_T=_finite_or_none(row["efficiency_T"])) for row in rows],
        "orders_bound": [_finite_or_none(o) for o in orders_bound],
        "orders_true": [_finite_or_none(o) for o in orders_true],
    })
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
    for case in spec.get("cases", _BUILTIN_GRONWALL_SUITE):
        rep = _run_gronwall_case(case)
        status = "PASS" if rep.passed else "FAIL"
        detail = (f"{' and '.join(rep.not_finite)} not finite" if rep.not_finite else
                  f"max_violation={rep.max_violation:.3e}, max_rel_gap={rep.max_rel_gap:.3e}")
        print(f"{status} {case.get('name', 'unnamed')} ({detail})")
        all_ok = all_ok and rep.passed
    if not all_ok:
        print("gronwall suite FAILED")
        return EXIT_VERIFY_FAIL
    print("gronwall suite passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _UsageError(Exception):
    """An unknown, misplaced or malformed command-line argument."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise _UsageError, where argparse
    prints a usage line and exits; its subcommand parsers are _Parsers too."""

    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="maxbound",
        description="Guaranteed a-posteriori error bounds for time-dependent "
        "Maxwell approximations on staggered grids.",
    )
    parser.add_argument("--version", action="version", version=f"maxbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(help="JSON configuration file"),
        "--snapshot": dict(help="field snapshot archive path"),
        "--out": dict(help="output directory (default: current)"),
        "--theorem": dict(choices=list(THEOREMS), default=None),
        "--optimize": dict(choices=list(OPTIMIZE_MODES), default=None),
    }
    # each subcommand takes only the flags it reads; any other is an unknown flag
    for name, func, reads, text in (
        ("solve", cmd_solve, ("--config", "--snapshot", "--out"),
         "run the forward solver, write a snapshot archive"),
        ("certify", cmd_certify, tuple(flags),
         "compute guaranteed error bounds for a snapshot"),
        ("verify", cmd_verify, ("--config", "--out", "--theorem"),
         "run a refinement study on a catalog case"),
        ("gronwall", cmd_gronwall, ("--config",),
         "check the Gronwall bounds against an ODE oracle"),
    ):
        command = sub.add_parser(name, help=text)
        for flag in reads:
            command.add_argument(flag, **flags[flag])
        command.set_defaults(func=func)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, without the source location and line
    that Python's own format adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command != "gronwall" and not args.config:
            raise _UsageError("--config is required")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # overflows end in a refused bound or snapshot: one error line, no
        # numpy warnings; any other warning is a line of its own
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _warning_line
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
