"""What the benchmark relies on in the package.

``benchmark/tracer.py`` wraps every function listed in its ``LAYERS`` by
name, reads ``conjugate_gradient``'s ``tol`` argument and its
(x, iterations, relative residual) result, and counts the evaluations of
``golden_section`` by wrapping its positional argument 0 in a function of
one argument, so a refactor that renames or reshapes any of them breaks
``benchmark/run.py --trace 1``.  These tests catch
that in the suite instead, and hold the poly-optimize bounds to the
benchmark's one-sided check.
"""

import importlib
import inspect
import json
import os
import sys

import numpy as np
import pytest

from maxbound.cli import EXIT_OK, main
from maxbound.optimize import conjugate_gradient, golden_section

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmark")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, BENCHMARK)
    try:
        import tracer
    finally:
        sys.path.remove(BENCHMARK)
    return tracer.LAYERS


def test_every_traced_name_resolves(layers):
    for module, funcs in layers.items():
        home = importlib.import_module(f"maxbound.{module}")
        for func in funcs:
            if "." in func:
                # the tracer patches methods through the class __dict__
                cls_name, meth = func.split(".")
                assert meth in vars(getattr(home, cls_name)), f"{module}.{func}"
            else:
                assert callable(getattr(home, func)), f"{module}.{func}"


def test_conjugate_gradient_keeps_the_signature_the_tracer_reads():
    assert "tol" in inspect.signature(conjugate_gradient).parameters
    A = np.diag([2.0, 3.0])
    result = conjugate_gradient(lambda d, rows: d @ A, np.array([[1.0, 1.0]]), tol=1e-12)
    assert isinstance(result, tuple) and len(result) == 3
    x, iterations, rel = result
    assert np.allclose(x, [[0.5, 1.0 / 3.0]])
    assert isinstance(iterations, int) and rel <= 1e-12


def test_golden_section_keeps_the_call_shape_the_tracer_reads():
    assert next(iter(inspect.signature(golden_section).parameters)) == "fn"
    calls = []

    def fn(*args, **kwargs):
        calls.append((len(args), kwargs))
        return (args[0] - np.array([0.25, 0.5])) ** 2

    golden_section(fn, np.zeros(2), 1.0, 1e-6)
    assert calls and all(call == (1, {}) for call in calls)


# b(T) of the benchmark's poly-optimize inputs (benchmark/workloads.py,
# poly_inputs(v) for v = 0..7) with one BLAS thread, as the Y solve's
# per-block CG gives them.  references.json still holds those of an
# earlier Y solve, about 3.2e-3 higher, so until the benchmark is re-recorded
# its one-sided check lets b(T) rise that far unnoticed; this test does
# not.  A change that moves b(T) on purpose re-records both.  The slack,
# 1e-5, is the Y solve's stall tolerance: rounding, the BLAS thread count
# for one, can move the iteration where a solve stops, and with it b(T)
# (by up to 4e-7 relative in the runs seen).
POLY_BOUNDS = (6.921498113929738e-4, 7.813722671478306e-4, 8.760021237137622e-4,
               9.760394296764127e-4, 1.0814840732973692e-3, 1.1923362295779432e-3,
               1.3085957545532212e-3, 1.430262715532813e-3)


@pytest.mark.parametrize("variant", range(len(POLY_BOUNDS)))
def test_poly_optimize_bound_does_not_rise(variant, tmp_path):
    sys.path.insert(0, BENCHMARK)
    try:
        import workloads
    finally:
        sys.path.remove(BENCHMARK)
    cfg = str(tmp_path / "run.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(workloads.poly_inputs(variant), fh)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["certify", "--config", cfg, "--snapshot", os.path.join(out, "snapshot.bin"),
                 "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    assert rows[-1]["bound_b"] <= POLY_BOUNDS[variant] * (1.0 + 1e-5)
    assert all(row["bound_b"] >= row["trueN"] for row in rows)
