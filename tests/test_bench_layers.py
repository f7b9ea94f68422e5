"""The layer harness in tools/: its per-size record, at a small size."""

import math
import os
import sys

import maxbound as mb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import bench_layers  # noqa: E402


def test_a_size_record_is_finite_and_carries_certify_s_bound():
    record = bench_layers.measure_size(4, 9, repeats=1)
    stages = ("certify", "optimize_all", "closing_report", "hessian_m1", "hessian_mnt")
    for stage in stages:
        assert set(record[stage]) == {"wall_s", "peak_mb"}
        assert all(math.isfinite(v) and v >= 0.0 for v in record[stage].values()), stage
    p, approx, exact = bench_layers._inputs(4, 9)
    want = mb.certify(p, approx, mb.MajorantParams(rho=0.5, gamma=1.0), "T5", exact)
    assert record["bound_T"]["certify"] == want.bound_b[-1]
    assert math.isfinite(record["bound_T"]["optimize_all"])
    assert 0.0 < record["bound_T"]["optimize_all"] <= record["bound_T"]["certify"]
