"""The layer harness in tools/: its per-size record, at a small size."""

import math
import os
import sys

import pytest

import maxbound as mb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import bench_layers  # noqa: E402


@pytest.fixture(scope="module")
def record():
    return bench_layers.measure_size(4, 9, repeats=1)


def test_a_size_record_is_finite_and_carries_certify_s_bound(record):
    stages = ("assemble", "certify", "optimize_all", "closing_report", "hessian_m1",
              "hessian_mnt", "gamma_rho_search", "curl_edge_to_face", "curl_face_to_edge",
              "apply_material_staggered", "gram_apply", "trajectory_derivative",
              "cli_full_T1", "cli_full_T5")
    for stage in stages:
        assert set(record[stage]) == {"wall_s", "peak_mb"}
        assert all(math.isfinite(v) and v >= 0.0 for v in record[stage].values()), stage
    p, approx, exact = bench_layers._inputs(4, 9)
    want = mb.certify(p, approx, mb.MajorantParams(rho=0.5, gamma=1.0), "T5", exact)
    assert record["bound_T"]["certify"] == want.bound_b[-1]
    assert math.isfinite(record["bound_T"]["optimize_all"])
    assert 0.0 < record["bound_T"]["optimize_all"] <= record["bound_T"]["certify"]
    # CLI full optimization from a snapshot is the library's optimize_all
    assert record["bound_T"]["cli_full_T5"] == record["bound_T"]["optimize_all"]
    assert 0.0 < record["bound_T"]["cli_full_T1"] <= record["bound_T"]["certify"]
    # optimize_all's last step on this input takes what the search on its Y finds
    assert record["bound_T"]["gamma_rho_search"] == record["bound_T"]["optimize_all"]


def test_the_margin_is_min_b_minus_true_n_on_an_independent_velocity(record):
    p, approx, exact = bench_layers._inputs(4, 9, perturb_velocity=False)
    assert approx.Etilde_t is exact.Etilde_t
    want = mb.certify(p, approx, mb.MajorantParams(rho=0.5, gamma=1.0), "T5", exact)
    # node 0 is left out: the bump vanishes there, so b = trueN = 0
    assert want.bound_b[0] == want.trueN[0] == 0.0
    assert record["margin"]["certify"] == float((want.bound_b - want.trueN)[1:].min())
    assert record["margin"]["certify"] > 0.0
    # a number, or the message of a bound the optimizer's report refused
    optimized = record["margin"]["optimize_all"]
    assert math.isfinite(optimized) if isinstance(optimized, float) else (
        optimized.startswith("refused: "))
