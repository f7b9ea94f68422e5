"""Self-test of the benchmark's own checks.

    python3 benchmark/selftest.py

Deliberately bad jobs must count as failed: one whose b(T) is altered by
1e-6 relative, one that exits non-zero and one killed by a signal.  An
unaltered job must pass.  The metric names ``run.py`` and ``tracer.py``
report must be the ones ``BENCHMARK.json`` declares, and ``run.py`` must
refuse to run without the program's sources.  Exits non-zero on the
first broken expectation.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import tracer

WORKLOAD = "poly-optimize"  # the job with the smaller memory footprint

# (workload, fault, whether the job must count as failed).  poly-optimize
# has a one-sided reference check and cavity-certify a two-sided one, so
# both get an altered b(T).
CASES = (
    (WORKLOAD, None, False),
    (WORKLOAD, "bound", True),
    ("cavity-certify", "bound", True),
    (WORKLOAD, "exit", True),
    (WORKLOAD, "signal", True),
)


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main():
    refs = run.load_references()
    for workload, fault, bad in CASES:
        job = run.run_job(workload, 0, fault=fault)
        run.check_job(workload, 0, job, refs)
        expect(job.ok != bad, f"{workload}, fault {fault}: counted as "
               f"{'failed' if not job.ok else 'passed'} ({'; '.join(job.reasons) or 'no failure'})")

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(declared == tracer.metric_specs(), "per_layer metrics match tracer.metric_specs()")

    # A directory holding only BENCHMARK.json and the benchmark must be refused.
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"bare directory refused with exit code {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
