"""maxbound benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every job runs in its own fresh process, one at a time.  With
``--trace 0`` the run repeats the workload for about ``--seconds``
seconds and reports the end-to-end metrics (medians over jobs).  With
``--trace 1`` it runs one untraced and one traced job and reports the
per-layer metrics of the traced one.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

End-to-end metrics: ``setup_s`` (process launch until ``maxbound`` and
``maxbound.cli`` are imported), ``run_s`` (end of set-up to the job's
last output), ``peak_rss_mb`` (the job's peak RSS from ``wait4``),
``bound_T`` (the certified b(T) over the b(T) recorded in
``references.json`` for the same inputs, so that runs on different seeds
compare; below 1 is tighter) and ``ok_share`` (jobs that passed over jobs
attempted, 1 - failed_share; reported this way round so that it is never
0).  ``setup_s`` and ``run_s`` are scaled to a fixed machine speed:
multiplied by ``CAL_REF_S`` over the median time of a fixed calibration
kernel timed in probes spread over the same run (``calibrate.py``),
because the shared host's speed drifts by tens of percent over minutes.
The wall times, the calibration time, the raw b(T), the sample counts
and, on cavity-certify, the discretization gap ``gap_share`` =
max(trueN - b)+ / max(b) are printed as notes: the gap is a recorded
diagnostic, not a check.

A job fails on a non-zero exit, a kill by signal, a non-finite reported
value, or a failed check; failed jobs are counted, never dropped.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCES = os.path.join(HERE, "references.json")

# One BLAS thread per job: the runs stay steady on a small shared machine.
BLAS_THREADS = 1
PROBES_PER_JOB = 2
# About what the calibration kernel takes on the machine the benchmark was
# written on (2 vCPUs, numpy 2.4, OpenBLAS 0.3.31) when its host is quiet.
# Reported times are scaled to that speed; the wall times are in the notes.
CAL_REF_S = 0.45
JOB_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
REL_TOL = 1e-10


class Job:
    """Outcome of one job process: exit status, peak RSS, result and failures."""

    def __init__(self, exit_code, rss_mb, wall_s, result):
        self.exit_code = exit_code
        self.rss_mb = rss_mb
        self.wall_s = wall_s
        self.result = result
        self.reasons = []

    @property
    def ok(self):
        return not self.reasons


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_job(workload, variant, trace=False, probe=False, fault=None, deadline=None):
    """Run job.py once and return its Job; failures are recorded, not raised."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"job-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    cmd = [sys.executable, JOB, "--workload", workload, "--variant", str(variant),
           "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    if fault:
        cmd += ["--fault", fault]
    timeout = min(deadline or math.inf, time.monotonic() + JOB_TIMEOUT_S) - time.monotonic()
    try:
        with open(os.path.join(workdir, "job.log"), "wb") as log:
            launch = time.monotonic()
            proc = subprocess.Popen(cmd + ["--launch", repr(launch)], cwd=ROOT,
                                    env=child_env(), stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(timeout, 0.0), proc.send_signal, (signal.SIGKILL,))
            killer.start()
            try:
                # wait4 rather than Popen.wait: it also gives the child's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.monotonic() - launch
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        path = os.path.join(workdir, "result.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                result = json.load(fh)
        job = Job(proc.returncode, usage.ru_maxrss / 1024.0, wall, result)
        if job.exit_code < 0:
            job.reasons.append(f"killed by signal {-job.exit_code}")
        elif job.exit_code > 0:
            job.reasons.append(f"exit code {job.exit_code}")
        elif result is None:
            job.reasons.append("no result written")
        if job.reasons:
            with open(os.path.join(workdir, "job.log"), encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"job failed ({'; '.join(job.reasons)}):\n{tail}", file=sys.stderr)
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            shutil.move(spans, os.path.join(WORK, "traces", f"{workload}-{variant}.json"))
        return job
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _finite(values):
    return all(v is not None and math.isfinite(v) for v in values)


def check_job(workload, variant, job, references):
    """Append to job.reasons every check the job's outputs fail."""
    r = job.result
    if r is None or job.reasons:
        return
    b = r["bound_b"]
    n = r["trueN"]
    scalars = [r["setup_s"], r["run_s"]] + list(r.get("layers", {}).values())
    if not (_finite(b) and _finite(n) and _finite(r["history"] or []) and _finite(scalars)):
        job.reasons.append("non-finite value reported")
        return
    ref = references[workload][str(variant)]
    rel = (b[-1] - ref) / abs(ref)
    if workload == "poly-optimize":
        # An optimizer may tighten the bound while it still dominates the
        # error at every node (checked below); it may never loosen it.
        if rel > REL_TOL:
            job.reasons.append(f"b(T) = {b[-1]!r} exceeds the reference {ref!r}")
        if any(bk < nk for bk, nk in zip(b, n)):
            job.reasons.append("bound below the true error at some node")
        hist = r["history"]
        if not hist or any(later > earlier for earlier, later in zip(hist, hist[1:])):
            job.reasons.append(f"optimize history not monotone: {hist}")
    elif abs(rel) > REL_TOL:
        job.reasons.append(f"b(T) = {b[-1]!r} differs from the reference {ref!r}")
    if workload == "cavity-certify" and not b[0] >= n[0]:
        job.reasons.append(f"b(0) = {b[0]!r} < trueN(0) = {n[0]!r}")


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = ctypes.CDLL(None).sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        l3 = -1
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "l3_mb": round(l3 / 2**20, 1) if l3 > 0 else None,
        "bytes": "computed from array sizes, not measured traffic",
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, variant, seconds, references, run_start):
    """Repeat the workload for about `seconds` and take medians over the jobs.

    The set-up and run times are scaled by CAL_REF_S over the median time
    of the calibration kernel in the run's probes (see calibrate.py).
    """
    deadline = run_start + RUN_LIMIT_S
    run_job(workload, variant, probe=True, deadline=deadline)  # fills bytecode caches
    setups = []
    cals = []
    jobs = []
    cycles = []
    first = time.monotonic()
    while True:
        start = time.monotonic()
        # Probes spread over the whole run, so that the set-up and
        # calibration medians see the machine's speed over the same window
        # as the jobs.
        for _ in range(PROBES_PER_JOB):
            probe = run_job(workload, variant, probe=True, deadline=deadline)
            if probe.ok:
                setups.append(probe.result["setup_s"])
                cals.append(probe.result["cal_s"])
        job = run_job(workload, variant, deadline=deadline)
        check_job(workload, variant, job, references)
        jobs.append(job)
        now = time.monotonic()
        cycles.append(now - start)
        cycle = _median(cycles)
        if now - first + cycle > seconds or now + 1.5 * cycle > deadline:
            break
    good = [j for j in jobs if j.result is not None and "run_s" in j.result]
    setups += [j.result["setup_s"] for j in good]
    run_wall = (_median([j.result["run_s"] for j in good])
                if good else _median([j.wall_s for j in jobs]))
    # No calibration only when every probe failed, and then every job has too.
    scale = CAL_REF_S / _median(cals) if cals else 1.0
    ref = references[workload][str(variant)]
    metrics = {
        "setup_s": (_median(setups) * scale, "s"),
        "run_s": (run_wall * scale, "s"),
        "peak_rss_mb": (_median([j.rss_mb for j in jobs]), "MB"),
        "bound_T": (_median([j.result["bound_b"][-1] / ref for j in good]), "ratio"),
        "ok_share": (sum(j.ok for j in jobs) / len(jobs), "ratio"),
    }
    notes = {"jobs": len(jobs), "setup_samples": len(setups),
             "setup_wall_s": _median(setups), "run_wall_s": run_wall,
             "cal_s": _median(cals), "cal_samples": len(cals), "speed_scale": scale,
             "b_T": _median([j.result["bound_b"][-1] for j in good]), "b_T_reference": ref}
    if workload == "cavity-certify" and good:
        b = np.array(good[0].result["bound_b"])
        n = np.array(good[0].result["trueN"])
        notes["gap_share"] = float(max(np.max(n - b), 0.0) / np.max(b))
    return jobs, metrics, notes


def per_layer(workload, variant, references, run_start):
    """One untraced job as the baseline, then one traced job."""
    deadline = run_start + RUN_LIMIT_S
    jobs = []
    for trace in (False, True):
        job = run_job(workload, variant, trace=trace, deadline=deadline)
        check_job(workload, variant, job, references)
        jobs.append(job)
    plain, traced = jobs
    layers = {}
    if traced.result is not None and "layers" in traced.result:
        layers = dict(traced.result["layers"])
        if plain.result is not None and "run_s" in plain.result:
            layers["trace.overhead_share"] = traced.result["run_s"] / plain.result["run_s"] - 1.0
    units = {name: unit for name, unit, _ in tracer.metric_specs()}
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit in units.items()}
    notes = {"traced_run_s": traced.result["run_s"] if traced.result else None,
             "untraced_run_s": plain.result["run_s"] if plain.result else None}
    return jobs, metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run_start = time.monotonic()
    if not os.path.isdir(os.path.join(ROOT, "src", "maxbound")):
        sys.exit(f"no maxbound sources under {os.path.join(ROOT, 'src')}")

    references = load_references()
    variant = args.seed % workloads.VARIANTS
    if args.trace:
        jobs, metrics, notes = per_layer(args.workload, variant, references, run_start)
    else:
        jobs, metrics, notes = end_to_end(args.workload, variant, args.seconds,
                                          references, run_start)

    failed = sum(not j.ok for j in jobs)
    print(f"workload {args.workload}, seed {args.seed} -> input variant {variant}, "
          f"{len(jobs)} jobs, {failed} failed")
    for j in jobs:
        if j.reasons:
            print(f"  failed job: {'; '.join(j.reasons)}")
    for name, (value, unit) in metrics.items():
        if args.trace == 0 or value:
            print(f"  {name:<48} {value:>16.6g} {unit}")
    print(f"  {'failed_share':<48} {failed / len(jobs):>16.6g} ratio")
    print("notes: " + json.dumps(notes))
    print("env: " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
