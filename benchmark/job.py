"""One benchmark job in a fresh process: import maxbound, run one workload.

Started by ``run.py``; not meant to be run by hand.  ``--launch`` is the
monotonic time at which the parent started this process, so that
``setup_s`` covers interpreter start-up and the imports.  The job writes
``result.json`` into its work directory and exits 0; any failure of the
program surfaces as a non-zero exit code or a missing result.

``--fault`` makes a deliberately bad job for ``selftest.py``: ``exit``
exits with code 3, ``signal`` kills the process with SIGKILL, ``bound``
reports b(T) altered by 1e-6 relative.
"""

import argparse
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="only measure set-up, then time the calibration kernel")
    ap.add_argument("--fault", choices=("exit", "signal", "bound"))
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import maxbound
    import maxbound.cli  # noqa: F401  (part of the measured set-up)

    setup_end = time.monotonic()
    if os.path.dirname(os.path.abspath(maxbound.__file__)) != os.path.join(SRC, "maxbound"):
        sys.exit(f"maxbound imported from {maxbound.__file__}, not from {SRC}")
    result = {"setup_s": setup_end - args.launch}

    if args.probe:
        import calibrate

        result["cal_s"] = calibrate.measure()
    else:
        import workloads

        if args.fault == "exit":
            sys.exit(3)
        if args.fault == "signal":
            os.kill(os.getpid(), signal.SIGKILL)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.monotonic()
        end, outputs = workloads.RUNNERS[args.workload](args.variant, args.workdir)
        result["run_s"] = end - start
        if args.fault == "bound":
            outputs["bound_b"][-1] *= 1.0 + 1e-6
        result.update(outputs)
        if tracer is not None:
            result["layers"] = tracer.metrics(result["run_s"])
            tracer.write_spans(os.path.join(args.workdir, "spans.json"))

    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
