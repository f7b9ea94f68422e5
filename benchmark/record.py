"""Record the reference b(T) of every workload input variant.

    python3 benchmark/record.py [--workload NAME ...]

Writes ``benchmark/references.json``, which ``run.py`` checks every job
against.  Re-record only when a change is meant to alter the bound
values; the record is what catches a speed-up that changes a number.
"""

import argparse
import json
import os

import run
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.RUNNERS))
    args = ap.parse_args()
    refs = run.load_references() if os.path.exists(run.REFERENCES) else {}
    for workload in args.workload or sorted(workloads.RUNNERS):
        values = {}
        for variant in range(workloads.VARIANTS):
            job = run.run_job(workload, variant)
            if not job.ok:
                raise SystemExit(f"{workload} variant {variant}: {'; '.join(job.reasons)}")
            values[str(variant)] = job.result["bound_b"][-1]
            print(f"{workload} {variant} b(T) = {values[str(variant)]!r}", flush=True)
        refs[workload] = values
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
