"""One workload run in a fresh process; ``run.py`` starts it and reads its result.

The worker builds the seeded inputs, runs the warm-up ops and then either

* stops (``--setup-only``): a set-up sample for ``setup_s``;
* runs whole passes of ops, one at a time, until ``--seconds`` are used up,
  rounded to the nearest pass (untraced run); or
* runs each op of pass 0 untraced and then traced (traced run); the tracer
  is installed only around the traced call.

It prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads


def run_pass(workload, ops, reference_seed, run=None, tracer=None):
    """Run ``ops`` in order; return one record per op."""
    run = run or workload.run
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.id
            tracer.active = True
        value, error, seconds = workloads.timed(run, op)
        if tracer is not None:
            tracer.active = False
        status, detail = workload.check(op, value, error, reference_seed)
        del value
        records.append({"id": op.id, "ms": seconds * 1e3, "status": status, "detail": detail})
    return records


def timed_run(workload, seed, seconds, reference_seed):
    start = time.perf_counter()
    records, passes = [], 0
    while True:
        records += run_pass(workload, workload.pass_ops(seed, passes), reference_seed)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return records, passes


def traced_run(workload, seed, reference_seed):
    """Run each op of pass 0 untraced, then traced, so both see the same machine."""
    # Imported here: it imports hdse.cli, which untraced runs must not pay for.
    from tracer import Tracer

    run = getattr(workload, "run_inprocess", workload.run)
    tracer = Tracer()
    untraced, traced = [], []
    for op in workload.pass_ops(seed, 0):
        untraced += run_pass(workload, [op], reference_seed, run=run)
        tracer.install()
        try:
            traced += run_pass(workload, [op], reference_seed, run=run, tracer=tracer)
        finally:
            tracer.uninstall()
    counts = tracer.op_counts()
    for record in traced:
        record.update(counts.get(record["id"], {}))
    return untraced, traced, tracer.layer_metrics()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="scratch directory for CLI configs")
    parser.add_argument("--src", required=True, help="directory that holds the hdse package")
    args = parser.parse_args(argv)

    reference = workloads.load_reference()
    reference_seed = args.seed == reference["seed"]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, reference, workdir, Path(args.src))
        workload.pass_ops(args.seed, 0)
        warmup = run_pass(workload, workload.warmup_ops(), False)
        ready = time.monotonic()
        result = {"ready_monotonic": ready,
                  "warmup_failures": [r for r in warmup if r["status"] != workloads.OK]}
        if not args.setup_only:
            if args.trace:
                untraced, traced, layers = traced_run(workload, args.seed, reference_seed)
                result.update(untraced=untraced, ops=traced, layers=layers, passes=1)
            else:
                ops, passes = timed_run(workload, args.seed, args.seconds, reference_seed)
                who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
                result.update(ops=ops, passes=passes,
                              peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
