"""hdse benchmark: one run of one workload, end to end or traced.

    python3 perfbench/run.py --workload se_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the package is taken from ``src/``,
nothing is installed).  Every run starts fresh worker processes
(``worker.py``) and issues one op at a time with one BLAS thread.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
three fresh set-ups (the measured worker and two set-up-only workers);
the rest come from whole passes of ops until ``--seconds`` are used up.
``--trace 1`` runs one pass untraced and the same pass traced and reports
the per-layer metrics.

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A result file with
provenance and every op's outcome is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("se_sweep", "se_logistic", "montecarlo", "cli")
BLAS_THREADS = 1
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
# Everything a run starts must end before this many seconds.
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

SYSTEMS = ("m_loo", "m_amp", "m_cgmt", "lasso_amp", "lasso_cgmt", "logistic_loo",
           "logistic_cgmt")
MC_MODELS = ("huber", "lasso", "logistic")
CLI_COMMANDS = ("solve-se", "verify-equivalence", "simulate", "amp")

PER_LAYER = {
    "losses.calls": "count", "losses.points": "count", "losses.self_ms": "ms",
    "expectations.calls": "count", "expectations.nodes": "count",
    "expectations.self_ms": "ms",
    **{f"systems.residual.{s}.{k}": u for s in SYSTEMS
       for k, u in (("calls", "count"), ("ms_per_call", "ms"))},
    "solving.solves": "count", "solving.newton_iters": "count",
    "solving.residual_evals": "count", "solving.jacobian.calls": "count",
    "solving.jacobian.self_ms": "ms", "solving.auto_init.self_ms": "ms",
    "solving.fallback_solves": "count", "solving.failed": "count",
    "transforms.verify.self_ms": "ms", "transforms.map.self_ms": "ms",
    **{f"estimators.{stage}.{m}.ms": "ms" for stage in ("gen", "fit") for m in MC_MODELS},
    "estimators.fit.failed": "count",
    "cli.import_s": "s", "cli.load_config.ms": "ms", "cli.write.ms": "ms",
    **{f"cli.command.{c}.ms": "ms" for c in CLI_COMMANDS},
    "trace.overhead_frac": "frac",
}


def blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def start_worker(args, deadline: float, extra=()):
    """Run one worker to completion; return (result, seconds from spawn to ready).

    The worker runs in its own session, so a timeout kills it together with
    any command it started.
    """
    workdir = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--workdir", str(workdir), "--src", str(SRC), *extra]
    spawned = time.monotonic()
    with subprocess.Popen(cmd, env=blas_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready_monotonic"] - spawned


def import_seconds() -> list[float]:
    """Wall time of a fresh interpreter that imports ``hdse.cli``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hdse.cli"], env=blas_env(), cwd=ROOT,
                       check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def tail(latencies: list[float]):
    """Latency at the highest percentile with at least ten ops beyond it.

    Defined only where that percentile is p90 or higher (100 ops or more).
    """
    if len(latencies) < 100:
        return None, None
    ordered = sorted(latencies)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = result["ops"]
    ok = [r["ms"] for r in ops if r["status"] == "ok"]
    latencies = [r["ms"] for r in ops]
    busy_ms = sum(latencies)
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ok_ops_per_s": len(ok) / (busy_ms / 1e3),
        "op_ms_p50": statistics.median(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    counts = {"setup_s": len(setup), "ok_ops_per_s": len(ok), "op_ms_p50": len(ops),
              "peak_rss_mb": 1}
    extra = {"op_ms_tail": tail_ms, "op_ms_tail_percentile": tail_pct,
             "setup_samples_s": setup, "passes": result["passes"], "busy_s": busy_ms / 1e3}
    return {"metrics": metrics, "counts": counts}, extra


def per_layer(result: dict, imports: list[float]) -> tuple[dict, dict]:
    raw = result["layers"]

    def per_call(total_key, n_key):
        n = raw.get(n_key, 0)
        return raw.get(total_key, 0.0) / n if n else 0.0

    metrics = {name: raw.get(name, 0) for name in PER_LAYER}
    for s in SYSTEMS:
        key = f"systems.residual.{s}"
        metrics[f"{key}.ms_per_call"] = per_call(f"{key}.total_ms", f"{key}.calls")
    for stage in ("gen", "fit"):
        for m in MC_MODELS:
            key = f"estimators.{stage}.{m}"
            metrics[f"{key}.ms"] = per_call(f"{key}.total_ms", f"{key}.n")
    for name in ("load_config", "write", *(f"command.{c}" for c in CLI_COMMANDS)):
        metrics[f"cli.{name}.ms"] = per_call(f"cli.{name}.total_ms", f"cli.{name}.n")
    metrics["cli.import_s"] = statistics.median(imports)

    def rate(records):
        ok = sum(r["status"] == "ok" for r in records)
        return ok / (sum(r["ms"] for r in records) / 1e3)

    metrics["trace.overhead_frac"] = 1.0 - rate(result["ops"]) / rate(result["untraced"])
    counts = {name: len(result["ops"]) for name in PER_LAYER}
    counts["cli.import_s"] = len(imports)
    return {"metrics": metrics, "counts": counts}, {"import_samples_s": imports}


def git_sha():
    """HEAD of a git checkout at the root, read without running git; else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hdse").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(versions: dict) -> dict:
    return {"git_sha": git_sha(), "src_sha256": src_digest(), **versions,
            "cpu_count": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdse" / "__init__.py").is_file():
        print(f"run.py: no hdse package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        result, first_setup = start_worker(args, deadline)
        if args.trace:
            table, extra = per_layer(result, import_seconds())
            units = PER_LAYER
            records = result["untraced"] + result["ops"]
        else:
            setup = [first_setup]
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(start_worker(args, deadline, ["--setup-only"])[1])
            table, extra = end_to_end(result, setup)
            units = END_TO_END
            records = result["ops"]
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failures = [r for r in records if r["status"] == "failed"] + result["warmup_failures"]
    known = [r for r in records if r["status"] == "known_failure"]
    summary = {"correct": not failures, "attempted": len(result["ops"]),
               "failed": sum(r["status"] == "failed" for r in result["ops"]),
               "metrics": {name: {"value": table["metrics"][name], "unit": unit}
                           for name, unit in units.items()}}

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    for name, unit in units.items():
        print(f"{label}  {name} = {table['metrics'][name]:.6g} {unit}  "
              f"(n={table['counts'][name]})")
    if not args.trace and extra["op_ms_tail"] is not None:
        print(f"{label}  op_ms_tail = {extra['op_ms_tail']:.6g} ms at "
              f"p{extra['op_ms_tail_percentile']:.1f}  (n={len(records)})")
    print(f"{label}  ops: {summary['attempted']} attempted, {len(known)} known failures, "
          f"{len(failures)} failed; correct={summary['correct']}")
    for r in failures[:10]:
        print(f"{label}  FAILED {r['id']}: {r['detail']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(result["versions"]),
              "summary": summary, "sample_counts": table["counts"], **extra,
              "known_failures": [r["id"] for r in known],
              "failures": failures, "ops": records}
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
