"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/out/summary.json
    python3 perfbench/summarize.py --workloads se_sweep --seeds 1-5 --trace 1

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over median) and every value, next to the provenance of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,5")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())[
                            "run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{args.trace}.json")
                                .read_text())
            summary.setdefault("provenance", record["provenance"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "known_failures": len(record["known_failures"])})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        stats = {name: describe(v) for name, v in values.items()}
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            print(f"{workload:12s} {name:40s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread'] or 0:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
