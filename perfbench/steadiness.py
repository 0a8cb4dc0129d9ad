"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 perfbench/steadiness.py --workload paper-fi --seeds 1-10 \
        --output perfbench/evidence/steadiness.json

Runs ``run.py`` once per seed, one run at a time, and records every result
line, the wall time of each run, and for each metric its median, quartiles
and spread (interquartile distance over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound from BENCHMARK.json. Results for several workloads accumulate in
one output file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import traffic  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = [sys.executable, *bench["command"][1:],
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
        start = time.perf_counter()
        out = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, check=True)
        wall = time.perf_counter() - start
        *log, last = out.stdout.strip().splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, "wall_s": wall, "log": log, **result})
        print(f"{args.workload} seed {seed}: {wall:.1f} s, "
              f"{result['attempted']} ops, {result['failed']} failed", flush=True)
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        row = spread([r["metrics"][name]["value"] for r in runs])
        row["bound"] = bounds.get(name)
        summary[name] = row
        print(f"  {name:<28} median {row['median']:.6g} spread "
              f"{row['spread']:.4f} bound {row['bound']}")
    summary["wall_s"] = spread([r["wall_s"] for r in runs])
    doc = {}
    if os.path.exists(args.output):
        with open(args.output, encoding="utf-8") as handle:
            doc = json.load(handle)
    doc.setdefault("host", {
        "nproc": os.cpu_count(),
        "benchmark_processes": 1,
        "service_workers": traffic.WORKERS,
        "python": sys.version.split()[0],
    })
    doc[f"{args.workload}/trace{args.trace}"] = {"summary": summary,
                                                  "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
