"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-fi --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is ``src/repro``
next to this directory. ``--trace 0`` repeats the workload's round until
``--seconds`` have passed and reports the end-to-end metrics. ``--trace 1``
runs one untraced round, one traced round and the sweep, prints the
per-layer ledger, writes it with every span to
``perfbench/out/ledger-<workload>-s<seed>.json`` and reports the per-layer
metrics. The last stdout line is always the JSON result; every failed
operation is printed before it.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-up samples before the first round and after the last; one more is
#: taken after every round, so the samples whose median is ``setup_s``
#: spread over the whole run.
SETUP_REPS = 4


def load_expected() -> dict:
    expected: dict = {}
    for path in sorted(glob.glob(os.path.join(HERE, "expected", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            expected.update(json.load(handle))
    return expected


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest forked child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, log=print) -> dict:
    """Run one benchmark invocation and return its result object."""
    import layers
    import ledger
    import traffic

    cfg = traffic.WORKLOADS[workload]
    inputs = traffic.draw(workload, seed)
    run_dir = os.path.join(OUT, f"{workload}-s{seed}-p{os.getpid()}")
    run = traffic.Run(run_dir, expected, log=log)
    try:
        builds, setup_times, instructions = traffic.setup(
            run, cfg, inputs.programs, SETUP_REPS)
        gc.collect()
        start = time.perf_counter()
        traffic.run_round(run, cfg, inputs, builds, instructions)
        untraced = time.perf_counter() - start
        if not trace:
            rounds = 1
            while time.perf_counter() - start < seconds:
                setup_times.append(
                    traffic.build_once(run, cfg, inputs.programs)[1])
                gc.collect()
                traffic.run_round(run, cfg, inputs.for_round(rounds), builds,
                                  instructions)
                rounds += 1
            setup_times += [traffic.build_once(run, cfg, inputs.programs)[1]
                            for _ in range(SETUP_REPS)]
            factor = traffic.scale_factor(run.calibration)
            campaign_s = run.wall_s["campaign"] * factor
            timing_s = run.wall_s["timing"] * factor
            metrics = {
                "faults_per_s": (run.faults / campaign_s, "faults/s"),
                "timed_instr_per_s": (run.timed_instructions / timing_s,
                                      "instr/s"),
                "setup_s": (statistics.median(setup_times) * factor, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}
            log(f"{workload} seed {seed}: {rounds} rounds; wall seconds: "
                f"campaign {run.wall_s['campaign']:.3f}, timing "
                f"{run.wall_s['timing']:.3f}, set-up median "
                f"{statistics.median(setup_times):.4f}; scale factor "
                f"{factor:.4f} from {len(run.calibration)} calibration "
                "samples")
        else:
            run.tracer = ledger.Tracer(f"{workload}-s{seed}")
            gc.collect()
            start = time.perf_counter()
            traffic.run_round(run, cfg, inputs, builds, instructions)
            traced = time.perf_counter() - start
            traffic.sweep(run, inputs.plan_seed)
            report = ledger.ledger(run.tracer.spans, traced, untraced)
            log(f"ledger: {workload} seed {seed} programs "
                f"{','.join(inputs.programs)} plan seed {inputs.plan_seed}")
            log(ledger.render(report))
            ledger.write(os.path.join(OUT, f"ledger-{workload}-s{seed}.json"),
                         report, run.tracer.spans)
            metrics = layers.per_layer(run.tracer.spans, report)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-fi", "paper-timing", "fastpath-service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: {src}/repro not found; run the benchmark from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_expected())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
