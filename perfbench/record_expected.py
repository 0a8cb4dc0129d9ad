"""Record ``perfbench/expected/<workload>.json`` from the current code.

    python3 perfbench/record_expected.py --workload paper-fi

For every fault-plan seed a run can draw, runs the workload's traced round
and the sweep with checks in record mode, so every value a run of the
workload can check (outcome counts, cycles, record and result digests) is
stored. Each program of the pool leads the draw for some plan seed, which
covers ``paper-timing``'s cycle-model program choice. Re-record only when
a change is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
import traffic  # noqa: E402


def record(workload: str) -> dict:
    cfg = traffic.WORKLOADS[workload]
    expected: dict = {}
    for index, plan_seed in enumerate(traffic.PLAN_SEEDS):
        lead = index % len(cfg.pool)
        inputs = traffic.Draw(cfg.pool[lead:] + cfg.pool[:lead], plan_seed)
        run_dir = os.path.join(HERE, "out", f"record-{workload}-{plan_seed}")
        run = traffic.Run(run_dir, expected, record=True)
        try:
            builds, _, instructions = traffic.setup(run, cfg, inputs.programs, 1)
            run.tracer = ledger.Tracer(f"record-{workload}")
            traffic.run_round(run, cfg, inputs, builds, instructions)
            traffic.sweep(run, plan_seed)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if run.failed:
            raise SystemExit(f"{workload} plan seed {plan_seed}: "
                             f"{run.failed} operations failed")
        print(f"{workload} plan seed {plan_seed}: {len(expected)} values",
              flush=True)
    return expected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(traffic.WORKLOADS))
    args = parser.parse_args()
    expected = record(args.workload)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    path = os.path.join(HERE, "expected", f"{args.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
