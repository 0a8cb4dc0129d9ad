"""Full evaluation run: all figures/tables, saved next to this script.

Usage: ``PYTHONPATH=src python results/run_full_eval.py [SAMPLES]``
(default 100 faults per campaign). Writes ``full_eval.txt`` (rendered
tables) and ``full_eval.json`` (summary numbers plus per-experiment wall
seconds under ``wall_seconds``).
"""
import json
import sys
import time
from pathlib import Path

from repro.evaluation import (
    run_fig10, run_fig11, run_transform_time, run_crosslayer_gap,
    render_fig10, render_fig11, render_transform_time, render_gap,
    render_table1, render_table2,
)
from repro.evaluation.report import render_fig10_outcomes

SAMPLES = int(sys.argv[1]) if len(sys.argv) > 1 else 100
OUT_DIR = Path(__file__).resolve().parent

out = []
wall = {}
t0 = time.time()
mark = t0


def done(stage):
    """Record ``stage``'s wall seconds since the previous stage ended."""
    global mark
    now = time.time()
    wall[stage] = now - mark
    mark = now
    print(f"[{now - t0:6.0f}s] {stage} done", flush=True)


out.append(render_table1()); out.append("")
out.append(render_table2()); out.append("")
done("tables")

fig11 = run_fig11()
out.append(render_fig11(fig11)); out.append("")
done("fig11")

tt = run_transform_time()
out.append(render_transform_time(tt)); out.append("")
done("transform_time")

fig10 = run_fig10(samples=SAMPLES)
out.append(render_fig10(fig10)); out.append("")
out.append(render_fig10_outcomes(fig10)); out.append("")
done("fig10")

gap = run_crosslayer_gap(samples=SAMPLES)
out.append(render_gap(gap)); out.append("")
done("gap")
wall["total"] = time.time() - t0

(OUT_DIR / "full_eval.txt").write_text("\n".join(out))

summary = {
    "samples": SAMPLES,
    "wall_seconds": {stage: round(seconds, 2) for stage, seconds in wall.items()},
    "fig11_avg": {t: fig11.average_overhead(t) for t in ("ir-eddi","hybrid","ferrum")},
    "fig10_avg": {t: fig10.average_coverage(t) for t in ("ir-eddi","hybrid","ferrum")},
    "fig10_rows": [
        {"benchmark": r.benchmark,
         "raw_sdc": r.raw.sdc_probability,
         **{t: r.coverage(t) for t in ("ir-eddi","hybrid","ferrum")}}
        for r in fig10.rows
    ],
    "gap_avg": gap.average_gap,
    "gap_rows": gap.rows,
    "transform_ms": [dict(r, seconds=float(r["seconds"])) for r in tt.rows],
}
with open(OUT_DIR / "full_eval.json", "w") as f:
    json.dump(summary, f, indent=2, default=str)
print("ALL DONE", wall["total"], flush=True)
