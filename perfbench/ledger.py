"""Spans kept in memory, and the per-layer self-time ledger built from them.

A span records one call into a layer's public function: its name
(``<layer-prefix>.<function>``), start, end, the span that caused it and
the run it belongs to. Spans marked ``extra`` wrap calls the experiments
would not make themselves (a separate golden run to time it apart from its
campaign, an untimed reference run to isolate the timing model, ...); they
are measurement probes, and the tracing overhead is computed without them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: The repo's layers (its modules), in pipeline order.
LAYERS: tuple[str, ...] = (
    "minic", "eddi", "backend", "core", "machine", "ir", "faultinjection",
    "evaluation",
)

#: Span-name prefix -> layer. ``timing`` and ``converge`` live in
#: ``repro.machine``; campaign, pruning, compose, service and telemetry in
#: ``repro.faultinjection``; ``unit`` groups one unit's fixed analyses.
_LAYER_OF_PREFIX = {
    "minic": "minic", "eddi": "eddi", "backend": "backend", "core": "core",
    "machine": "machine", "timing": "machine", "converge": "machine",
    "ir": "ir",
    "campaign": "faultinjection", "equivalence": "faultinjection",
    "compose": "faultinjection", "service": "faultinjection",
    "telemetry": "faultinjection", "unit": "faultinjection",
    "evaluation": "evaluation",
}


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix before the first dot)."""
    return _LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Tracer:
    """Records spans in memory; written out once, at the end of a run."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.phase = "workload"
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, extra: bool = False, **attrs):
        """Time the enclosed call; yields the span's attribute dict so the
        caller can attach counts measured inside it."""
        layer_of(name)  # unknown prefixes fail at once, not in the report
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "phase": self.phase,
            "extra": extra,
            "attrs": attrs,
            "start": self._clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = self._clock()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: duration(span) - _covered(
            children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def _extra_ids(spans: list[dict]) -> set[int]:
    """Ids of extra spans and of every span nested inside one."""
    extra: set[int] = set()
    for span in spans:  # parents precede children in recording order
        if span["extra"] or span["parent"] in extra:
            extra.add(span["id"])
    return extra


def extra_seconds(spans: list[dict]) -> float:
    """Wall time spent in outermost extra spans (probe work)."""
    inside = _extra_ids(spans)
    return sum(duration(span) for span in spans
               if span["id"] in inside
               and (span["parent"] is None or span["parent"] not in inside))


def net_seconds(spans: list[dict], span: dict) -> float:
    """``span``'s duration minus the outermost extra spans nested in it."""
    inside = _extra_ids(spans)
    descendants = {span["id"]}
    extra = 0.0
    for other in spans:
        if other["parent"] in descendants:
            descendants.add(other["id"])
            if other["id"] in inside and other["parent"] not in inside:
                extra += duration(other)
    return duration(span) - extra


def layer_self_times(spans: list[dict], probes: bool = False) -> dict[str, float]:
    """Layer -> summed self time of its work spans (``probes=False``) or
    of its probe spans (``probes=True``)."""
    own = self_times(spans)
    inside = _extra_ids(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if (span["id"] in inside) == probes:
            totals[layer_of(span["name"])] += own[span["id"]]
    return totals


def ledger(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer report of one traced run.

    ``overhead_s`` is the traced round's wall time, less the probe spans it
    contained, minus the untraced round's wall time on the same inputs.
    """
    workload_spans = [s for s in spans if s["phase"] == "workload"]
    probe_s = extra_seconds(workload_spans)
    overhead = traced_wall - probe_s - untraced_wall
    by_name: dict[str, dict[str, float]] = {}
    own = self_times(spans)
    for span in workload_spans:
        row = by_name.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration(span)
        row["self_s"] += own[span["id"]]
    return {
        "self_s": layer_self_times(workload_spans),
        "probe_self_s": layer_self_times(workload_spans, probes=True),
        "by_span": by_name,
        "traced_wall_s": traced_wall,
        "probe_s": probe_s,
        "untraced_wall_s": untraced_wall,
        "overhead_s": overhead,
        "overhead_fraction": overhead / untraced_wall if untraced_wall else 0.0,
    }


def render(report: dict) -> str:
    """Plain-text ledger table."""
    lines = [f"{'layer':<16}{'self s':>10}{'probe s':>10}"]
    for layer in LAYERS:
        lines.append(f"{layer:<16}{report['self_s'][layer]:>10.3f}"
                     f"{report['probe_self_s'][layer]:>10.3f}")
    lines.append(
        f"traced round {report['traced_wall_s']:.3f} s "
        f"(probes {report['probe_s']:.3f} s) vs untraced round "
        f"{report['untraced_wall_s']:.3f} s: tracing overhead "
        f"{report['overhead_s']:+.3f} s ({report['overhead_fraction']:+.2%})")
    return "\n".join(lines)


def write(path: str, report: dict, spans: list[dict]) -> None:
    """Write the ledger and every span as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"ledger": report, "spans": spans}, handle, indent=1)
