"""Per-layer metrics of a traced run, and which end-to-end metric each moves.

Every row of ``METRICS`` is (name, unit, better, end-to-end metric it
should move, workload where it shows, how to compute it from the spans).
A metric is computed from the workload's own spans when the workload makes
that layer call, and otherwise from the traced run's sweep over the
remaining layers (see ``traffic.sweep``). ``python3 perfbench/layers.py``
prints the table as Markdown.
"""

from __future__ import annotations

from ledger import LAYERS, duration, net_seconds

VARIANTS = ("raw", "ir-eddi", "hybrid", "ferrum", "dme")
ENGINES = ("translated", "fused", "reference")


def _pick(spans: list[dict], name: str, **match) -> list[dict]:
    """The workload's spans called ``name`` (matching ``match`` attributes),
    or the sweep's when the workload made no such call."""
    for phase in ("workload", "sweep"):
        found = [s for s in spans if s["phase"] == phase and s["name"] == name
                 and all(s["attrs"].get(k) == v for k, v in match.items())]
        if found:
            return found
    raise KeyError(f"no {name!r} span matching {match}")


def _seconds(name, **match):
    return lambda spans: sum(duration(s) for s in _pick(spans, name, **match))


def _net_seconds(name):
    return lambda spans: sum(net_seconds(spans, s) for s in _pick(spans, name))


def _total(name, attr, **match):
    return lambda spans: sum(s["attrs"][attr]
                             for s in _pick(spans, name, **match))


def _rate(name, attr, **match):
    def rate(spans):
        found = _pick(spans, name, **match)
        return sum(s["attrs"][attr] for s in found) / sum(map(duration, found))
    return rate


def _fraction(name, part, *whole):
    def fraction(spans):
        found = _pick(spans, name)
        den = sum(s["attrs"][key] for s in found for key in whole)
        return sum(s["attrs"][part] for s in found) / den if den else 0.0
    return fraction


def _per_program(name, attr, **match):
    """Sum over distinct programs of ``attr`` (every experiment rebuilds
    its programs)."""
    def value(spans):
        return sum({s["attrs"]["program"]: s["attrs"][attr]
                    for s in _pick(spans, name, **match)}.values())
    return value


def _ferrum_size_ratio(spans):
    return (_per_program("core.ferrum", "asm_instructions")(spans)
            / _per_program("backend.compile_module", "asm_instructions",
                           variant="ferrum")(spans))


def _timing_self(spans):
    """Timed runs minus an untimed reference-engine run of each binary."""
    reference = {(s["attrs"]["program"], s["attrs"]["variant"]): duration(s)
                 for s in _pick(spans, "machine.reference_run")}
    return sum(duration(s) - reference[(s["attrs"]["program"],
                                        s["attrs"]["variant"])]
               for s in _pick(spans, "machine.timed_run"))


def _cycles(spans):
    return sum({(s["attrs"]["program"], s["attrs"]["variant"]):
                s["attrs"]["cycles"]
                for s in _pick(spans, "machine.timed_run")}.values())


def _telemetry_overhead(spans):
    return (_seconds("compose.cold")(spans)
            - _seconds("telemetry.no_jsonl")(spans))


def _peak(name, attr):
    return lambda spans: max(s["attrs"][attr] for s in _pick(spans, name))


SETUP, FI, TIMING, FAST = ("all", "paper-fi", "paper-timing",
                           "fastpath-service")

METRICS: list[tuple] = [
    ("minic.compile_to_ir_s", "s", "lower", "setup_s", SETUP,
     _seconds("minic.compile_to_ir")),
    ("minic.ir_instructions", "count", "lower", "setup_s", SETUP,
     _per_program("minic.compile_to_ir", "ir_instructions", variant="raw")),
    ("eddi.protect_module_s", "s", "lower", "setup_s", SETUP,
     _seconds("eddi.protect_module")),
    ("eddi.signatures_s", "s", "lower", "setup_s", SETUP,
     _seconds("eddi.signatures")),
    ("backend.compile_module_s", "s", "lower", "setup_s", SETUP,
     _seconds("backend.compile_module")),
    ("backend.asm_instructions", "count", "lower", "setup_s", SETUP,
     _per_program("backend.compile_module", "asm_instructions",
                  variant="raw")),
    ("core.ferrum_s", "s", "lower", "setup_s", SETUP,
     _seconds("core.ferrum")),
    ("core.hybrid_s", "s", "lower", "setup_s", SETUP,
     _seconds("core.hybrid")),
    ("core.dme_s", "s", "lower", "setup_s", SETUP, _seconds("core.dme")),
    ("core.ferrum_size_ratio", "ratio", "lower", "setup_s", SETUP,
     _ferrum_size_ratio),
    ("machine.golden_s", "s", "lower", "faults_per_s", FI,
     _seconds("machine.golden")),
    *[(f"machine.instr_per_s.{engine}", "instr/s", "higher", "faults_per_s",
       FI, _rate("machine.engine_run", "instructions", engine=engine))
      for engine in ENGINES],
    ("machine.first_run_translate_s", "s", "lower", "faults_per_s", FI,
     _seconds("machine.translate_program")),
    ("machine.timed_run_s", "s", "lower", "timed_instr_per_s", TIMING,
     _seconds("machine.timed_run")),
    ("machine.timing_self_s", "s", "lower", "timed_instr_per_s", TIMING,
     _timing_self),
    ("machine.cycles", "cycles", "lower", "timed_instr_per_s", TIMING,
     _cycles),
    ("campaign.run_campaign_s", "s", "lower", "faults_per_s", FI,
     _seconds("campaign.run_campaign")),
    *[(f"campaign.faults_per_s.{variant}", "faults/s", "higher",
       "faults_per_s", FI,
       _rate("campaign.run_campaign", "faults", variant=variant))
      for variant in VARIANTS],
    ("ir.run_s", "s", "lower", "faults_per_s", FI, _seconds("ir.run")),
    ("ir.run_ir_campaign_s", "s", "lower", "faults_per_s", FI,
     _seconds("ir.run_ir_campaign")),
    ("equivalence.record_golden_trace_s", "s", "lower", "faults_per_s", FAST,
     _seconds("equivalence.record_golden_trace")),
    ("equivalence.analyze_plans_s", "s", "lower", "faults_per_s", FAST,
     _seconds("equivalence.analyze_plans")),
    ("equivalence.executed_fraction", "ratio", "lower", "faults_per_s", FAST,
     _fraction("compose.cold", "executed", "samples")),
    ("converge.record_trail_s", "s", "lower", "faults_per_s", FAST,
     _seconds("converge.record_trail")),
    ("converge.converged_fraction", "ratio", "higher", "faults_per_s", FAST,
     _fraction("compose.cold", "converged", "runs")),
    ("converge.instructions_saved", "instr", "higher", "faults_per_s", FAST,
     _total("compose.cold", "saved")),
    ("unit.fixed_s", "s", "lower", "faults_per_s", FAST,
     _seconds("unit.fixed")),
    ("compose.trace_sections_s", "s", "lower", "faults_per_s", FAST,
     _seconds("compose.trace_sections")),
    ("compose.cold_s", "s", "lower", "faults_per_s", FAST,
     _seconds("compose.cold")),
    ("compose.warm_s", "s", "lower", "faults_per_s", FAST,
     _seconds("compose.warm")),
    ("compose.cache_hit_fraction", "ratio", "higher", "faults_per_s", FAST,
     _fraction("compose.warm", "hits", "hits", "misses")),
    ("service.compile_campaign_s", "s", "lower", "faults_per_s", FAST,
     _seconds("service.compile_campaign")),
    ("service.run_s", "s", "lower", "faults_per_s", FAST,
     _seconds("service.run")),
    ("service.peak_record_buffer", "count", "lower", "peak_rss_mb", FAST,
     _peak("service.run", "peak_record_buffer")),
    ("telemetry.jsonl_bytes", "bytes", "lower", "peak_rss_mb", FAST,
     _total("compose.cold", "jsonl_bytes")),
    ("telemetry.overhead_s", "s", "lower", "faults_per_s", FAST,
     _telemetry_overhead),
    ("evaluation.run_fig10_s", "s", "lower", "faults_per_s", FI,
     _net_seconds("evaluation.run_fig10")),
    ("evaluation.run_crosslayer_gap_s", "s", "lower", "faults_per_s", FI,
     _net_seconds("evaluation.run_crosslayer_gap")),
    ("evaluation.run_fig11_s", "s", "lower", "timed_instr_per_s", TIMING,
     _net_seconds("evaluation.run_fig11")),
]

#: Ledger rows: each layer's self time in the traced round, and the
#: traced and untraced round wall times whose difference is the overhead.
LEDGER_METRICS: list[tuple] = [
    *[(f"self_s.{layer}", "s", "lower", "(attribution)", "each")
      for layer in LAYERS],
    ("trace.untraced_wall_s", "s", "lower", "(overhead)", "each"),
    ("trace.traced_wall_s", "s", "lower", "(overhead)", "each"),
    ("trace.overhead_s", "s", "lower", "(overhead)", "each"),
    ("trace.overhead_fraction", "ratio", "lower", "(overhead)", "each"),
]


def per_layer(spans: list[dict], report: dict) -> dict[str, dict]:
    """Every per-layer metric of one traced run, ``{name: {value, unit}}``."""
    metrics = {name: {"value": fn(spans), "unit": unit}
               for name, unit, _better, _moves, _where, fn in METRICS}
    ledger_values = {
        **{f"self_s.{layer}": report["self_s"][layer] for layer in LAYERS},
        "trace.untraced_wall_s": report["untraced_wall_s"],
        "trace.traced_wall_s": report["traced_wall_s"],
        "trace.overhead_s": report["overhead_s"],
        "trace.overhead_fraction": report["overhead_fraction"],
    }
    for name, unit, *_ in LEDGER_METRICS:
        metrics[name] = {"value": ledger_values[name], "unit": unit}
    return metrics


def declared() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json."""
    return [{"name": name, "unit": unit, "better": better}
            for name, unit, better, *_ in METRICS + LEDGER_METRICS]


def markdown() -> str:
    lines = ["| per-layer metric | unit | better | moves | workload |",
             "|---|---|---|---|---|"]
    for name, unit, better, moves, where, *_ in METRICS + LEDGER_METRICS:
        lines.append(f"| `{name}` | {unit} | {better} | `{moves}` | {where} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(markdown())
