"""The benchmark's workloads, driven through the system's public entry points.

Every workload is a *round* of operations repeated until the run's time is
up. An operation is one build, one campaign unit, one timed (program,
variant) run or one service unit; it fails if it raises or if a
correctness check on its output fails. Untraced rounds call the paper's
experiments (``run_fig10``, ``run_crosslayer_gap``, ``run_fig11``) and the
fast-path entry points (``compose_campaign``, ``serve_campaign``)
directly. Traced rounds make the same calls one layer at a time, each
inside a span, in the order the experiments make them.

Correctness: each variant's fault-free output must equal the IR
interpreter's output on the unprotected IR, and every simulated statistic
(outcome counts, cycles, FaultRecord digests, service result digests) must
equal the value recorded in ``expected/<workload>.json`` for the same
inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

from repro.asm.program import validate_program
from repro.backend import compile_module
from repro.core.dme import build_dme_program
from repro.core.ferrum import protect_program
from repro.core.hybrid import protect_program_hybrid
from repro.core.validate import check_protection_invariants
from repro.eddi.ir_eddi import protect_module
from repro.eddi.signatures import protect_branches_with_signatures
from repro.evaluation.experiments import (
    TECHNIQUES,
    run_crosslayer_gap,
    run_fig10,
    run_fig11,
)
from repro.evaluation.metrics import runtime_overhead, sdc_coverage
from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.faultinjection.compose import compose_campaign, trace_sections
from repro.faultinjection.equivalence import analyze_plans, record_golden_trace
from repro.faultinjection.injector import FaultPlan
from repro.faultinjection.outcome import Outcome, OutcomeCounts
from repro.faultinjection.service import (
    CampaignSpec,
    ServiceConfig,
    compile_campaign,
    serve_campaign,
)
from repro.ir.interp import IRInterpreter
from repro.ir.verifier import verify_module
from repro.machine.converge import record_trail
from repro.machine.cpu import ENGINES, Machine
from repro.machine.timing import TimingConfig
from repro.machine.translate import translate_program
from repro.minic import compile_to_ir
from repro.pipeline import VARIANTS, BuildResult, CompiledVariant, build_variants
from repro.utils.rng import DeterministicRng
from repro.workloads import get_workload

#: Fault-plan seeds a run can draw; ``expected/`` covers every one.
PLAN_SEEDS: tuple[int, ...] = tuple(range(101, 109))

#: Variants whose campaigns ``run_fig10`` reports, in its order.
FIG10_VARIANTS: tuple[str, ...] = ("raw",) + TECHNIQUES

#: The cross-layer gap's four units: (level, variant).
GAP_UNITS: tuple[tuple[str, str], ...] = (
    ("ir", "raw"), ("ir", "ir-eddi"), ("asm", "raw"), ("asm", "ir-eddi"))

#: Units of the fast-path workload: pruning pays on ferrum, not on raw.
FASTPATH_VARIANTS: tuple[str, ...] = ("raw", "ferrum", "dme")

#: Program and size of the small pass a traced run makes over layers its
#: workload does not reach, so every per-layer metric has a value.
SWEEP_PROGRAM = "knn"
SWEEP_SAMPLES = 8

#: Iterations of the calibration loop, and its time on the nominal machine
#: that every end-to-end time is scaled to (see ``scale_factor``).
CALIBRATION_LOOPS = 40_000
CALIBRATION_NOMINAL_S = 0.0048

#: Service worker processes: no more than the machine has cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class WorkloadConfig:
    """One workload: the programs its seed draws from and its sizes."""

    name: str
    pool: tuple[str, ...]
    variants: tuple[str, ...]   # what setup builds (what the workload uses)
    samples: int                # faults per campaign unit


WORKLOADS: dict[str, WorkloadConfig] = {
    cfg.name: cfg for cfg in (
        WorkloadConfig("paper-fi", ("bfs", "knn"), VARIANTS, 30),
        WorkloadConfig("paper-timing", ("bfs", "knn"), VARIANTS, 12),
        WorkloadConfig("fastpath-service", ("knn", "bfs"),
                       FASTPATH_VARIANTS, 12),
    )
}


@dataclass(frozen=True)
class Draw:
    """The inputs a seed selects: program order and fault-plan seed.

    ``paper-timing`` times only ``programs[0]`` under the cycle model.
    """

    programs: tuple[str, ...]
    plan_seed: int

    def for_round(self, index: int) -> "Draw":
        """Round ``index`` rotates the programs and moves on through
        ``PLAN_SEEDS``, so a run's cost averages over fault populations
        and the lead program changes from round to round."""
        start = PLAN_SEEDS.index(self.plan_seed)
        turn = index % len(self.programs)
        return Draw(self.programs[turn:] + self.programs[:turn],
                    PLAN_SEEDS[(start + index) % len(PLAN_SEEDS)])


def draw(workload: str, seed: int) -> Draw:
    """Deterministic inputs for ``workload`` under benchmark seed ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    programs = list(WORKLOADS[workload].pool)
    rng.shuffle(programs)
    return Draw(tuple(programs), PLAN_SEEDS[rng.randrange(len(PLAN_SEEDS))])


def plan_population(plan_seed: int, samples: int, fault_sites: int) -> list:
    """The ``(run_index, FaultPlan)`` list every campaign entry point draws."""
    rng = DeterministicRng(plan_seed)
    return [(i, FaultPlan.sample(rng.fork(i), fault_sites))
            for i in range(samples)]


def calibration_sample() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs now."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        total += (i * i) % 7
        table[i & 255] = total
    return time.perf_counter() - start


def scale_factor(samples: list[float]) -> float:
    """Factor that turns this run's wall times into nominal-machine times.

    This machine's speed drifts by a quarter and more over seconds to
    minutes, shared with other tenants, and the drift moves every
    measurement in a run alike. ``samples`` are calibration times taken
    around the run's measured calls; dividing by their median removes the
    drift, while the program's own speed, which the loop does not share,
    still shows in full."""
    return CALIBRATION_NOMINAL_S / statistics.median(samples)


def counts(result) -> dict[str, int]:
    return {outcome.value: result.outcomes[outcome] for outcome in Outcome}


def _outcome_counts(values: dict[str, int]) -> OutcomeCounts:
    found = OutcomeCounts()
    for outcome in Outcome:
        found.counts[outcome] = values[outcome.value]
    return found


def jsonl_digest(path: str, program) -> str:
    """SHA-256 of a FaultRecord JSONL file with ``instruction_uid`` made
    program-local (uids count every instruction the process ever built)."""
    ordinal = {instr.uid: i for i, instr in enumerate(program.instructions())}
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("instruction_uid") is not None:
                record["instruction_uid"] = ordinal.get(record["instruction_uid"])
            digest.update(json.dumps(record, sort_keys=True).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# -- operations and checks ------------------------------------------------


class Unit:
    """One operation's correctness verdict."""

    def __init__(self, run: "Run", label: str) -> None:
        self.run = run
        self.label = label
        self.problems: list[str] = []

    def check(self, key: str, actual) -> None:
        """``actual`` must equal the recorded value under ``key``."""
        problem = self.run.compare(key, actual)
        if problem:
            self.problems.append(problem)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Run:
    """Counters, expected values, clock and output directory of one run.

    With ``record=True`` checks store the values they see instead of
    comparing (a key seen twice must repeat its value); that is how
    ``expected/<workload>.json`` is made.
    """

    def __init__(self, out_dir: str, expected: dict, record: bool = False,
                 log=print) -> None:
        self.out_dir = out_dir
        self.expected = expected
        self.record = record
        self.log = log
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.wall_s = {"campaign": 0.0, "timing": 0.0}
        self.calibration: list[float] = []
        self.faults = 0
        self.timed_instructions = 0
        self.referenced: set[tuple[str, str]] = set()
        self._dirs = 0

    def compare(self, key: str, actual) -> str | None:
        if self.record and key not in self.expected:
            self.expected[key] = actual
            return None
        if key not in self.expected:
            return f"{key}: no expected value recorded"
        if self.expected[key] != actual:
            return f"{key}: expected {self.expected[key]!r}, got {actual!r}"
        return None

    def expect(self, key: str):
        return self.expected.get(key)

    @contextmanager
    def units(self, labels):
        """Count ``labels`` as attempted operations; an exception inside
        fails all of them, a failed check fails its own."""
        units = {label: Unit(self, label) for label in labels}
        self.attempted += len(units)
        try:
            yield units
        except Exception:  # the run must go on and report the failure
            self.failed += len(units)
            self.log(f"FAILED {', '.join(units)}:\n{traceback.format_exc()}")
            return
        for unit in units.values():
            if unit.problems:
                self.failed += 1
                for problem in unit.problems:
                    self.log(f"FAILED {unit.label}: {problem}")

    @contextmanager
    def timed(self, phase: str):
        """Add the enclosed call's wall time to ``wall_s[phase]``, with a
        calibration sample on either side of it."""
        self.calibration.append(calibration_sample())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s[phase] += time.perf_counter() - start
            self.calibration.append(calibration_sample())

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.out_dir, f"{self._dirs:04d}-{stem}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    @contextmanager
    def span(self, name: str, extra: bool = False, **attrs):
        """A tracer span when tracing, else nothing."""
        if self.tracer is None:
            yield attrs
        else:
            with self.tracer.span(name, extra=extra, **attrs) as found:
                yield found


# -- builds ---------------------------------------------------------------


def traced_build(run: Run, program: str, names: tuple[str, ...],
                 extra: bool = False) -> BuildResult:
    """``build_variants`` one layer call at a time (mirrors repro.pipeline)."""
    source = get_workload(program).source(1)
    result = BuildResult(source)
    for name in names:
        with run.span("minic.compile_to_ir", extra, program=program,
                      variant=name) as attrs:
            ir = compile_to_ir(source)
            attrs["ir_instructions"] = ir.static_size()
        stats = None
        if name == "ir-eddi":
            with run.span("eddi.protect_module", extra, program=program):
                stats = protect_module(ir)
            verify_module(ir)
        elif name == "hybrid":
            with run.span("eddi.signatures", extra, program=program):
                protect_branches_with_signatures(ir)
        if name == "dme":
            with run.span("core.dme", extra, program=program):
                asm = build_dme_program(ir)
            validate_program(asm.secondary)
        else:
            with run.span("backend.compile_module", extra, program=program,
                          variant=name) as attrs:
                asm = compile_module(ir)
                attrs["asm_instructions"] = asm.static_size()
        if name == "hybrid":
            with run.span("core.hybrid", extra, program=program):
                asm, stats = protect_program_hybrid(asm, None)
        elif name == "ferrum":
            with run.span("core.ferrum", extra, program=program) as attrs:
                asm, stats = protect_program(asm, None)
                attrs["asm_instructions"] = asm.static_size()
        validate_program(asm)
        if name in ("hybrid", "ferrum"):
            check_protection_invariants(asm)
        result.variants[name] = CompiledVariant(name, asm, ir, stats)
    return result


def build_once(run: Run, cfg: WorkloadConfig, programs: tuple[str, ...]
               ) -> tuple[dict[str, BuildResult], float]:
    """One ``build_variants`` call per program; returns the builds and the
    summed build wall time (one set-up sample)."""
    gc.collect()
    elapsed = 0.0
    builds: dict[str, BuildResult] = {}
    for program in programs:
        source = get_workload(program).source(1)
        with run.units([f"build/{program}"]):
            run.calibration.append(calibration_sample())
            start = time.perf_counter()
            builds[program] = build_variants(source, names=cfg.variants)
            elapsed += time.perf_counter() - start
            run.calibration.append(calibration_sample())
    return builds, elapsed


def setup(run: Run, cfg: WorkloadConfig, programs: tuple[str, ...],
          reps: int) -> tuple[dict[str, BuildResult], list[float], dict]:
    """Build ``reps`` times; return the last builds, every set-up sample and
    each variant's fault-free instruction count.

    The last builds are checked: every variant's fault-free output must
    equal the IR interpreter's output on the unprotected IR.
    """
    times = []
    for _ in range(reps):
        builds, elapsed = build_once(run, cfg, programs)
        times.append(elapsed)
    instructions: dict[str, dict[str, int]] = {}
    for program, build in builds.items():
        instructions[program] = {}
        reference = IRInterpreter(build["raw"].ir).run()
        for name, variant in build.variants.items():
            with run.units([f"output/{program}/{name}"]) as units:
                got = Machine(variant.asm).run()
                instructions[program][name] = got.dynamic_instructions
                units[f"output/{program}/{name}"].require(
                    (got.exit_code, got.output)
                    == (reference.exit_code, reference.output),
                    f"fault-free output {got.output!r} (exit {got.exit_code})"
                    f" differs from the IR interpreter's {reference.output!r}"
                    f" (exit {reference.exit_code})")
    return builds, times, instructions


# -- machine-level probes (traced runs only) -------------------------------


def golden_run(run: Run, asm, program: str, variant: str):
    """A fault-free run timed apart from the campaign that repeats it."""
    with run.span("machine.golden", True, program=program,
                  variant=variant) as attrs:
        result = Machine(asm).run()
        attrs["instructions"] = result.dynamic_instructions
    return result


def engine_probe(run: Run, asm, program: str, variant: str) -> None:
    """First-run translation cost and steady instr/s of each engine."""
    with run.span("machine.engine_probe", True, program=program,
                  variant=variant):
        machine = Machine(asm)
        with run.span("machine.translate_program", program=program,
                      variant=variant):
            translate_program(machine)
        for engine in ENGINES:
            machine = Machine(asm, engine=engine)
            machine.run()  # translate/fuse before timing
            with run.span("machine.engine_run", program=program,
                          variant=variant, engine=engine) as attrs:
                attrs["instructions"] = machine.run().dynamic_instructions


def timed_run(run: Run, asm, program: str, variant: str):
    """One cycle-model run; traced runs add an untimed reference run of the
    same binary so the timing model's own cost shows."""
    with run.span("machine.timed_run", program=program,
                  variant=variant) as attrs:
        result = Machine(asm).run(timing=TimingConfig())
        attrs.update(cycles=result.cycles,
                     instructions=result.dynamic_instructions)
    if run.tracer is not None and (program, variant) not in run.referenced:
        run.referenced.add((program, variant))
        with run.span("machine.reference_run", True, program=program,
                      variant=variant):
            Machine(asm, engine="reference").run()
    return result


# -- paper-fi --------------------------------------------------------------


def _campaign_key(seed: int, samples: int, program: str, variant: str,
                  level: str = "asm") -> str:
    return f"campaign/{level}/s{seed}/n{samples}/{program}/{variant}"


def traced_campaign(run: Run, asm, program: str, variant: str,
                    samples: int, seed: int):
    golden_run(run, asm, program, variant)
    with run.span("campaign.run_campaign", program=program, variant=variant,
                  faults=samples):
        return run_campaign(asm, samples, seed=seed)


def fig10_op(run: Run, program: str, seed: int, samples: int) -> None:
    """``run_fig10`` on one program: four campaign units."""
    keys = {v: _campaign_key(seed, samples, program, v)
            for v in FIG10_VARIANTS}
    with run.units(keys.values()) as units:
        if run.tracer is None:
            with run.timed("campaign"):
                row = run_fig10(samples=samples, seed=seed,
                                workloads=(program,)).rows[0]
            results = {"raw": row.raw, **row.campaigns}
        else:
            with run.span("evaluation.run_fig10", program=program):
                build = traced_build(run, program, VARIANTS)
                results = {v: traced_campaign(run, build[v].asm, program, v,
                                              samples, seed)
                           for v in FIG10_VARIANTS}
        run.faults += samples * len(FIG10_VARIANTS)
        for variant, key in keys.items():
            units[key].check(key, counts(results[variant]))


def gap_op(run: Run, program: str, seed: int, samples: int) -> None:
    """``run_crosslayer_gap`` on one program: two IR and two asm units.

    ``run_crosslayer_gap`` reports coverages only, so untraced rounds
    check them against the coverages the recorded outcome counts imply."""
    keys = {unit: _campaign_key(seed, samples, program, unit[1], unit[0])
            for unit in GAP_UNITS}
    with run.units(keys.values()) as units:
        if run.tracer is None:
            with run.timed("campaign"):
                row = run_crosslayer_gap(samples=samples, seed=seed,
                                         workloads=(program,)).rows[0]
            for level, column in (("ir", "anticipated"), ("asm", "measured")):
                pair = [keys[(level, v)] for v in ("raw", "ir-eddi")]
                recorded = [run.expect(key) for key in pair]
                if None in recorded:
                    problem = "no expected outcome counts recorded"
                else:
                    want = sdc_coverage(
                        *(_outcome_counts(c).sdc_probability for c in recorded))
                    problem = (None if row[column] == want else
                               f"{column} coverage {row[column]!r}, expected "
                               f"{want!r} from the recorded outcome counts")
                for key in pair:
                    units[key].require(problem is None, problem)
        else:
            results = {}
            with run.span("evaluation.run_crosslayer_gap", program=program):
                build = traced_build(run, program, ("raw", "ir-eddi"))
                for variant in ("raw", "ir-eddi"):
                    module = build[variant].ir
                    with run.span("ir.run", True, program=program,
                                  variant=variant):
                        IRInterpreter(module).run()
                    with run.span("ir.run_ir_campaign", program=program,
                                  variant=variant, faults=samples):
                        results[("ir", variant)] = run_ir_campaign(
                            module, samples, seed=seed)
                for variant in ("raw", "ir-eddi"):
                    results[("asm", variant)] = traced_campaign(
                        run, build[variant].asm, program, variant, samples,
                        seed)
            for unit, key in keys.items():
                units[key].check(key, counts(results[unit]))
        run.faults += samples * len(GAP_UNITS)


def timing_probe_op(run: Run, inputs: Draw,
                    builds: dict[str, BuildResult]) -> None:
    """One timed (lead program, raw) run: the cycle model on a workload
    whose traffic is fault injection. Rounds spread these between their
    other operations."""
    program = inputs.programs[0]
    key = f"cycles/{program}/raw"
    with run.units([key]) as units:
        with run.timed("timing"):
            result = timed_run(run, builds[program]["raw"].asm, program, "raw")
        run.timed_instructions += result.dynamic_instructions
        units[key].check(key, result.cycles)


def engine_probes(run: Run, program: str,
                  builds: dict[str, BuildResult]) -> None:
    """Traced rounds only: the engine probes on ``program``'s raw and
    ferrum binaries."""
    if run.tracer is not None:
        for variant in ("raw", "ferrum"):
            engine_probe(run, builds[program][variant].asm, program, variant)


def paper_fi_round(run: Run, cfg: WorkloadConfig, inputs: Draw,
                   builds: dict[str, BuildResult]) -> None:
    for index, program in enumerate(inputs.programs):
        if index:
            timing_probe_op(run, inputs, builds)
        fig10_op(run, program, inputs.plan_seed, cfg.samples)
        timing_probe_op(run, inputs, builds)
        gap_op(run, program, inputs.plan_seed, cfg.samples)
    engine_probes(run, inputs.programs[0], builds)


# -- paper-timing ------------------------------------------------------------


def fig11_op(run: Run, program: str, instructions: dict[str, int]) -> None:
    """``run_fig11`` on one program: one timed unit per reported variant.

    ``run_fig11`` reports raw cycles and overheads, so untraced rounds check
    them against the overheads the recorded cycle counts imply."""
    keys = {v: f"cycles/{program}/{v}" for v in FIG10_VARIANTS}
    with run.units(keys.values()) as units:
        if run.tracer is None:
            with run.timed("timing"):
                row = run_fig11(workloads=(program,)).rows[0]
            cycles = {v: run.expect(key) for v, key in keys.items()}
            units[keys["raw"]].check(keys["raw"], row["raw_cycles"])
            for technique in TECHNIQUES:
                unit = units[keys[technique]]
                if cycles["raw"] is None or cycles[technique] is None:
                    unit.require(False, f"{keys[technique]}: no expected value")
                    continue
                want = runtime_overhead(cycles[technique], cycles["raw"])
                unit.require(row[technique] == want,
                             f"{technique} overhead {row[technique]!r}, "
                             f"expected {want!r} from the recorded cycles")
        else:
            cycles = {}
            with run.span("evaluation.run_fig11", program=program):
                build = traced_build(run, program, VARIANTS)
                for name, variant in build.variants.items():
                    cycles[name] = {
                        timed_run(run, variant.asm, program, name).cycles
                        for _ in range(3)}
            for variant, key in keys.items():
                units[key].require(len(cycles[variant]) == 1,
                                   f"non-deterministic cycles {cycles[variant]}")
                units[key].check(key, min(cycles[variant]))
        run.timed_instructions += sum(instructions[v] for v in FIG10_VARIANTS)


def campaign_probe_op(run: Run, program: str, build: BuildResult, seed: int,
                      samples: int) -> None:
    """One raw campaign unit: fault injection on a timing workload."""
    key = _campaign_key(seed, samples, program, "raw")
    with run.units([key]) as units:
        asm = build["raw"].asm
        with run.timed("campaign"):
            if run.tracer is None:
                result = run_campaign(asm, samples, seed=seed)
            else:
                result = traced_campaign(run, asm, program, "raw", samples,
                                         seed)
        run.faults += samples
        units[key].check(key, counts(result))


def paper_timing_round(run: Run, cfg: WorkloadConfig, inputs: Draw,
                       builds: dict[str, BuildResult],
                       instructions: dict) -> None:
    """``run_fig11`` on the lead program, between campaign probes: a raw
    campaign on every program under every plan seed, half before and half
    after. Per-fault cost is heavy-tailed (a hang runs to its budget), so
    the probe injects the same fault population in every run."""
    timed = inputs.programs[0]
    start = PLAN_SEEDS.index(inputs.plan_seed)
    seeds = PLAN_SEEDS[start:] + PLAN_SEEDS[:start]
    half = len(seeds) // 2
    for index, plan_seed in enumerate(seeds):
        if index == half:
            fig11_op(run, timed, instructions[timed])
        for program in inputs.programs:
            campaign_probe_op(run, program, builds[program], plan_seed,
                              cfg.samples)
    engine_probes(run, timed, builds)


# -- fastpath-service ----------------------------------------------------------


def _refresh_target(asm) -> str:
    """The function an incremental re-protection would touch: the first
    helper, so the rest of the program can be served from the cache (on a
    single-function program, ``main``: every section re-executes)."""
    names = asm.function_names()
    helpers = [name for name in names if name != "main"]
    return (helpers or names)[0]


def compose_op(run: Run, program: str, variant: str, asm, seed: int,
               samples: int) -> None:
    """One unit through ``compose_campaign`` with pruning, convergence and
    JSONL output: cold (writes the section cache), then warm with one
    function refreshed (reads it). Both must match the recorded records."""
    key = f"compose/s{seed}/n{samples}/{program}/{variant}"
    labels = [f"{key}/cold", f"{key}/warm"]
    with run.units(labels) as units:
        work = run.fresh_dir(f"compose-{program}-{variant}")
        cache = os.path.join(work, "cache")
        options = dict(seed=seed, prune=True, converge=True, cache_dir=cache)
        if run.tracer is not None:
            with run.span("unit.fixed", True, program=program,
                          variant=variant):
                golden = golden_run(run, asm, program, variant)
                with run.span("equivalence.record_golden_trace"):
                    record_golden_trace(asm)
                plans = plan_population(seed, samples, golden.fault_sites)
                with run.span("equivalence.analyze_plans"):
                    analyze_plans(asm, plans, telemetry=True)
                with run.span("converge.record_trail"):
                    record_trail(asm, golden)
                with run.span("compose.trace_sections"):
                    trace_sections(asm)
        for label, extra in ((labels[0], {}),
                             (labels[1], {"refresh": (_refresh_target(asm),)})):
            path = os.path.join(work, label.rsplit("/", 1)[1] + ".jsonl")
            with run.timed("campaign"), run.span(
                    "compose." + label.rsplit("/", 1)[1], program=program,
                    variant=variant, faults=samples) as attrs:
                result = compose_campaign(asm, samples, jsonl_path=path,
                                          **options, **extra)
            run.faults += samples
            attrs.update(
                samples=samples,
                executed=result.pruning_stats.executed_injections,
                runs=result.convergence_stats.runs,
                converged=result.convergence_stats.converged,
                saved=result.convergence_stats.instructions_saved,
                hits=result.compose_stats.cache_hits,
                misses=result.compose_stats.cache_misses,
                jsonl_bytes=os.path.getsize(path))
            units[label].check(key, {"counts": counts(result),
                                     "digest": jsonl_digest(path, asm)})
        if run.tracer is not None:
            with run.span("telemetry.no_jsonl", True, program=program,
                          variant=variant):
                compose_campaign(asm, samples, telemetry=True, seed=seed,
                                 prune=True, converge=True,
                                 cache_dir=os.path.join(work, "nojsonl"))
        shutil.rmtree(work, ignore_errors=True)


def service_op(run: Run, programs: tuple[str, ...], variants: tuple[str, ...],
               seed: int, samples: int) -> None:
    """The same units through ``CampaignService``: journaled shards, fsync
    on, forked workers. One operation per service unit."""
    programs = tuple(sorted(programs))
    key = f"service/s{seed}/n{samples}/{'+'.join(programs)}/{'+'.join(variants)}"
    unit_ids = [f"{p}-{v}" for p in programs for v in variants]
    with run.units([f"{key}/{u}" for u in unit_ids]) as units:
        state = run.fresh_dir("service")
        spec = CampaignSpec(workloads=programs, techniques=variants,
                            samples=samples, seed=seed, converge=True,
                            shard_size=max(1, samples // 2))
        config = ServiceConfig(workers=WORKERS, fsync=True)
        if run.tracer is not None:
            with run.span("service.compile_campaign", True):
                compile_campaign(spec)
        with run.timed("campaign"), run.span("service.run") as attrs:
            report = serve_campaign(state, spec, config)
        run.faults += samples * len(unit_ids)
        attrs["peak_record_buffer"] = report.peak_record_buffer
        summary = file_digest(report.summary_path)
        for unit_id in unit_ids:
            unit = units[f"{key}/{unit_id}"]
            unit.require(report.complete, "service reported incomplete")
            unit.check(f"{key}/{unit_id}",
                       file_digest(report.results[unit_id]))
            unit.check(f"{key}/summary", summary)
        shutil.rmtree(state, ignore_errors=True)


def fastpath_round(run: Run, cfg: WorkloadConfig, inputs: Draw,
                   builds: dict[str, BuildResult]) -> None:
    for program in inputs.programs:
        for variant in FASTPATH_VARIANTS:
            compose_op(run, program, variant, builds[program][variant].asm,
                       inputs.plan_seed, cfg.samples)
        timing_probe_op(run, inputs, builds)
    service_op(run, inputs.programs, FASTPATH_VARIANTS, inputs.plan_seed,
               cfg.samples)
    timing_probe_op(run, inputs, builds)
    engine_probes(run, inputs.programs[0], builds)


def run_round(run: Run, cfg: WorkloadConfig, inputs: Draw,
              builds: dict[str, BuildResult], instructions: dict) -> None:
    """One round of ``cfg``'s traffic (traced when ``run.tracer`` is set)."""
    if cfg.name == "paper-fi":
        paper_fi_round(run, cfg, inputs, builds)
    elif cfg.name == "paper-timing":
        paper_timing_round(run, cfg, inputs, builds, instructions)
    else:
        if run.tracer is not None:
            for program in inputs.programs:
                traced_build(run, program, cfg.variants, extra=True)
        fastpath_round(run, cfg, inputs, builds)


# -- sweep: layers the workload's own traffic does not reach -----------------------


def sweep(run: Run, plan_seed: int) -> None:
    """A small traced pass on ``SWEEP_PROGRAM`` over every layer call the
    workload phase did not make, so every per-layer metric has a value."""
    tracer = run.tracer
    seen = {(s["name"], s["attrs"].get("variant")) for s in tracer.spans}
    names = {name for name, _ in seen}
    tracer.phase = "sweep"
    program, samples = SWEEP_PROGRAM, SWEEP_SAMPLES
    build = build_variants(get_workload(program).source(1))
    if "evaluation.run_fig10" not in names:
        fig10_op(run, program, plan_seed, samples)
    if "evaluation.run_crosslayer_gap" not in names:
        gap_op(run, program, plan_seed, samples)
    if ("campaign.run_campaign", "dme") not in seen:
        key = _campaign_key(plan_seed, samples, program, "dme")
        with run.units([key]) as units:
            result = traced_campaign(run, build["dme"].asm, program, "dme",
                                     samples, plan_seed)
            units[key].check(key, counts(result))
    if "evaluation.run_fig11" not in names:
        key = f"cycles/{program}/raw"
        with run.units([key]) as units:
            with run.span("evaluation.run_fig11", program=program):
                result = timed_run(run, build["raw"].asm, program, "raw")
            units[key].check(key, result.cycles)
    if "compose.cold" not in names:
        compose_op(run, program, "raw", build["raw"].asm, plan_seed, samples)
    if "service.run" not in names:
        service_op(run, (program,), ("raw",), plan_seed, samples)
    if "machine.engine_run" not in names:
        engine_probe(run, build["raw"].asm, program, "raw")
    tracer.phase = "workload"
