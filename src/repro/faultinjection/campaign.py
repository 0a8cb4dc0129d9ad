"""Fault-injection campaigns: many sampled faults, aggregated outcomes.

A campaign reproduces the paper's measurement protocol (Sec. IV-A2): N
independent runs, one uniformly sampled single-bit fault each, outcomes
aggregated into an :class:`OutcomeCounts` histogram. Sampling is fully
deterministic from a seed; each run forks its own RNG stream, so campaigns
are reproducible and embarrassingly parallel in structure.

Every campaign — flat, compositional (:mod:`repro.faultinjection.compose`)
and the durable service (:mod:`repro.faultinjection.service`) — executes
its plans through one function, :func:`execute_plans`. Its input is a list
of *batches*, each a set of plans plus the cursor the batch starts from
(``None`` = program entry); flat campaigns pass one batch, compose passes
one per section from the section's entry snapshot. Two execution engines
serve the same plans:

* ``engine="checkpoint"`` (default) — a batch's plans are grouped into
  checkpoint regions by site, and the shared golden prefix is executed
  exactly once: a cursor snapshot advances region to region
  (:meth:`Machine.run_to_site`), and each injection restores the region's
  O(touched pages) snapshot and runs only its own suffix.
* ``engine="replay"`` — the classic protocol and the reference oracle:
  every region snapshot is ``None``, so each injection re-executes the
  program from instruction 0.

Outcomes are bit-identical across engines (plans are RNG-independent and
snapshots capture complete architectural state); only the execution
strategy changes. See ``docs/fault_model.md``.

``telemetry=True`` (or a ``jsonl_path``) additionally collects one
:class:`FaultRecord` per fault — attribution, register/bit, detection
latency — plus :class:`CheckpointStats` under the checkpoint engine.
Telemetry is purely observational: outcome counts are bit-identical with
it on or off, and the default-off path adds no per-run work. JSONL files
are always written in run-index order, whatever the engine, process
count, pruning or composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.asm.program import AsmProgram
from repro.errors import InjectionError
from repro.faultinjection.equivalence import (
    PruningAnalysis,
    PruningStats,
    analyze_plans,
)
from repro.faultinjection.injector import (
    IndexedPlan,
    inject_asm_fault,
    inject_ir_fault,
    sample_plans,
)
from repro.faultinjection.outcome import Outcome, OutcomeCounts
from repro.faultinjection.telemetry import (
    CheckpointStats,
    ConvergenceStats,
    FaultRecord,
    JsonlSink,
)
from repro.ir.interp import IRInterpreter
from repro.ir.module import IRModule
from repro.machine.converge import ConvergenceTrail, record_trail
from repro.machine.cpu import Machine

if TYPE_CHECKING:  # circular at runtime: compose builds on this module
    from repro.faultinjection.compose import ComposeStats

#: Execution strategies accepted by :func:`execute_plans`.
ENGINES = ("checkpoint", "replay")


@dataclass
class CampaignResult:
    """Aggregated result of one injection campaign.

    ``records`` (telemetry campaigns only) holds one :class:`FaultRecord`
    per sample, sorted by run index; ``checkpoint_stats`` reports the
    checkpoint engine's snapshot/restore economics. Both are ``None`` when
    telemetry is off — the default — and their presence never changes
    ``outcomes``. ``compose_stats`` is filled only by
    :func:`repro.faultinjection.compose.compose_campaign` and reports the
    section partition and cache hit/miss economics; ``convergence_stats``
    is filled by ``converge=True`` campaigns and reports the convergence
    early-exit economics (converged fraction, instructions saved).
    """

    samples: int
    outcomes: OutcomeCounts = field(default_factory=OutcomeCounts)
    fault_sites: int = 0
    dynamic_instructions: int = 0
    records: list[FaultRecord] | None = None
    checkpoint_stats: CheckpointStats | None = None
    pruning_stats: PruningStats | None = None
    compose_stats: "ComposeStats | None" = None
    convergence_stats: ConvergenceStats | None = None

    @property
    def sdc_probability(self) -> float:
        return self.outcomes.sdc_probability

    def summary(self) -> str:
        parts = [
            f"{outcome.value}={self.outcomes[outcome]}" for outcome in Outcome
        ]
        return (
            f"{self.samples} faults over {self.fault_sites} sites: "
            + ", ".join(parts)
        )


def _expand_pruned(
    analysis: PruningAnalysis, executed, telemetry: bool
) -> list:
    """Results the pruning pass avoided executing.

    Synthesized verdicts are returned as-is; duplicate plans are served by
    cloning their representative's result (the machine is deterministic, so
    an identical (site, register, bit) flip yields an identical outcome),
    re-stamped with the duplicate's run index when telemetry is on.
    """
    extra = list(analysis.synthesized)
    if analysis.duplicates:
        by_run = dict(executed)
        for rep, dup_indices in analysis.duplicates.items():
            rep_result = by_run[rep]
            for dup in dup_indices:
                extra.append(
                    (dup, replace(rep_result, run_index=dup))
                    if telemetry else (dup, rep_result)
                )
    return extra


def _open_sink(jsonl_path, mode: str) -> JsonlSink | None:
    """Open the campaign's JSONL sink, validating the requested mode.

    ``mode="w"`` truncates (the default); ``mode="a"`` appends, which is
    what multi-invocation workflows — compositional campaigns above all —
    need to accumulate one stream across runs.
    """
    if jsonl_path is None:
        return None
    if mode not in ("w", "a"):
        raise InjectionError(
            f"jsonl_mode must be 'w' (truncate) or 'a' (append), got {mode!r}"
        )
    return JsonlSink(jsonl_path, mode=mode)


class _RunOrderedWriter:
    """Streams records to a sink in run-index order as they become available.

    Campaigns complete their runs out of run-index order (the checkpoint
    engine executes in site order, compose section by section, workers
    region by region; under pruning, synthesized verdicts exist before
    execution starts and duplicates complete when their representative
    does). This reorder buffer flushes each record the moment every lower
    run index has been written, so every campaign's file has the same
    run-index byte order. ``analysis`` (pruned campaigns only) supplies the
    synthesized and duplicate runs. The buffer is *bounded*: synthesized
    verdicts are consulted lazily from the analysis at their flush point
    (never copied in), duplicate clones are materialized only at the
    instant they are written, and a representative's record is retained
    only until its last clone flushes. The buffer therefore holds at most
    the out-of-order executed records plus the representatives with
    pending clones, never the whole campaign; ``peak_buffer`` reports the
    high-water mark so tests can pin the bound.
    """

    def __init__(
        self, sink: JsonlSink, analysis: PruningAnalysis | None = None
    ) -> None:
        if analysis is None:
            analysis = PruningAnalysis()
        self._sink = sink
        self._duplicates = analysis.duplicates
        self._dup_of = {
            dup: rep
            for rep, dups in analysis.duplicates.items()
            for dup in dups
        }
        self._last_dup = {
            rep: max(dups) for rep, dups in analysis.duplicates.items() if dups
        }
        # References into the analysis, not copies: synthesized records
        # already exist for the campaign result, so looking them up lazily
        # adds no resident memory.
        self._synth = dict(analysis.synthesized)
        self._pending: dict[int, FaultRecord] = {}
        self._rep_records: dict[int, FaultRecord] = {}
        self._next = 0
        self.peak_buffer = 0
        self._drain()  # a synthesized prefix may already start at run 0

    def _note_peak(self) -> None:
        resident = len(self._pending) + len(self._rep_records)
        if resident > self.peak_buffer:
            self.peak_buffer = resident

    def _drain(self) -> None:
        while True:
            run = self._next
            record = self._pending.pop(run, None)
            if record is None:
                record = self._synth.pop(run, None)
            if record is None:
                rep = self._dup_of.get(run)
                if rep is None or rep not in self._rep_records:
                    return  # gap: a lower run index is still executing
                record = replace(self._rep_records[rep], run_index=run)
                if run == self._last_dup[rep]:
                    del self._rep_records[rep]
            self._sink.write(record)
            self._next += 1

    def write(self, record: FaultRecord) -> None:
        """Engine-facing hook: accept one executed record."""
        run = record.run_index
        if run in self._duplicates:
            self._rep_records[run] = record
        if run != self._next:
            self._pending[run] = record
            self._note_peak()
            return
        self._sink.write(record)
        self._next += 1
        self._note_peak()
        self._drain()


def _checkpoint_schedule(
    plans: list[IndexedPlan], interval: int | None, entry_site: int = 0
) -> list[tuple[int, list[IndexedPlan]]]:
    """Group indexed plans by the checkpoint that serves them, by site.

    ``interval=None`` checkpoints at every distinct fault site (zero
    fast-forward per injection); ``interval=K`` snapshots only at multiples
    of K sites, trading up to K-1 sites of fast-forward per injection for
    fewer, coarser snapshots — the knob that matters when region snapshots
    must be materialized simultaneously (the multiprocessing path).
    ``entry_site`` is the site of the cursor the plans start from: a
    multiple of K below it is clamped up to it, since a cursor cannot run
    backwards from a section entry.
    """
    if interval is not None and interval < 1:
        raise InjectionError(f"checkpoint interval must be >= 1, got {interval}")
    regions: dict[int, list[IndexedPlan]] = {}
    for indexed in plans:
        site = indexed[1].site_index
        checkpoint = (site if interval is None
                      else max(entry_site, site - site % interval))
        regions.setdefault(checkpoint, []).append(indexed)
    return sorted(regions.items())


def _finish(result: CampaignResult, results, telemetry: bool) -> CampaignResult:
    """Fold per-run results into the campaign aggregate.

    ``results`` is an iterable of (run_index, Outcome | FaultRecord); with
    telemetry the records are kept sorted by run index.
    """
    if telemetry:
        result.records = [record for _, record in sorted(
            results, key=lambda pair: pair[0])]
        outcomes = [record.outcome for record in result.records]
    else:
        outcomes = [outcome for _, outcome in results]
    for outcome in outcomes:
        result.outcomes.record(outcome)
    return result


#: State inherited by forked campaign workers (see :func:`execute_plans`).
_PARALLEL_STATE: dict = {}


def _inject_region(region_index: int):
    """The pool worker: serve one ``(snapshot, plans)`` region.

    Returns the region's (run_index, result) pairs and the worker-local
    :class:`ConvergenceStats` (``None`` without a trail), which the parent
    merges — every field is an order-independent sum.
    """
    state = _PARALLEL_STATE
    snapshot, plans = state["regions"][region_index]
    conv_stats = ConvergenceStats() if state["converge"] else None
    return state["serve"](snapshot, plans, conv_stats), conv_stats


def _fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported.

    Campaign workers rely on inheriting the parent's program, golden run
    and snapshots by address-space copy; ``spawn``/``forkserver`` would need
    everything re-pickled and re-validated per worker. Callers fall back to
    sequential execution (identical results, no crash) when ``fork`` is
    unavailable (e.g. some non-POSIX platforms).
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _pooled(context, processes: int, worker, tasks, chunksize: int) -> list:
    """Map over a pool, always clearing the inherited-state global.

    Results are collected incrementally (``imap`` preserves task order, so
    the returned list is identical to ``pool.map``'s). A worker exception
    no longer silently discards every completed task's results: it is
    re-raised as an :class:`InjectionError` naming how many tasks had
    completed, with the partial results attached as
    ``error.partial_results`` so callers can salvage them. The
    inherited-state global is cleared on every exit path — success, worker
    failure, or pool construction failure.
    """
    tasks = list(tasks)
    results: list = []
    try:
        with context.Pool(processes) as pool:
            try:
                for item in pool.imap(worker, tasks, chunksize=chunksize):
                    results.append(item)
            except Exception as exc:
                error = InjectionError(
                    f"campaign worker failed after {len(results)}/{len(tasks)}"
                    f" tasks completed: {type(exc).__name__}: {exc}"
                )
                error.partial_results = results
                raise error from exc
        return results
    finally:
        _PARALLEL_STATE.clear()


def execute_plans(
    target: AsmProgram | IRModule,
    golden,
    batches: list[tuple[object | None, list[IndexedPlan]]],
    function: str = "main",
    args: tuple[int, ...] = (),
    engine: str = "checkpoint",
    checkpoint_interval: int | None = None,
    processes: int = 1,
    telemetry: bool = False,
    trail: ConvergenceTrail | None = None,
    sink=None,
    runner: Machine | IRInterpreter | None = None,
) -> tuple[list[list], CheckpointStats | None, ConvergenceStats | None]:
    """Inject every plan of every batch; the one campaign execution core.

    Each batch is ``(entry_cursor, plans)``: ``entry_cursor`` is a
    snapshot (taken with a runner of ``target``) the batch's plans start
    from, or ``None`` for program entry. Under ``engine="checkpoint"`` a
    batch's plans are grouped by :func:`_checkpoint_schedule` and a cursor
    marches region to region from the entry; under ``engine="replay"``
    every plan is its own region with snapshot ``None`` (a full run from
    instruction 0). ``target`` picks the level: an :class:`IRModule` runs
    on an :class:`IRInterpreter` through :func:`inject_ir_fault`, an
    :class:`AsmProgram` on a :class:`Machine` through
    :func:`inject_asm_fault` (``runner`` reuses an existing one).

    Sequential execution marches lazily, holding one cursor at a time;
    ``processes > 1`` materializes every region snapshot, then forks
    workers that each serve one region off its snapshot (sequential where
    ``fork`` is unavailable). ``sink`` receives every executed result as it
    becomes available (telemetry campaigns only), in completion order.

    Returns each batch's (run_index, Outcome | FaultRecord) pairs, the
    :class:`CheckpointStats` (telemetry checkpoint campaigns, else
    ``None``) and the :class:`ConvergenceStats` (``trail`` given, else
    ``None``).
    """
    if engine not in ENGINES:
        raise InjectionError(f"unknown engine {engine!r}; known: {ENGINES}")
    if isinstance(target, IRModule):
        runner = runner or IRInterpreter(target)

        def serve(snapshot, plans, conv_stats):
            return [(run_index, inject_ir_fault(
                target, plan, golden, function=function, args=args,
                interp=runner, resume_from=snapshot, telemetry=telemetry,
                run_index=run_index,
            )) for run_index, plan in plans]
    else:
        runner = runner or Machine(target)

        def serve(snapshot, plans, conv_stats):
            return [(run_index, inject_asm_fault(
                target, plan, golden, function=function, args=args,
                machine=runner, resume_from=snapshot, telemetry=telemetry,
                run_index=run_index, converge=trail,
                converge_stats=conv_stats,
            )) for run_index, plan in plans]

    stats = CheckpointStats() if telemetry and engine == "checkpoint" else None
    conv_stats = ConvergenceStats() if trail is not None else None

    def march():
        """Yield (batch, snapshot, plans) regions, one live cursor at a time."""
        for batch, (cursor, plans) in enumerate(batches):
            if engine == "replay":
                for indexed in plans:
                    yield batch, None, [indexed]
                continue
            entry_site = cursor.sites if cursor is not None else 0
            for site, region_plans in _checkpoint_schedule(
                plans, checkpoint_interval, entry_site
            ):
                cursor = runner.run_to_site(site, function=function,
                                            args=args, resume_from=cursor)
                if stats is not None:
                    stats.note_snapshot(cursor)
                    stats.restores += len(region_plans)
                    stats.fast_forward_sites += sum(
                        plan.site_index - site for _, plan in region_plans
                    )
                yield batch, cursor, region_plans

    results: list[list] = [[] for _ in batches]
    context = (_fork_context()
               if processes > 1 and any(plans for _, plans in batches)
               else None)
    if context is not None:
        owners, regions = [], []
        for batch, snapshot, region_plans in march():
            owners.append(batch)
            regions.append((snapshot, region_plans))
        _PARALLEL_STATE.update(regions=regions, serve=serve,
                               converge=trail is not None)
        served = zip(owners, _pooled(context, processes, _inject_region,
                                     range(len(regions)), chunksize=1))
    else:
        served = (
            (batch, (serve(snapshot, region_plans, conv_stats), None))
            for batch, snapshot, region_plans in march()
        )
    for batch, (pairs, worker_conv) in served:
        if worker_conv is not None:
            conv_stats.merge(worker_conv)
        if sink is not None:
            for _, record in pairs:
                sink.write(record)
        results[batch].extend(pairs)
    return results, stats, conv_stats


def _run_batches(
    result: CampaignResult,
    target: AsmProgram | IRModule,
    golden,
    batches: list,
    telemetry: bool,
    jsonl_path,
    jsonl_mode: str,
    analysis: PruningAnalysis | None = None,
    served=(),
    **options,
) -> list[list]:
    """Execute ``batches`` and fold everything into ``result``.

    ``served`` holds results known without execution (compose cache hits)
    and ``analysis`` the pruned runs; both join the executed results in
    the aggregate, and every record streams to ``jsonl_path`` through one
    run-index reorder buffer. Returns the executed results per batch.
    """
    sink = _open_sink(jsonl_path, jsonl_mode)
    try:
        writer = _RunOrderedWriter(sink, analysis) if sink is not None else None
        if writer is not None:
            for _, record in served:
                writer.write(record)
        per_batch, result.checkpoint_stats, result.convergence_stats = (
            execute_plans(target, golden, batches, telemetry=telemetry,
                          sink=writer, **options)
        )
        executed = list(served) + [pair for pairs in per_batch
                                   for pair in pairs]
        if analysis is not None:
            executed += _expand_pruned(analysis, executed, telemetry)
        _finish(result, executed, telemetry)
        return per_batch
    finally:
        if sink is not None:
            sink.close()


def run_campaign(
    program: AsmProgram,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
    processes: int = 1,
    engine: str = "checkpoint",
    checkpoint_interval: int | None = None,
    telemetry: bool = False,
    jsonl_path=None,
    jsonl_mode: str = "w",
    prune: bool = False,
    converge: bool = False,
    converge_interval: int | None = None,
) -> CampaignResult:
    """Inject ``samples`` single-bit faults at assembly level.

    One golden (fault-free) execution establishes the reference output and
    the dynamic fault-site population; each sample then flips one bit at a
    uniformly chosen site/register/bit and classifies the outcome.

    ``engine`` selects the execution strategy (see the module docstring);
    both produce bit-identical :class:`OutcomeCounts` for the same seed.
    ``checkpoint_interval`` (checkpoint engine only) snapshots every K
    sites instead of at every served site. ``processes > 1`` fans the
    (independent) runs out over forked worker processes — sharded by
    checkpoint region under the checkpoint engine, so each worker restores
    from its region snapshot rather than replaying the prefix; results are
    identical to the sequential order because every run derives its own RNG
    stream from the seed. Where ``fork`` is unavailable the campaign runs
    sequentially instead of crashing.

    ``telemetry=True`` collects one :class:`FaultRecord` per fault into
    ``result.records`` (and fills ``result.checkpoint_stats`` under the
    checkpoint engine); ``jsonl_path`` implies telemetry and streams the
    records to disk as JSONL in run-index order — incrementally in
    sequential campaigns, after collection in multiprocessing ones.
    ``jsonl_mode="a"`` appends to an existing file instead of truncating,
    so multi-invocation workflows can accumulate one stream. Outcome
    counts are bit-identical with telemetry on or off.

    ``prune=True`` runs the outcome-equivalence pass
    (:mod:`repro.faultinjection.equivalence`) first: plans whose outcome is
    provable from the golden trace are synthesized without execution, and
    plans identical in (site, register, bit) to an already-executed one are
    served by cloning its result. Outcomes and telemetry records stay
    bit-identical to the unpruned campaign; ``result.pruning_stats``
    reports how much work was avoided.

    ``converge=True`` layers *dynamic* pruning on top: one extra fault-free
    pass records a golden digest trail (:mod:`repro.machine.converge`), and
    every injected run stops the moment its divergence cone — registers
    plus pages written since the flip — matches the trail at a boundary,
    finishing with the golden outcome. Counts, records, per-origin maps
    and JSONL bytes stay bit-identical to ``converge=False``;
    ``result.convergence_stats`` reports the converged fraction and
    instructions saved. ``converge_interval`` overrides the boundary
    spacing in fault sites (default: :func:`repro.machine.converge.
    trail_interval`). Composes with ``prune`` (static pruning removes
    runs, convergence shortens the surviving ones) and with both engines
    and any process count — the trail is recorded once pre-fork and
    inherited by workers.
    """
    telemetry = telemetry or jsonl_path is not None
    golden = Machine(program).run(function=function, args=args)
    result = CampaignResult(
        samples=samples,
        fault_sites=golden.fault_sites,
        dynamic_instructions=golden.dynamic_instructions,
    )
    plans = sample_plans(seed, samples, golden.fault_sites)
    analysis = None
    if prune:
        analysis = analyze_plans(program, plans, function=function, args=args,
                                 telemetry=telemetry)
        plans = analysis.to_execute
        result.pruning_stats = analysis.stats
    trail = (record_trail(program, golden, function=function, args=args,
                          interval=converge_interval)
             if converge else None)
    _run_batches(result, program, golden, [(None, plans)], telemetry,
                 jsonl_path, jsonl_mode, analysis=analysis,
                 function=function, args=args, engine=engine,
                 checkpoint_interval=checkpoint_interval,
                 processes=processes, trail=trail)
    return result


def run_ir_campaign(
    module: IRModule,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
    processes: int = 1,
    engine: str = "checkpoint",
    checkpoint_interval: int | None = None,
    telemetry: bool = False,
    jsonl_path=None,
    jsonl_mode: str = "w",
    prune: bool = False,
    converge: bool = False,
) -> CampaignResult:
    """Inject ``samples`` faults at IR level (LLFI-style).

    Supports the same ``engine``/``checkpoint_interval``/``processes``/
    ``telemetry``/``jsonl_path``/``jsonl_mode`` controls as
    :func:`run_campaign`, with identical guarantees: both engines and any
    process count yield bit-identical outcome counts for a given seed,
    telemetry on or off.

    ``prune`` and ``converge`` are accepted for signature parity but only
    ``False`` is supported: outcome-equivalence pruning is assembly-level
    analysis (see ``docs/fault_model.md``), and convergence early-exit
    compares machine-level state (register files, memory pages) that the
    IR interpreter does not expose — both raise :class:`InjectionError`
    instead of a bare ``TypeError``.
    """
    if converge:
        raise InjectionError(
            "convergence early-exit is assembly-level only: the digest "
            "trail hashes machine state (register files, RFLAGS, memory "
            "pages) that IR values do not expose. Compile the module and "
            "run run_campaign(converge=True) on the assembly program "
            "instead."
        )
    if prune:
        raise InjectionError(
            "outcome-equivalence pruning is assembly-level only: the "
            "equivalence scanner classifies flips by propagating XOR deltas "
            "through the recorded machine trace (register, flag and memory "
            "bytes), state IR values do not expose. Compile the module and "
            "run run_campaign(prune=True) on the assembly program instead."
        )
    telemetry = telemetry or jsonl_path is not None
    golden = IRInterpreter(module).run(function=function, args=args)
    result = CampaignResult(
        samples=samples,
        fault_sites=golden.fault_sites,
        dynamic_instructions=golden.dynamic_instructions,
    )
    plans = sample_plans(seed, samples, golden.fault_sites)
    _run_batches(result, module, golden, [(None, plans)], telemetry,
                 jsonl_path, jsonl_mode, function=function, args=args,
                 engine=engine, checkpoint_interval=checkpoint_interval,
                 processes=processes)
    return result
