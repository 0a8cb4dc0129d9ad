"""Outcome-equivalence pruning: bit-identical campaigns at a fraction of cost.

Pruning (``run_campaign(prune=True)``) classifies statically-masked fault
sites from the golden trace and collapses outcome-equivalent dynamic sites
into classes injected once. It is pure execution strategy: for any fixed
seed, the pruned campaign must report exactly the same aggregate outcome
counts, telemetry records, per-origin maps and JSONL content as the
unpruned one — only ``pruning_stats`` (and wall-clock) may differ.
"""

import json

import pytest

from repro.faultinjection.campaign import run_campaign
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import (
    assert_campaigns_identical,
    assert_counts_identical,
    assert_jsonl_identical,
    assert_origin_maps_identical,
)

WORKLOADS = ("bfs", "knn")
VARIANTS = ("raw", "ferrum")
SAMPLES = 25
SEED = 21


@pytest.fixture(scope="module")
def built():
    out = {}
    for name in WORKLOADS:
        build = build_variants(get_workload(name).source_fn(),
                               names=VARIANTS)
        out[name] = {variant: build[variant].asm for variant in VARIANTS}
    return out


class TestPrunedBitIdentity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_outcome_counts_identical(self, built, name, variant):
        program = built[name][variant]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              prune=True)
        assert_counts_identical(pruned, plain, context=f"{name}/{variant}")

    @pytest.mark.parametrize("engine", ("checkpoint", "replay"))
    def test_engines_agree_under_pruning(self, built, engine):
        program = built["bfs"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED,
                             engine=engine)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              engine=engine, prune=True)
        assert_counts_identical(pruned, plain, context=engine)

    def test_telemetry_records_identical(self, built):
        """Synthesized and cloned records must be indistinguishable from
        executed ones — field for field, in run-index order."""
        program = built["knn"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED,
                             telemetry=True)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              telemetry=True, prune=True)
        assert_campaigns_identical(pruned, plain)

    def test_per_origin_telemetry_identical(self, built):
        program = built["bfs"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED,
                             telemetry=True)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              telemetry=True, prune=True)
        assert_origin_maps_identical(pruned.records, plain.records)

    def test_jsonl_content_identical(self, built, tmp_path):
        """The pruned campaign's JSONL sink must be byte-identical to the
        unpruned one: every campaign writes in run-index order."""
        program = built["bfs"]["ferrum"]
        plain_path = tmp_path / "plain.jsonl"
        pruned_path = tmp_path / "pruned.jsonl"
        run_campaign(program, samples=SAMPLES, seed=SEED, telemetry=True,
                     jsonl_path=plain_path)
        run_campaign(program, samples=SAMPLES, seed=SEED, telemetry=True,
                     jsonl_path=pruned_path, prune=True)
        assert_jsonl_identical(pruned_path, plain_path)
        # and the pruned file is complete: one record per sample
        pruned_lines = pruned_path.read_text().splitlines()
        assert len(pruned_lines) == SAMPLES
        assert all(json.loads(line)["level"] == "asm"
                   for line in pruned_lines)

    def test_parallel_pruned_matches_sequential(self, built):
        program = built["knn"]["ferrum"]
        sequential = run_campaign(program, samples=SAMPLES, seed=SEED,
                                  prune=True)
        parallel = run_campaign(program, samples=SAMPLES, seed=SEED,
                                prune=True, processes=2)
        assert_counts_identical(parallel, sequential)


class TestPruningStats:
    def test_stats_populated_only_when_pruning(self, built):
        program = built["bfs"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              prune=True)
        assert plain.pruning_stats is None
        stats = pruned.pruning_stats
        assert stats is not None
        assert stats.samples == SAMPLES

    def test_accounting_adds_up(self, built):
        program = built["bfs"]["ferrum"]
        stats = run_campaign(program, samples=SAMPLES, seed=SEED,
                             prune=True).pruning_stats
        synthesized = (stats.statically_masked + stats.detected
                       + stats.benign + stats.sdc)
        assert synthesized == stats.classified
        assert (stats.executed_injections + stats.classified
                + stats.duplicates_collapsed == stats.samples)
        assert 0.0 <= stats.executed_fraction <= 1.0

    def test_protected_variant_prunes_most_injections(self, built):
        """FERRUM-protected code is dominated by statically-classifiable
        sites; the scanner must prove a substantial majority without
        executing them (the benchmark gate asserts <= 60%)."""
        stats = run_campaign(built["bfs"]["ferrum"], samples=SAMPLES,
                             seed=SEED, prune=True).pruning_stats
        assert stats.executed_fraction <= 0.6
        assert stats.classified > 0


class TestPrunedStreaming:
    """Pruned campaigns must stream JSONL incrementally (the PR 2 contract),
    not buffer every record until the end — while keeping the file
    byte-identical to the buffered run-index order."""

    def test_pruned_file_is_run_index_ordered_and_complete(self, built,
                                                           tmp_path):
        program = built["knn"]["ferrum"]
        path = tmp_path / "pruned.jsonl"
        result = run_campaign(program, samples=SAMPLES, seed=SEED,
                              jsonl_path=path, prune=True)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["run_index"] for line in lines] \
            == list(range(SAMPLES))
        assert lines == [json.dumps(record.to_json(), sort_keys=True)
                         for record in result.records]

    def test_records_stream_as_they_complete(self):
        """Unit contract of the reorder buffer: records flush the moment
        the run-index prefix is contiguous, duplicates expand with their
        representative, synthesized records are available up front."""
        from repro.faultinjection.campaign import _RunOrderedWriter
        from repro.faultinjection.equivalence import PruningAnalysis
        from repro.faultinjection.outcome import Outcome
        from repro.faultinjection.telemetry import FaultRecord

        def record(run_index):
            return FaultRecord(
                run_index=run_index, level="asm", site_index=run_index,
                instruction="nop", mnemonic="nop", origin="app",
                register="rax", bit=0, outcome=Outcome.BENIGN,
                detection_latency=None,
            )

        class Spy:
            def __init__(self):
                self.seen = []

            def write(self, rec):
                self.seen.append(rec.run_index)

        # synthesized: runs 1 and 5; duplicates: run 4 clones run 0.
        analysis = PruningAnalysis(
            synthesized=[(1, record(1)), (5, record(5))],
            duplicates={0: [4]},
        )
        sink = Spy()
        writer = _RunOrderedWriter(sink, analysis)
        assert sink.seen == []          # nothing contiguous from 0 yet
        writer.write(record(2))
        assert sink.seen == []          # still waiting on run 0
        writer.write(record(0))         # releases 0,1,2 (clone 4 pends on 3)
        assert sink.seen == [0, 1, 2]
        writer.write(record(3))         # releases 3, then pending 4 and 5
        assert sink.seen == [0, 1, 2, 3, 4, 5]
