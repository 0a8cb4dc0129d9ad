"""Evaluation-harness tests (small campaigns on a subset of workloads)."""

import pytest

from repro.evaluation import experiments
from repro.evaluation.experiments import (
    TECHNIQUES,
    run_crosslayer_gap,
    run_fig10,
    run_fig11,
    run_transform_time,
    table1,
    table2,
)
from repro.evaluation.metrics import runtime_overhead
from repro.machine.cpu import Machine

from tests.machine.test_timing_pinned import PINNED


class TestTables:
    def test_table1_rows(self):
        data = table1()
        assert set(data) == {"IR-LEVEL-EDDI", "HYBRID-ASSEMBLY-LEVEL-EDDI",
                             "FERRUM"}
        assert data["FERRUM"]["branch"] == "AS2"
        assert data["HYBRID-ASSEMBLY-LEVEL-EDDI"]["branch"] == "IR"
        assert data["IR-LEVEL-EDDI"]["basic"] == "IR"
        assert data["IR-LEVEL-EDDI"]["store"] == "-"

    def test_table2_matches_registry(self):
        rows = table2()
        assert len(rows) == 8
        assert rows[0]["Benchmark"] == "backprop"
        assert all(r["Suite"] == "Rodinia" for r in rows)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11(workloads=("bfs",))

    def test_row_structure(self, result):
        (row,) = result.rows
        assert row["benchmark"] == "bfs"
        assert row["raw_cycles"] > 0

    def test_overhead_ordering(self, result):
        """The paper's headline: FERRUM < IR-EDDI < HYBRID."""
        (row,) = result.rows
        assert row["ferrum"] < row["ir-eddi"] < row["hybrid"]

    def test_all_overheads_positive(self, result):
        (row,) = result.rows
        assert all(row[t] > 0 for t in TECHNIQUES)

    def test_average_overhead(self, result):
        for technique in TECHNIQUES:
            assert result.average_overhead(technique) == \
                pytest.approx(result.rows[0][technique])

    def test_row_matches_pinned_cycles(self, result):
        """The row is the pinned cycle counts' overheads, exactly."""
        (row,) = result.rows
        raw = PINNED[("bfs", "raw")][0]
        assert row["raw_cycles"] == raw
        for technique in TECHNIQUES:
            assert row[technique] == runtime_overhead(
                PINNED[("bfs", technique)][0], raw)

    def test_times_each_reported_variant_once(self, monkeypatch):
        timed = []

        class CountingMachine(Machine):
            def run(self, *args, **kwargs):
                if kwargs.get("timing") is not None:
                    timed.append(self.program)
                return super().run(*args, **kwargs)

        monkeypatch.setattr(experiments, "Machine", CountingMachine)
        experiments.run_fig11(workloads=("bfs",))
        assert len(timed) == 1 + len(TECHNIQUES)
        assert len({id(program) for program in timed}) == len(timed)
        assert not any(getattr(p, "detector", None) for p in timed)


class TestTransformTime:
    def test_rows_and_average(self):
        result = run_transform_time(repeats=1, workloads=("bfs", "knn"))
        assert len(result.rows) == 2
        assert all(r["seconds"] > 0 for r in result.rows)
        assert all(r["output_instructions"] > r["static_instructions"]
                   for r in result.rows)
        assert result.average_seconds > 0


class TestFig10Small:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10(samples=30, seed=11, workloads=("knn",))

    def test_protected_campaigns_present(self, result):
        (row,) = result.rows
        assert set(row.campaigns) == set(TECHNIQUES)

    def test_full_coverage_for_assembly_techniques(self, result):
        (row,) = result.rows
        assert row.coverage("ferrum") == 1.0
        assert row.coverage("hybrid") == 1.0

    def test_raw_shows_sdcs(self, result):
        (row,) = result.rows
        assert row.raw.sdc_probability > 0


class TestComposeSmall:
    def test_compose_matches_flat_and_caches(self, tmp_path):
        from repro.evaluation.experiments import run_compose, run_telemetry

        def portable(result):
            # Each run_* builds its own program object, so process-local
            # instruction uids differ; everything observable must not.
            records = []
            for record in result.records:
                data = record.to_json()
                data.pop("instruction_uid", None)
                records.append(data)
            return records

        flat = run_telemetry(workload="knn", samples=25, seed=8)
        cold = run_compose(workload="knn", samples=25, seed=8,
                           cache_dir=tmp_path / "cache")
        assert cold.outcomes.counts == flat.outcomes.counts
        assert portable(cold) == portable(flat)
        assert cold.compose_stats.cache_hits == 0
        warm = run_compose(workload="knn", samples=25, seed=8,
                           cache_dir=tmp_path / "cache")
        assert portable(warm) == portable(flat)
        assert warm.compose_stats.executed_injections == 0
        assert warm.compose_stats.hit_rate == 1.0


class TestGapSmall:
    def test_gap_row_structure(self):
        result = run_crosslayer_gap(samples=25, seed=8, workloads=("knn",))
        (row,) = result.rows
        assert 0.0 <= float(row["measured"]) <= 1.0
        assert float(row["gap"]) == pytest.approx(
            float(row["anticipated"]) - float(row["measured"])
        )
