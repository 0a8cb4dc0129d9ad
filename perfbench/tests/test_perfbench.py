"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import layers
import ledger
import pytest
import run as bench
import traffic

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- the seed fixes the inputs -------------------------------------------------


def _draws_in_fresh_process(hash_seed: str) -> list:
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; import traffic; "
        "print(json.dumps([[list(d.programs), d.plan_seed] for d in "
        "(traffic.draw(w, s) for w in sorted(traffic.WORKLOADS) "
        "for s in range(12))]))")
    out = subprocess.run(
        [sys.executable, "-c", code, BENCH, os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    return json.loads(out.stdout)


def test_seed_gives_the_same_draw_every_time():
    here = [[list(d.programs), d.plan_seed]
            for d in (traffic.draw(w, s) for w in sorted(traffic.WORKLOADS)
                      for s in range(12))]
    assert here == _draws_in_fresh_process("1") == _draws_in_fresh_process("2")
    plan_seeds = {traffic.draw("paper-fi", s).plan_seed for s in range(40)}
    assert plan_seeds <= set(traffic.PLAN_SEEDS) and len(plan_seeds) > 1


def test_seed_gives_the_same_plan_population_every_time():
    from repro.faultinjection.campaign import run_campaign
    from repro.pipeline import build_variants
    from repro.workloads import get_workload

    asm = build_variants(get_workload("bfs").source(1), names=("raw",))["raw"].asm
    seed = traffic.draw("paper-fi", 5).plan_seed
    first = traffic.plan_population(seed, 6, 1000)
    assert first == traffic.plan_population(seed, 6, 1000)
    # ... and it is the population the campaign entry points draw.
    result = run_campaign(asm, 6, seed=seed, telemetry=True)
    sites = result.fault_sites
    assert [r.site_index for r in result.records] == [
        plan.site_index for _, plan in traffic.plan_population(seed, 6, sites)]


# -- metric names ------------------------------------------------------------------


def test_per_layer_table_is_benchmark_json_and_readme():
    assert _benchmark_json()["per_layer"] == layers.declared()
    with open(os.path.join(BENCH, "README.md"), encoding="utf-8") as handle:
        assert layers.markdown() in handle.read()


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload so a whole invocation takes seconds."""
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    monkeypatch.setattr(traffic, "SWEEP_SAMPLES", 3)
    for name, cfg in list(traffic.WORKLOADS.items()):
        monkeypatch.setitem(traffic.WORKLOADS, name, traffic.WorkloadConfig(
            cfg.name, cfg.pool[:1], cfg.variants, 3))


def test_printed_end_to_end_names_are_declared(small):
    result = bench.measure("fastpath-service", 1, 0, False, {}, log=lambda _: 0)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_printed_per_layer_names_are_declared(small):
    result = bench.measure("paper-fi", 1, 0, True, {}, log=lambda _: 0)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # no expected values were given, so every checked operation failed
    assert result["failed"] > 0 and result["correct"] is False


# -- self time ------------------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0, 10.0, 12.0])
    tracer = ledger.Tracer("t", clock=lambda: next(ticks))
    with tracer.span("evaluation.run_fig10"):            # 0 .. 10
        with tracer.span("minic.compile_to_ir"):         # 1 .. 3
            pass
        with tracer.span("campaign.run_campaign"):       # 4 .. 7
            with tracer.span("machine.golden", True):    # 5 .. 6
                pass
    with tracer.span("ir.run"):                          # 10 .. 12
        pass
    spans = tracer.spans
    own = ledger.self_times(spans)
    assert own == {0: 10.0 - 2.0 - 3.0, 1: 2.0, 2: 3.0 - 1.0, 3: 1.0, 4: 2.0}
    by_layer = ledger.layer_self_times(spans)
    assert by_layer["evaluation"] == 5.0 and by_layer["minic"] == 2.0
    assert by_layer["faultinjection"] == 2.0 and by_layer["ir"] == 2.0
    assert by_layer["machine"] == 0.0       # the golden span is a probe
    assert ledger.layer_self_times(spans, probes=True)["machine"] == 1.0
    assert ledger.net_seconds(spans, spans[0]) == 9.0
    report = ledger.ledger(spans, traced_wall=12.0, untraced_wall=10.5)
    assert report["probe_s"] == 1.0
    assert report["overhead_s"] == pytest.approx(0.5)


def test_overlapping_children_are_counted_once():
    assert ledger._covered([(1, 4), (2, 3), (3, 6), (8, 20)], 0, 10) == 7


# -- correctness checks ---------------------------------------------------------


def test_planted_wrong_digest_counts_failed_operations(tmp_path):
    from repro.pipeline import build_variants
    from repro.workloads import get_workload

    asm = build_variants(get_workload("knn").source(1), names=("raw",))["raw"].asm
    expected: dict = {}
    recorder = traffic.Run(str(tmp_path / "a"), expected, record=True)
    traffic.compose_op(recorder, "knn", "raw", asm, 101, 4)
    assert (recorder.attempted, recorder.failed) == (2, 0)
    (key, value), = expected.items()

    honest = traffic.Run(str(tmp_path / "b"), dict(expected), log=lambda _: 0)
    traffic.compose_op(honest, "knn", "raw", asm, 101, 4)
    assert (honest.attempted, honest.failed) == (2, 0)

    lines = []
    planted = {key: {**value, "digest": "0" * 64}}
    checked = traffic.Run(str(tmp_path / "c"), planted, log=lines.append)
    traffic.compose_op(checked, "knn", "raw", asm, 101, 4)
    assert (checked.attempted, checked.failed) == (2, 2)
    assert sum("FAILED" in line and key in line for line in lines) == 2


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    with open(os.path.join(BENCH, "run.py"), encoding="utf-8") as handle:
        (bench_copy / "run.py").write_text(handle.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-fi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
