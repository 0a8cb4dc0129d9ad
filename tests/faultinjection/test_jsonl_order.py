"""One JSONL order: run index, whatever executes the plans.

Every campaign strategy — checkpoint or replay engine, sequential or
forked workers, pruned or not, exact-site or interval checkpoints, flat
or composed per section — streams its records through the same run-index
reorder buffer, so for a fixed seed the files are byte-identical.
"""

import itertools

import pytest

from repro.faultinjection.campaign import run_campaign
from repro.faultinjection.compose import compose_campaign
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import assert_jsonl_identical

SAMPLES = 24
SEED = 3

#: (kind, engine, processes, prune, checkpoint_interval); compose always
#: runs the checkpoint engine (replay is the flat campaign's oracle).
MATRIX = [
    (kind, engine, processes, prune, interval)
    for kind, engine, processes, prune, interval in itertools.product(
        ("flat", "compose"), ("checkpoint", "replay"), (1, 2),
        (False, True), (None, 64))
    if not (kind == "compose" and engine == "replay")
]


@pytest.fixture(scope="module")
def program():
    return build_variants(get_workload("knn").source(1),
                          names=("raw",))["raw"].asm


@pytest.fixture(scope="module")
def reference(program, tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "flat.jsonl"
    run_campaign(program, samples=SAMPLES, seed=SEED, jsonl_path=path)
    return path


@pytest.mark.parametrize(
    "kind, engine, processes, prune, interval", MATRIX,
    ids=["-".join(map(str, case)) for case in MATRIX],
)
def test_jsonl_bytes_identical(program, reference, tmp_path, kind, engine,
                               processes, prune, interval):
    path = tmp_path / "campaign.jsonl"
    options = dict(samples=SAMPLES, seed=SEED, jsonl_path=path,
                   processes=processes, prune=prune,
                   checkpoint_interval=interval)
    if kind == "flat":
        run_campaign(program, engine=engine, **options)
    else:
        compose_campaign(program, **options)
    assert_jsonl_identical(path, reference)
