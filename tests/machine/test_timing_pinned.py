"""Pinned cycle counts, and determinism of repeated timed runs.

The pins are the cycle model's output on the paper's bfs and knn binaries
under the default :class:`TimingConfig`, recorded before per-instruction
timing facts were pre-resolved. Any drift in the model — a changed port,
latency, dependence or retirement rule — fails here, in tier-1, rather than
only in the benchmark's expected-value checks.
"""

import pytest

from repro.machine.cpu import Machine
from repro.machine.timing import TimingConfig

#: (workload, variant) -> (cycles, dynamic instructions).
PINNED = {
    ("bfs", "raw"): (34176, 24938),
    ("bfs", "ir-eddi"): (46758, 58565),
    ("bfs", "hybrid"): (67903, 96424),
    ("bfs", "ferrum"): (39623, 85898),
    ("bfs", "dme"): (68352, 24938),
    ("knn", "raw"): (40653, 31633),
    ("knn", "ir-eddi"): (57632, 74176),
    ("knn", "hybrid"): (91633, 130272),
    ("knn", "ferrum"): (46908, 110272),
    ("knn", "dme"): (81304, 31633),
}

VARIANTS = ("raw", "ir-eddi", "hybrid", "ferrum", "dme")

@pytest.mark.parametrize("workload,variant", sorted(PINNED))
def test_pinned_cycles(workload_build, workload, variant):
    result = Machine(workload_build(workload)[variant].asm).run(
        timing=TimingConfig())
    assert (result.cycles, result.dynamic_instructions) == \
        PINNED[(workload, variant)]


class TestDeterminism:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_repeat_runs_deterministic(self, workload_build, variant):
        """Two timed runs on one machine equal a fresh machine's run."""
        asm = workload_build("bfs")[variant].asm
        machine = Machine(asm)
        first = machine.run(timing=TimingConfig()).cycles
        second = machine.run(timing=TimingConfig()).cycles
        fresh = Machine(asm).run(timing=TimingConfig()).cycles
        assert first == second == fresh
