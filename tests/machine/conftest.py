"""Machine-test fixtures: paper workloads compiled once per session."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.pipeline import BuildResult, build_variants
from repro.workloads import get_workload


@pytest.fixture(scope="session")
def workload_build() -> Callable[[str], BuildResult]:
    """``workload_build(name)``: every variant of a workload at scale 1,
    built on first request and shared by the whole session."""
    builds: dict[str, BuildResult] = {}

    def build(name: str) -> BuildResult:
        if name not in builds:
            builds[name] = build_variants(get_workload(name).source(1))
        return builds[name]

    return build
