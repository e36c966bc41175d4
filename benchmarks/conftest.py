"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at ``quick``
scale (see DESIGN.md's per-experiment index) and prints the rows/series it
produces, so the run log doubles as a reproduction report.  Expensive
artefacts (profiles, trained agents) are cached in one session-scoped
context shared across benchmarks.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments.registry import context_for
from repro.experiments.spec import ExperimentSpec

# The ``benchmark`` and ``slow`` markers are registered in pytest.ini.


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """Experiment context shared by all benchmarks, built from the same
    declarative spec path the CLI uses (only scale/seed matter here; the
    experiment name is per-test).

    ``REPRO_BENCH_SCALE`` overrides the scale (default ``quick``): the CI
    ``bench-smoke`` job runs the perf floors at ``tiny`` scale, where only
    their behaviour checks and the lockstep/serial equivalence matter.
    """
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    return context_for(
        ExperimentSpec(experiment="benchmarks", scale=scale, seed=7)
    )

