"""Perf floor for the RL training subsystem.

Times experience collection — episodes/sec and decisions/sec through the
rollout collector — on the serial backend and on the lockstep backend
(the one :meth:`BatchRunner.auto` picks), over byte-identical experience,
and asserts the lockstep speedup is at least
:data:`MIN_LOCKSTEP_COLLECTION_SPEEDUP`.  Lockstep collection routes the
episodes through the lockstep engine's batched RL driver (one stacked
actor forward per decision round across the whole round's episodes,
per-spec exploration seeds).  The numbers are printed (run with ``-s``)
and written nowhere; ``bench/``'s ``train_quick`` workload times training
end to end.

Run via ``make perf-floors`` or
``PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -v -s``.
``REPRO_BENCH_SCALE=tiny`` shrinks the measured episode count (used by
the CI ``bench-smoke`` job, which checks the experience equality rather
than any speedup threshold).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.sensei_abr import make_sensei_pensieve
from repro.engine.runner import BatchRunner
from repro.network.bank import TraceBank
from repro.qoe.ground_truth import GroundTruthOracle
from repro.training import CurriculumConfig, RolloutCollector, ScenarioCurriculum
from repro.video.library import VideoLibrary

#: Smoke scale (CI): backend equivalence only, tiny timings.
TINY = os.environ.get("REPRO_BENCH_SCALE", "quick") == "tiny"

#: Episodes measured per backend.
EPISODES = 8 if TINY else 24

#: Measurement attempts per backend (best-of, against host noise).
MEASUREMENT_ATTEMPTS = 2

#: Floor for the lockstep-collection speedup on real (non-tiny) runs: the
#: batched RL driver should beat per-episode serial collection clearly
#: (the recording host measures ~3x); the floor sits far below so host
#: noise cannot redden a healthy run.
MIN_LOCKSTEP_COLLECTION_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def training_setup():
    """A curriculum over two library videos and a small trace bank."""
    library = VideoLibrary(seed=7)
    videos = [library.encoded("soccer1"), library.encoded("fps1")]
    oracle = GroundTruthOracle()
    weights = {
        video.source.video_id: oracle.normalized_sensitivity(video.source)
        for video in videos
    }
    curriculum = ScenarioCurriculum(
        videos,
        TraceBank(num_traces=4, duration_s=600.0, seed=11).traces(),
        weights_by_video=weights,
        config=CurriculumConfig(trace_duration_s=600.0, seed=29),
    )
    return curriculum, make_sensei_pensieve(seed=47)


@pytest.mark.benchmark(group="training")
@pytest.mark.slow
def test_collection_throughput_serial_vs_parallel(training_setup):
    """Episodes/sec through the collector, serial vs lockstep."""
    curriculum, abr = training_setup
    specs = curriculum.training_specs(EPISODES, round_index=0)

    seconds = {}
    reference = None
    for name in ("serial", "lockstep"):
        collector = RolloutCollector(runner=BatchRunner(backend=name))
        collector.collect(abr, specs[:2])  # warms the precompute/plan caches
        best = float("inf")
        rollouts = None
        for _ in range(MEASUREMENT_ATTEMPTS):
            t0 = time.perf_counter()
            rollouts = collector.collect(abr, specs)
            best = min(best, time.perf_counter() - t0)
        steps = sum(rollout.num_steps for rollout in rollouts)
        seconds[name] = best
        print(
            f"\n{name}: {len(rollouts)} episodes in {best:.2f}s "
            f"({len(rollouts) / best:.1f} episodes/s, {steps / best:.0f} "
            "decisions/s)"
        )
        # Byte-identical experience is the precondition for the speedup to
        # mean anything: same actions, same states, same rewards as serial.
        actions = [rollout.actions.tolist() for rollout in rollouts]
        if reference is None:
            reference = actions
        else:
            assert actions == reference

    speedup = seconds["serial"] / seconds["lockstep"]
    print(f"\nlockstep collection: {speedup:.2f}x vs serial")
    if not TINY:
        assert speedup >= MIN_LOCKSTEP_COLLECTION_SPEEDUP
