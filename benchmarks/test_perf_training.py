"""Perf harness for the RL training subsystem.

Measures experience-collection throughput — episodes/sec and decisions/sec
through the rollout collector — on the serial backend and on the lockstep
backend (the one :meth:`BatchRunner.auto` picks), and writes the numbers
to ``BENCH_training.json`` at the repo root so the training-throughput
trajectory is tracked from PR to PR (the companion of
``BENCH_engine.json`` for the simulation engine).

Lockstep collection routes the episodes through the lockstep engine's
batched RL driver (one stacked actor forward per decision round across the
whole round's episodes, per-spec exploration seeds).  The
``lockstep_collection`` section records its ``speedup_vs_serial``, a
same-run ratio over byte-identical experience, floored at
:data:`MIN_LOCKSTEP_COLLECTION_SPEEDUP`.

Run via ``make bench-training`` or
``PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -v``.
``REPRO_BENCH_SCALE=tiny`` shrinks the measured episode count (used by
the CI ``bench-smoke`` job, which asserts the report schema rather than
any speedup threshold).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.sensei_abr import make_sensei_pensieve
from repro.engine.report import environment_fingerprint, git_revision
from repro.engine.runner import BatchRunner
from repro.network.bank import TraceBank
from repro.qoe.ground_truth import GroundTruthOracle
from repro.training import CurriculumConfig, RolloutCollector, ScenarioCurriculum
from repro.video.library import VideoLibrary

#: Written at the repo root; tracked in version control as the perf record.
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"

#: Smoke scale (CI): schema and backend-equivalence only, tiny timings.
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
    """Episodes/sec through the collector, serial vs lockstep,
    -> BENCH_training.json."""
    curriculum, abr = training_setup
    specs = curriculum.training_specs(EPISODES, round_index=0)

    rates = {}
    decisions = {}
    seconds = {}
    reference = None
    for name in ("serial", "lockstep"):
        collector = RolloutCollector(
            runner=BatchRunner(backend=name), shard_size=4
        )
        collector.collect(abr, specs[:2])  # warms the precompute/plan caches
        best = float("inf")
        rollouts = None
        for _ in range(MEASUREMENT_ATTEMPTS):
            t0 = time.perf_counter()
            rollouts = collector.collect(abr, specs)
            best = min(best, time.perf_counter() - t0)
        steps = sum(rollout.num_steps for rollout in rollouts)
        seconds[name] = best
        rates[name] = round(len(rollouts) / best, 2)
        decisions[name] = round(steps / best, 1)
        print(
            f"\n{name}: {len(rollouts)} episodes in {best:.2f}s "
            f"({rates[name]:.1f} episodes/s, {decisions[name]:.0f} "
            "decisions/s)"
        )
        # Byte-identical experience is the precondition for the speedup to
        # mean anything: same actions, same states, same rewards as serial.
        actions = [rollout.actions.tolist() for rollout in rollouts]
        if reference is None:
            reference = actions
        else:
            assert actions == reference

    lockstep_section = {
        "episodes": EPISODES,
        "episodes_per_sec": rates["lockstep"],
        "decisions_per_sec": decisions["lockstep"],
        "serial_seconds": round(seconds["serial"], 4),
        "lockstep_seconds": round(seconds["lockstep"], 4),
        "speedup_vs_serial": round(seconds["serial"] / seconds["lockstep"], 2),
        "experience_identical": True,
        "min_speedup": MIN_LOCKSTEP_COLLECTION_SPEEDUP,
    }
    print(
        f"\nlockstep collection: "
        f"{lockstep_section['speedup_vs_serial']:.2f}x vs serial"
    )

    payload = {
        "scale": "tiny" if TINY else "quick",
        "episodes": EPISODES,
        "episodes_per_sec": rates,
        "decisions_per_sec": decisions,
        "lockstep_collection": lockstep_section,
        "meta": environment_fingerprint(),
    }
    revision = git_revision()
    if revision is not None:
        payload["meta"]["git_revision"] = revision
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {REPORT_PATH}")
    assert all(rate > 0 for rate in rates.values())
    if not TINY:
        assert (
            lockstep_section["speedup_vs_serial"]
            >= MIN_LOCKSTEP_COLLECTION_SPEEDUP
        )
