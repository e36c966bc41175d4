"""Perf harness for the batch simulation engine.

Measures, in one run, the engine's three headline rates and writes them to
``BENCH_engine.json`` at the repo root so the perf trajectory is tracked
from PR to PR:

* **speedup_vs_serial_engine** — the *primary tracked metric*: wall-clock
  of the serial per-session engine versus the lockstep core on the same
  grid, same process, same host.  Both sides are measured in the same run,
  so host-speed drift between benchmark recordings (the PR 4 host ran
  ~1.4x slower than PR 1's) cancels out of the ratio and cannot masquerade
  as a regression — unlike the absolute ``engine_seconds``.  The same
  ratio is also measured with span tracing on, together with its
  overhead and the span-derived phase split;
* **sessions/sec** — engine-path streaming sessions per second;
* **decisions/sec** — planner decisions per second per ABR family;
* **rl_grid** — the same same-host serial-vs-lockstep ratio for
  Pensieve-family cells (greedy and seeded-exploration), which exercise
  the batched RL driver instead of the planner kernel.

Run via ``make bench`` or
``PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -v``.
``REPRO_BENCH_SCALE=tiny`` shrinks the grid to smoke-test scale (used by
the CI ``bench-smoke`` job, which asserts the report schema rather than any
speedup threshold).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict

import pytest

from repro.abr.fugu import FuguABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.planner import clear_plan_cache
from repro.core.sensei_abr import SenseiFuguABR
from repro.engine import BatchRunner, BenchReport, write_bench_report
from repro.engine.report import phases_from_snapshot, utc_now_iso
from repro.experiments.abr_eval import _evaluate_grid
from repro.obs import MetricsRegistry, set_enabled, use_registry
from repro.player.simulator import simulate_session

#: Written at the repo root; tracked in version control as the perf record.
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Floor for the primary metric: lockstep must stay at least this much
#: faster than the serial per-session engine *on the same host in the same
#: run* (PR 5 records ~3x; PR 4's same-host figure was ~2.75x).  A floor,
#: not the target: deliberately low enough that scheduler noise on a
#: loaded or throttled CI host cannot turn a healthy measurement into a
#: red suite, while the real ratio is recorded in BENCH_engine.json every
#: run.
MIN_SPEEDUP_VS_SERIAL_ENGINE = 2.0

#: Floor for the RL grid: the batched RL driver (one stacked actor forward
#: per decision round across all co-scheduled sessions) must keep
#: Pensieve-family cells at least this much faster than the serial
#: per-session engine in the same run (~4.7x on the recording host).
MIN_RL_SPEEDUP_VS_SERIAL_ENGINE = 2.0

#: Timed measurement attempts per side (best-of): the quick grid runs in
#: well under a second, so single samples are at the mercy of host noise.
#: Five attempts keep the primary same-host ratio steady to a few percent.
MEASUREMENT_ATTEMPTS = 5

#: Telemetry overhead budget: the grid with span tracing enabled must stay
#: within this multiplicative factor of the telemetry-off wall clock...
MAX_TELEMETRY_OVERHEAD = 1.02

#: ...plus this absolute epsilon: the quick grid finishes in ~0.15s, where
#: 2% is a few milliseconds — below timer/scheduler noise even for a
#: best-of-5 — so a pure ratio assertion would flake on healthy code.
TELEMETRY_NOISE_FLOOR_S = 0.02


@pytest.fixture(scope="module")
def bench_report():
    """Accumulates measurements; written to disk after the module runs."""
    report = BenchReport()
    report.meta["started_at"] = utc_now_iso()
    t0 = time.perf_counter()
    yield report
    report.meta["duration_s"] = round(time.perf_counter() - t0, 3)
    path = write_bench_report(report, REPORT_PATH)
    print(f"\nwrote {path}")


@pytest.mark.benchmark(group="engine")
@pytest.mark.slow
def test_grid_speedup_vs_serial_engine(context, bench_report):
    """Grid sweep: the ``auto()`` engine vs the serial per-session engine,
    same host, same run (floor 2x, with and without telemetry)."""
    context.weights_by_video()  # profile videos outside the timed region
    clear_plan_cache()  # plan_cache gauges count this run only

    # Best-of-N per side: one grid is ~seconds, so scheduler noise on a
    # loaded host can move a single sample by tens of percent.  Engine and
    # telemetry attempts interleave (off, on, off, on, …): the
    # ≤2% overhead budget compares the two, and sequential best-of-N blocks
    # would let host load drift between the blocks masquerade as tracing
    # overhead.  Interleaved, any drift hits both sides alike.  The
    # telemetry attempts trace into a fresh registry and also produce the
    # span-derived phase breakdown recorded in the report (not hand-timed).
    runner = BatchRunner.auto()
    metrics = MetricsRegistry()
    engine_seconds = float("inf")
    engine_scores = None
    telemetry_seconds = float("inf")
    telemetry_scores = None
    for _ in range(MEASUREMENT_ATTEMPTS):
        t0 = time.perf_counter()
        engine_scores = _evaluate_grid(context, runner=runner)
        engine_seconds = min(engine_seconds, time.perf_counter() - t0)

        previous_telemetry = set_enabled(True)
        try:
            with use_registry(metrics):
                t0 = time.perf_counter()
                telemetry_scores = _evaluate_grid(context, runner=runner)
                telemetry_seconds = min(
                    telemetry_seconds, time.perf_counter() - t0
                )
        finally:
            set_enabled(previous_telemetry)
    snapshot = metrics.snapshot()

    # The primary metric's denominator: the serial per-session engine on
    # the same grid, same process, same host.
    serial_runner = BatchRunner(backend="serial")
    serial_engine_seconds = float("inf")
    for _ in range(MEASUREMENT_ATTEMPTS):
        t0 = time.perf_counter()
        _evaluate_grid(context, runner=serial_runner)
        serial_engine_seconds = min(
            serial_engine_seconds, time.perf_counter() - t0
        )

    speedup_vs_serial = serial_engine_seconds / engine_seconds
    speedup_vs_serial_telemetry = serial_engine_seconds / telemetry_seconds
    telemetry_overhead = telemetry_seconds / engine_seconds
    cells = sum(len(v) for v in engine_scores.values())
    bench_report.grid = {
        "scale": context.scale.name,
        "cells": cells,
        "backend": runner.backend,
        # The primary tracked metric is the same-host, same-run ratio:
        # absolute seconds drift with the recording host, the ratio does
        # not (see the module docstring).
        "primary_metric": "speedup_vs_serial_engine",
        "speedup_vs_serial_engine": round(speedup_vs_serial, 2),
        "engine_seconds": round(engine_seconds, 4),
        "serial_engine_seconds": round(serial_engine_seconds, 4),
    }
    # Span-derived phase split: totals accumulate over the telemetry
    # attempts, so the shares (not the absolute seconds) are the tracked
    # numbers.  Produced by the tracer — the report never hand-times
    # kernel vs stepping.
    bench_report.phases = {
        **phases_from_snapshot(snapshot),
        "telemetry_attempts": MEASUREMENT_ATTEMPTS,
        "telemetry_seconds": round(telemetry_seconds, 4),
        "telemetry_overhead_vs_engine": round(telemetry_overhead, 4),
        "speedup_vs_serial_engine_telemetry": round(
            speedup_vs_serial_telemetry, 2
        ),
    }
    # plan_cache numbers come off the same registry snapshot everything
    # else reads (the planner publishes them via a snapshot collector) —
    # not from lru_cache introspection at report time.
    gauges = snapshot["gauges"]
    bench_report.plan_cache = {
        "hits": int(gauges.get("plan_cache.hits", 0)),
        "misses": int(gauges.get("plan_cache.misses", 0)),
        "currsize": int(gauges.get("plan_cache.currsize", 0)),
    }
    # Recovery accounting for the measured runners: all-zero on a healthy
    # run; a bench number produced through shard recovery is flagged so
    # a regression hunt never chases wall-clock a crash recovery ate.
    bench_report.fault_log = BatchRunner.merge_fault_logs(
        runner, serial_runner
    )
    print(
        f"\ngrid: serial engine {serial_engine_seconds:.2f}s -> lockstep "
        f"{engine_seconds:.2f}s ({speedup_vs_serial:.2f}x same-host, primary; "
        f"{cells} cells, backend={runner.backend}, telemetry "
        f"{telemetry_seconds:.2f}s ({telemetry_overhead:.3f}x), plan cache "
        f"{bench_report.plan_cache['hits']} hits / "
        f"{bench_report.plan_cache['misses']} misses)"
    )

    # Tracing must never perturb results.  (Engine ≡ reference is the
    # golden masters' job: tests/test_golden.py, on every backend.)
    for name, cells_map in engine_scores.items():
        for key, value in cells_map.items():
            assert telemetry_scores[name][key] == value

    # The tracer actually saw the run: a dispatch span per run_orders call
    # and non-zero kernel/stepping leaves.
    phases = bench_report.phases
    assert phases["dispatch_s"] > 0.0
    assert phases["planner_kernel_s"] > 0.0
    assert phases["stepping_s"] > 0.0
    # Disjoint leaves cannot exceed their parent.
    assert (
        phases["planner_kernel_s"] + phases["stepping_s"]
        <= phases["dispatch_s"] * 1.001
    )

    # Smoke-scale runs (REPRO_BENCH_SCALE=tiny in CI) record the numbers
    # without enforcing a speedup: sub-100ms timings on shared runners are
    # noise, and the smoke job's purpose is schema + equivalence.
    if context.scale.name != "tiny":
        assert speedup_vs_serial >= MIN_SPEEDUP_VS_SERIAL_ENGINE
        # The primary floor holds with telemetry enabled too...
        assert speedup_vs_serial_telemetry >= MIN_SPEEDUP_VS_SERIAL_ENGINE
        # ...because enabled tracing stays within its overhead budget.
        assert telemetry_seconds <= (
            engine_seconds * MAX_TELEMETRY_OVERHEAD + TELEMETRY_NOISE_FLOOR_S
        )


@pytest.mark.benchmark(group="engine")
@pytest.mark.slow
def test_rl_grid_speedup_vs_serial_engine(context, bench_report):
    """RL grid: the batched RL driver vs the serial per-session engine.

    Pensieve-family cells in both modes the lockstep core batches — greedy
    (stacked forward + argmax) and seeded exploration (per-session RNG
    streams) — over the full video x trace grid.  Results must stay
    bitwise identical across backends; the same-host ratio is recorded as
    ``rl_grid.speedup_vs_serial_engine`` with a >= 2x floor (target well
    above — the recording host measures ~4.7x).
    """
    import numpy as np

    from repro.abr.pensieve import PensieveABR, PensieveConfig
    from repro.core.sensei_abr import make_sensei_pensieve
    from repro.engine.runner import WorkOrder

    sensei_explorer = make_sensei_pensieve(seed=23)
    sensei_explorer.greedy = False
    policies = [
        ("Pensieve/greedy", PensieveABR(config=PensieveConfig(seed=21)),
         False, False),
        ("SENSEI-Pensieve/greedy", make_sensei_pensieve(seed=23),
         True, False),
        ("Pensieve/explore", PensieveABR(config=PensieveConfig(seed=21),
                                         greedy=False), False, True),
        ("SENSEI-Pensieve/explore", sensei_explorer, True, True),
    ]
    orders = []
    for which, (_, abr, use_weights, explore) in enumerate(policies):
        for v, encoded in enumerate(context.videos()):
            weights = (
                context.weights(encoded.source.video_id)
                if use_weights else None
            )
            for t, trace in enumerate(context.traces()):
                orders.append(WorkOrder(
                    abr=abr, encoded=encoded, trace=trace,
                    chunk_weights=weights,
                    exploration_seed=(
                        1000 + which * 100 + v * 10 + t if explore else None
                    ),
                ))

    serial_runner = BatchRunner(backend="serial")
    lockstep_runner = BatchRunner(backend="lockstep")
    serial_results = serial_runner.run_orders(orders)   # warm + reference
    lockstep_results = lockstep_runner.run_orders(orders)
    for left, right in zip(serial_results, lockstep_results):
        assert np.array_equal(left.rendered.levels, right.rendered.levels)
        assert np.array_equal(
            left.rendered.stalls_s, right.rendered.stalls_s
        )
        assert left.session_duration_s == right.session_duration_s

    serial_seconds = float("inf")
    engine_seconds = float("inf")
    for _ in range(MEASUREMENT_ATTEMPTS):
        t0 = time.perf_counter()
        serial_runner.run_orders(orders)
        serial_seconds = min(serial_seconds, time.perf_counter() - t0)
        t0 = time.perf_counter()
        lockstep_runner.run_orders(orders)
        engine_seconds = min(engine_seconds, time.perf_counter() - t0)

    speedup = serial_seconds / engine_seconds
    bench_report.rl_grid = {
        "scale": context.scale.name,
        "cells": len(orders),
        "families": sorted({name for name, *_ in policies}),
        "primary_metric": "speedup_vs_serial_engine",
        "speedup_vs_serial_engine": round(speedup, 2),
        "serial_engine_seconds": round(serial_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "min_speedup": MIN_RL_SPEEDUP_VS_SERIAL_ENGINE,
    }
    print(
        f"\nrl grid: serial engine {serial_seconds:.3f}s -> batched RL "
        f"driver {engine_seconds:.3f}s ({speedup:.2f}x same-host, "
        f"{len(orders)} cells)"
    )
    if context.scale.name != "tiny":
        assert speedup >= MIN_RL_SPEEDUP_VS_SERIAL_ENGINE


@pytest.mark.benchmark(group="engine")
def test_lockstep_matches_serial_on_one_cell(context, bench_report):
    """One grid cell, lockstep vs serial, bitwise — the bench-smoke anchor."""
    import numpy as np

    from repro.engine.runner import WorkOrder

    encoded = context.videos()[0]
    trace = context.traces()[0]
    orders = [
        WorkOrder(abr=SenseiFuguABR(), encoded=encoded, trace=trace,
                  chunk_weights=context.weights(encoded.source.video_id))
    ]
    serial = BatchRunner(backend="serial").run_orders(orders)[0]
    lockstep = BatchRunner(backend="lockstep").run_orders(orders)[0]
    assert np.array_equal(serial.rendered.levels, lockstep.rendered.levels)
    assert np.array_equal(serial.rendered.stalls_s, lockstep.rendered.stalls_s)
    assert serial.session_duration_s == lockstep.session_duration_s


@pytest.mark.benchmark(group="engine")
def test_sessions_per_sec(context, bench_report):
    """Throughput of single engine-path sessions (no pool overhead)."""
    encoded = context.videos()[0]
    traces = context.traces()
    abr = FuguABR()
    simulate_session(abr, encoded, traces[0])  # warm caches
    count = 0
    t0 = time.perf_counter()
    while count < 24:
        simulate_session(abr, encoded, traces[count % len(traces)])
        count += 1
    elapsed = time.perf_counter() - t0
    bench_report.sessions_per_sec = round(count / elapsed, 2)
    print(f"\nsessions/sec: {count / elapsed:.1f}")
    assert count / elapsed > 0


@pytest.mark.benchmark(group="engine")
def test_decisions_per_sec(context, bench_report):
    """Planner decision rate per ABR family on a steady observation."""
    encoded = context.videos()[0]
    trace = context.traces()[0]
    weights = context.weights(encoded.source.video_id)
    rates: Dict[str, float] = {}
    for abr in (ModelPredictiveABR(), FuguABR(), SenseiFuguABR()):
        # Capture a mid-session observation to measure decide() alone.
        captured = {}
        original_decide = abr.decide

        def capturing_decide(observation, _orig=original_decide):
            captured.setdefault("obs", observation)
            return _orig(observation)

        abr.decide = capturing_decide
        simulate_session(abr, encoded, trace, chunk_weights=weights)
        abr.decide = original_decide

        observation = captured["obs"]
        iterations = 200
        # reset() inside the loop keeps every iteration on the same code
        # path (cold-start predictor distribution, fresh stall budget) so
        # the tracked rate cannot drift as internal ABR state accumulates.
        t0 = time.perf_counter()
        for _ in range(iterations):
            abr.reset()
            abr.decide(observation)
        elapsed = time.perf_counter() - t0
        rates[abr.name] = round(iterations / elapsed, 1)
    bench_report.decisions_per_sec = rates
    print("\ndecisions/sec: " + ", ".join(f"{k}={v:.0f}" for k, v in rates.items()))
    assert all(rate > 0 for rate in rates.values())
