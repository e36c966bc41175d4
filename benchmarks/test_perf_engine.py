"""Perf floors for the batch simulation engine.

Each test times the lockstep core against the serial per-session engine on
the same grid, in the same process, on the same host, and asserts a floor
on the ratio.  Both sides are measured in one run, so host-speed drift
cancels out of the ratio:

* **grid** — the quick-scale BBA/Fugu/SENSEI grid through ``auto()``
  versus the serial engine, floored at
  :data:`MIN_SPEEDUP_VS_SERIAL_ENGINE` with span tracing off and on; the
  traced runs must score every cell as the untraced ones do and stay
  within the telemetry overhead budget (engine ≡ serial is the golden
  masters' job, ``tests/test_golden.py``);
* **rl_grid** — the same ratio for Pensieve-family cells (greedy and
  seeded-exploration), which exercise the batched RL driver instead of the
  planner kernel, after checking lockstep ≡ serial bitwise.

The numbers are printed (run with ``-s``) and written nowhere: the
end-to-end record is ``python -m bench`` (``bench/README.md``).

Run via ``make perf-floors`` or
``PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -v -s``.
``REPRO_BENCH_SCALE=tiny`` shrinks the grid to smoke-test scale (used by
the CI ``bench-smoke`` job, which checks behaviour and bitwise equivalence
rather than any speedup threshold).
"""

from __future__ import annotations

import time

import pytest

from repro.abr.planner import clear_plan_cache
from repro.core.sensei_abr import SenseiFuguABR
from repro.engine import BatchRunner
from repro.engine.report import phases_from_snapshot
from repro.experiments.abr_eval import _evaluate_grid
from repro.obs import MetricsRegistry, set_enabled, use_registry

#: Floor for the primary metric: lockstep must stay at least this much
#: faster than the serial per-session engine *on the same host in the same
#: run* (PR 5 records ~3x; PR 4's same-host figure was ~2.75x).  A floor,
#: not the target: deliberately low enough that scheduler noise on a
#: loaded or throttled CI host cannot turn a healthy measurement into a
#: red suite, while the real ratio is printed every run.
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


@pytest.mark.benchmark(group="engine")
@pytest.mark.slow
def test_grid_speedup_vs_serial_engine(context):
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
    # telemetry attempts trace into a fresh registry, which also yields the
    # span-derived phase breakdown checked below.
    def evaluate(runner: BatchRunner):
        """One grid sweep on ``runner``; the shared context keeps its own."""
        shared = context.runner
        context.runner = runner
        try:
            return _evaluate_grid(context)
        finally:
            context.runner = shared

    runner = BatchRunner.auto()
    metrics = MetricsRegistry()
    engine_seconds = float("inf")
    engine_scores = None
    telemetry_seconds = float("inf")
    telemetry_scores = None
    for _ in range(MEASUREMENT_ATTEMPTS):
        t0 = time.perf_counter()
        engine_scores = evaluate(runner)
        engine_seconds = min(engine_seconds, time.perf_counter() - t0)

        previous_telemetry = set_enabled(True)
        try:
            with use_registry(metrics):
                t0 = time.perf_counter()
                telemetry_scores = evaluate(runner)
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
        evaluate(serial_runner)
        serial_engine_seconds = min(
            serial_engine_seconds, time.perf_counter() - t0
        )

    speedup_vs_serial = serial_engine_seconds / engine_seconds
    speedup_vs_serial_telemetry = serial_engine_seconds / telemetry_seconds
    telemetry_overhead = telemetry_seconds / engine_seconds
    cells = sum(len(v) for v in engine_scores.values())
    # Span-derived phase split, accumulated over the telemetry attempts:
    # produced by the tracer, never hand-timed.
    phases = phases_from_snapshot(snapshot)
    # plan_cache numbers come off the same registry snapshot everything
    # else reads (the planner publishes them via a snapshot collector).
    gauges = snapshot["gauges"]
    plan_hits = int(gauges.get("plan_cache.hits", 0))
    plan_misses = int(gauges.get("plan_cache.misses", 0))
    print(
        f"\ngrid: serial engine {serial_engine_seconds:.2f}s -> lockstep "
        f"{engine_seconds:.2f}s ({speedup_vs_serial:.2f}x same-host; "
        f"{cells} cells, backend={runner.backend}, telemetry "
        f"{telemetry_seconds:.2f}s ({telemetry_overhead:.3f}x), plan cache "
        f"{plan_hits} hits / {plan_misses} misses)\nphases: {phases}"
    )

    assert cells > 0
    # The grid planned in this process: the plan cache, cleared before the
    # attempts, built at least one candidate tree.
    assert plan_misses > 0

    # Tracing must never perturb results.  (Engine ≡ reference is the
    # golden masters' job: tests/test_golden.py, on every backend.)
    for name, cells_map in engine_scores.items():
        for key, value in cells_map.items():
            assert telemetry_scores[name][key] == value

    # The tracer actually saw the run: a dispatch span per run_orders call
    # and non-zero kernel/stepping leaves.
    assert phases["dispatch_s"] > 0.0
    assert phases["planner_kernel_s"] > 0.0
    assert phases["stepping_s"] > 0.0
    # Disjoint leaves cannot exceed their parent.
    assert (
        phases["planner_kernel_s"] + phases["stepping_s"]
        <= phases["dispatch_s"] * 1.001
    )

    # Smoke-scale runs (REPRO_BENCH_SCALE=tiny in CI) print the numbers
    # without enforcing a speedup: sub-100ms timings on shared runners are
    # noise, and the smoke job's purpose is behaviour + equivalence.
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
def test_rl_grid_speedup_vs_serial_engine(context):
    """RL grid: the batched RL driver vs the serial per-session engine.

    Pensieve-family cells in both modes the lockstep core batches — greedy
    (stacked forward + argmax) and seeded exploration (per-session RNG
    streams) — over the full video x trace grid.  Results must stay
    bitwise identical across backends; the same-host ratio is floored at
    2x (target well above — the recording host measures ~4.7x).
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
    print(
        f"\nrl grid: serial engine {serial_seconds:.3f}s -> batched RL "
        f"driver {engine_seconds:.3f}s ({speedup:.2f}x same-host, "
        f"{len(orders)} cells)"
    )
    if context.scale.name != "tiny":
        assert speedup >= MIN_RL_SPEEDUP_VS_SERIAL_ENGINE


@pytest.mark.benchmark(group="engine")
def test_lockstep_matches_serial_on_one_cell(context):
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
