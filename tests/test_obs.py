"""The telemetry subsystem: registry semantics, tracing, sinks, and the
engine integration (backend-equivalent totals, fault-log publishing,
cache metrics, the ``profile`` CLI).

Timing-valued fields (span seconds, histogram sums over wall clock) are
never compared across runs — only deterministic metrics are: counts of
completed orders and the *simulated* session-duration histogram, which is
bit-identical across backends by the engine's equivalence contract.
"""

from __future__ import annotations

import json

import pytest

from repro.abr.bba import BufferBasedABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.planner import clear_plan_cache
from repro.engine.runner import BatchRunner, orders_for_grid
from repro.faults.log import FaultLog
from repro.network.bank import TraceBank
from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    phase_table,
    register_collector,
    run_events,
    set_enabled,
    to_prometheus,
    trace_span,
    use_registry,
    write_events_jsonl,
    write_prometheus,
)
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Restore the tracer flag and the active registry around every test,
    so a failing test can never leak telemetry state into the suite."""
    previous_enabled = trace_mod.TRACE.enabled
    previous_active = metrics_mod._ACTIVE
    yield
    trace_mod.TRACE.enabled = previous_enabled
    metrics_mod._ACTIVE = previous_active


def _encode(video_id: str, genre: str, duration_s: float, seed: int):
    source = SourceVideo.synthesize(
        video_id, genre, duration_s=duration_s, chunk_duration_s=4.0, seed=seed
    )
    return SyntheticEncoder(seed=seed + 10).encode(source, DEFAULT_LADDER)


@pytest.fixture(scope="module")
def obs_orders():
    """A small deterministic grid: 2 ABRs x 2 videos x 2 traces."""
    videos = [_encode("obs-a", "sports", 48.0, 31), _encode("obs-b", "nature", 80.0, 32)]
    traces = TraceBank(num_traces=2, duration_s=300.0, seed=33).traces()
    keyed = orders_for_grid(
        [ModelPredictiveABR(), BufferBasedABR()], videos, traces
    )
    return [order for _, order in keyed]


def _run_with_telemetry(runner: BatchRunner, orders):
    registry = MetricsRegistry()
    previous = set_enabled(True)
    try:
        with use_registry(registry):
            results = runner.run_orders(orders)
    finally:
        set_enabled(previous)
    return results, registry.snapshot()


# ------------------------------------------------------------------ registry

class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2.5)
        assert registry.snapshot()["counters"]["x"] == 3.5

    def test_gauge_sets(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(7)
        registry.gauge("g").set(3)
        assert registry.snapshot()["gauges"]["g"] == 3.0

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 10.0):
            hist.observe(value)
        payload = registry.snapshot()["histograms"]["h"]
        assert payload["buckets"] == [1.0, 10.0]
        # <=1: {0.5}; <=10: {5.0, 10.0}; +inf: {50.0}
        assert payload["counts"] == [1, 2, 1]
        assert payload["count"] == 4
        assert payload["sum"] == pytest.approx(65.5)

    def test_histogram_per_metric_buckets(self):
        """Each histogram keeps its own bounds; re-requesting with the
        *same* explicit bounds (or none) is fine, different bounds raise."""
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.001, 0.01))
        registry.histogram("size", buckets=(1.0, 8.0, 64.0))
        assert registry.histogram("lat").buckets == (0.001, 0.01)
        assert registry.histogram("lat", buckets=(0.001, 0.01)).buckets == (
            0.001, 0.01,
        )
        with pytest.raises(ValueError, match="bucket mismatch"):
            registry.histogram("lat", buckets=(0.001, 0.02))

    def test_micro_latency_buckets_resolve_sub_millisecond(self):
        from repro.obs import DEFAULT_MICRO_LATENCY_BUCKETS_S

        bounds = DEFAULT_MICRO_LATENCY_BUCKETS_S
        assert list(bounds) == sorted(set(bounds))
        # µs–ms range: several bounds under 100 µs so a service whose p50
        # is tens of microseconds lands in resolvable buckets.
        assert sum(1 for b in bounds if b < 1e-4) >= 4
        registry = MetricsRegistry()
        hist = registry.histogram("svc", buckets=bounds)
        hist.observe(3e-5)
        hist.observe(0.3)
        payload = registry.snapshot()["histograms"]["svc"]
        assert payload["counts"][0:4].count(1) == 1  # 30 µs resolved
        assert payload["count"] == 2

    def test_histogram_rejects_unsorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_record_span_accumulates_count_total_max(self):
        registry = MetricsRegistry()
        registry.record_span("s", 0.25)
        registry.record_span("s", 0.75)
        registry.record_span("s", 0.5)
        span = registry.snapshot()["spans"]["s"]
        assert span["count"] == 3
        assert span["total_s"] == pytest.approx(1.5)
        assert span["max_s"] == pytest.approx(0.75)

    def test_clear_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.record_span("s", 1.0)
        registry.clear()
        snapshot = registry.snapshot()
        assert not snapshot["counters"]
        assert not snapshot["spans"]

    def test_diff_snapshots_window(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.record_span("s", 1.0)
        before = registry.snapshot()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(4.0)
        registry.record_span("s", 0.5)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"c": 2.0}
        assert delta["histograms"]["h"]["counts"] == [0, 1]
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["spans"]["s"]["count"] == 1
        assert delta["spans"]["s"]["total_s"] == pytest.approx(0.5)

    def test_use_registry_scopes_and_restores_on_error(self):
        scoped = MetricsRegistry()
        default = metrics_mod.get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(scoped):
                assert metrics_mod.get_registry() is scoped
                raise RuntimeError("boom")
        assert metrics_mod.get_registry() is default

    def test_collectors_run_at_snapshot_time_and_register_once(self):
        calls = []

        def collector(registry):
            calls.append(registry)
            registry.gauge("collected").set(1)

        register_collector(collector)
        register_collector(collector)  # idempotent
        try:
            registry = MetricsRegistry()
            snapshot = registry.snapshot()
            assert snapshot["gauges"]["collected"] == 1.0
            assert calls == [registry]
        finally:
            metrics_mod._COLLECTORS.remove(collector)


# ------------------------------------------------------------------- tracing

class TestTracing:
    def test_set_enabled_returns_previous(self):
        set_enabled(False)
        assert set_enabled(True) is False
        assert set_enabled(False) is True

    def test_trace_span_noop_when_disabled(self):
        set_enabled(False)
        registry = MetricsRegistry()
        with use_registry(registry):
            with trace_span("quiet"):
                pass
        assert registry.snapshot()["spans"] == {}

    def test_trace_span_records_when_enabled(self):
        set_enabled(True)
        registry = MetricsRegistry()
        with use_registry(registry):
            with trace_span("loud"):
                pass
        span = registry.snapshot()["spans"]["loud"]
        assert span["count"] == 1
        assert span["total_s"] >= 0.0

    def test_trace_span_records_on_exception(self):
        set_enabled(True)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(ValueError):
                with trace_span("failing"):
                    raise ValueError("inside")
        assert registry.snapshot()["spans"]["failing"]["count"] == 1


# --------------------------------------------------------------------- sinks

def _sink_snapshot():
    registry = MetricsRegistry()
    registry.counter("orders").inc(4)
    registry.gauge("cache.size").set(2)
    registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    registry.histogram("lat").observe(5.0)
    registry.record_span("engine.dispatch", 2.0)
    registry.record_span("planner.kernel", 1.2)
    return registry.snapshot()


class TestSinks:
    def test_run_events_structure(self):
        events = run_events(
            _sink_snapshot(), run_id="r1",
            started_at="2026-01-01T00:00:00+00:00", duration_s=2.5,
        )
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert kinds.count("phase") == 2
        # One metric event per counter/gauge; registered collectors (the
        # planner's plan_cache gauges) may contribute more.
        metric_names = {
            e["name"] for e in events if e["event"] == "metric"
        }
        assert {"orders", "cache.size"} <= metric_names
        phase = next(
            e for e in events
            if e["event"] == "phase" and e["name"] == "planner.kernel"
        )
        assert phase["share_of_dispatch"] == pytest.approx(0.6)

    def test_events_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        events = run_events(_sink_snapshot(), run_id="r1")
        write_events_jsonl(path, events)
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == len(events)
        snapshot_event = next(
            e for e in parsed if e["event"] == "metrics_snapshot"
        )
        assert snapshot_event["snapshot"]["counters"]["orders"] == 4.0

    def test_prometheus_format(self, tmp_path):
        text = to_prometheus(_sink_snapshot())
        assert "# TYPE repro_orders_total counter" in text
        assert "repro_orders_total 4" in text
        assert "repro_cache_size 2" in text
        # Cumulative bucket export: 1 at <=0.1, still 1 at <=1.0, 2 at +Inf.
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert 'repro_span_seconds_total{span="engine.dispatch"} 2.0' in text
        path = write_prometheus(tmp_path / "metrics.prom", _sink_snapshot())
        assert path.read_text() == text

    def test_prometheus_help_lines(self):
        """Every exported family carries a # HELP line scrapers can parse."""
        text = to_prometheus(_sink_snapshot())
        lines = text.splitlines()
        for metric in ("repro_orders_total", "repro_cache_size", "repro_lat",
                       "repro_span_seconds_total", "repro_span_count",
                       "repro_span_max_seconds"):
            help_lines = [l for l in lines if l.startswith(f"# HELP {metric} ")]
            assert len(help_lines) == 1, metric
            # HELP precedes TYPE for the same family (exposition order).
            assert lines.index(help_lines[0]) < lines.index(next(
                l for l in lines if l.startswith(f"# TYPE {metric} ")
            ))

    def test_prometheus_escapes_names_and_label_values(self):
        registry = MetricsRegistry()
        registry.counter("weird metric!name").inc()
        registry.record_span('spans\\with"quotes\nand newlines', 1.0)
        text = to_prometheus(registry.snapshot())
        # Invalid metric-name characters are sanitised to underscores.
        assert "repro_weird_metric_name_total 1" in text
        # Label values escape backslash, quote and newline.
        assert (
            'span="spans\\\\with\\"quotes\\nand newlines"' in text
        )
        assert "\nand newlines" not in text.replace("\\nand newlines", "")

    def test_phase_table_contents_and_empty_message(self):
        table = phase_table(_sink_snapshot())
        lines = table.splitlines()
        assert "phase" in lines[0]
        # Sorted by total seconds descending: dispatch first.
        assert "engine.dispatch" in lines[1]
        assert "100.0%" in lines[1]
        assert "60.0%" in lines[2]
        assert "telemetry off?" in phase_table({"spans": {}})


# -------------------------------------------------------- engine integration

class TestEngineTelemetry:
    def test_lockstep_run_records_phases_and_orders(self, obs_orders):
        results, snapshot = _run_with_telemetry(
            BatchRunner(backend="lockstep"), obs_orders
        )
        assert snapshot["counters"]["engine.orders_completed"] == len(results)
        spans = snapshot["spans"]
        for name in ("engine.dispatch", "engine.lockstep.shard",
                     "planner.kernel", "player.step"):
            assert spans[name]["count"] >= 1, name
        # Single-process backend: disjoint leaves fit inside the root.
        assert (
            spans["planner.kernel"]["total_s"] + spans["player.step"]["total_s"]
            <= spans["engine.dispatch"]["total_s"]
        )
        hist = snapshot["histograms"]["engine.session_duration_s"]
        assert hist["count"] == len(results)

    def test_disabled_telemetry_records_nothing(self, obs_orders):
        set_enabled(False)
        registry = MetricsRegistry()
        with use_registry(registry):
            BatchRunner(backend="lockstep").run_orders(obs_orders)
        snapshot = registry.snapshot()
        assert snapshot["spans"] == {}
        assert "engine.orders_completed" not in snapshot["counters"]

    def test_serial_and_lockstep_deterministic_metrics_agree(self, obs_orders):
        _, serial = _run_with_telemetry(
            BatchRunner(backend="serial"), obs_orders
        )
        _, lockstep = _run_with_telemetry(
            BatchRunner(backend="lockstep"), obs_orders
        )
        assert (
            serial["counters"]["engine.orders_completed"]
            == lockstep["counters"]["engine.orders_completed"]
        )
        # Simulated seconds, not wall clock: bit-identical across backends.
        assert (
            serial["histograms"]["engine.session_duration_s"]
            == lockstep["histograms"]["engine.session_duration_s"]
        )


# --------------------------------------------------------- fault-log metrics

class TestFaultLogMetrics:
    def test_publish_counters(self):
        log = FaultLog()
        log.serial_fallbacks = 3
        log.worker_crashes = 1
        registry = MetricsRegistry()
        log.publish_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["faults.serial_fallbacks"] == 3.0
        assert snapshot["counters"]["faults.worker_crashes"] == 1.0
        assert "faults.quarantined" not in snapshot["counters"]

    def test_publish_is_incremental(self):
        """Registry totals track log totals across repeated publishes —
        the metrics/FaultLog consistency contract."""
        log = FaultLog()
        registry = MetricsRegistry()
        log.serial_fallbacks = 2
        log.publish_metrics(registry)
        log.serial_fallbacks = 5
        log.quarantined = 1
        log.publish_metrics(registry)
        log.publish_metrics(registry)  # no new faults: no double count
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["faults.serial_fallbacks"] == log.serial_fallbacks == 5
        assert counters["faults.quarantined"] == log.quarantined == 1

    def test_healthy_log_publishes_nothing(self):
        registry = MetricsRegistry()
        FaultLog().publish_metrics(registry)
        snapshot = registry.snapshot()
        assert not snapshot["counters"]
        assert not snapshot["histograms"]


# ------------------------------------------------------------- cache metrics

class TestCellCacheMetrics:
    def test_hits_and_misses_counted_when_enabled(self, tmp_path):
        from repro.experiments.results import CellCache

        cache = CellCache(tmp_path / "cells")
        registry = MetricsRegistry()
        set_enabled(True)
        with use_registry(registry):
            assert cache.get("k") is None          # miss
            cache.put("k", 42)
            assert cache.get("k") == 42            # hit
        snapshot = registry.snapshot()
        assert snapshot["counters"]["cells.misses"] == 1.0
        assert snapshot["counters"]["cells.hits"] == 1.0
        assert snapshot["spans"]["cells.get"]["count"] == 2
        assert snapshot["spans"]["cells.put"]["count"] == 1
        # The cache's own bookkeeping is unchanged by telemetry.
        assert (cache.hits, cache.misses) == (1, 1)

    def test_no_counters_when_disabled(self, tmp_path):
        from repro.experiments.results import CellCache

        cache = CellCache(tmp_path / "cells")
        registry = MetricsRegistry()
        set_enabled(False)
        with use_registry(registry):
            cache.get("k")
            cache.put("k", 1)
            cache.get("k")
        snapshot = registry.snapshot()
        assert not snapshot["counters"]
        assert not snapshot["spans"]


# ------------------------------------------------------------------ plan cache

class TestPlanCacheMetrics:
    def test_collector_publishes_gauges(self):
        from repro.abr.planner import enumerate_level_sequences

        clear_plan_cache()
        enumerate_level_sequences(3, 2)
        enumerate_level_sequences(3, 2)
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["gauges"]["plan_cache.misses"] >= 1.0
        assert snapshot["gauges"]["plan_cache.hits"] >= 1.0
        assert snapshot["gauges"]["plan_cache.currsize"] >= 1.0


# ---------------------------------------------------------------- CLI profile

class TestProfileCommand:
    @pytest.mark.slow
    def test_profile_json_smoke(self, tmp_path, capsys):
        from repro.experiments.cli import main

        events = tmp_path / "run.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main([
            "profile", "headline", "--scale", "tiny", "--json",
            "--events", str(events), "--prom", str(prom),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "headline"
        assert payload["phases"]["dispatch_s"] > 0.0
        assert payload["phases"]["planner_kernel_s"] > 0.0
        assert payload["started_at"]
        assert payload["duration_s"] > 0.0
        for line in events.read_text().splitlines():
            json.loads(line)
        assert "repro_span_seconds_total" in prom.read_text()
        # Profiling must not leave tracing on for the rest of the process.
        assert trace_mod.TRACE.enabled is False
