"""Engine-wide telemetry: metrics registry, span tracing, export sinks.

The observability layer the compiled-kernel and decision-service roadmap
items land against (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — the process-local
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms, span accumulators) with a plain JSON-able
  snapshot that diffs like ``FaultLog`` deltas.
* :mod:`repro.obs.trace` — ``trace_span("planner.kernel")`` phase tracing
  on the monotonic clock, off by default with a one-attribute-check no-op
  fast path and a ≤2% enabled overhead budget asserted by the perf
  harness and CI.
* :mod:`repro.obs.sinks` — JSONL event logs, Prometheus-textfile export
  and the phase-breakdown table behind ``python -m repro profile``.

Zero dependencies by design: nothing here imports numpy, the engine or
the faults layer, so every layer of the engine can import ``repro.obs``
without cycles.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_MICRO_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    get_registry,
    register_collector,
    use_registry,
)
from repro.obs.sinks import (
    ROOT_SPAN,
    phase_table,
    run_events,
    to_prometheus,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.trace import (
    TRACE,
    is_enabled,
    record_span,
    set_enabled,
    trace_span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_MICRO_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "MetricsRegistry",
    "ROOT_SPAN",
    "TRACE",
    "diff_snapshots",
    "get_registry",
    "is_enabled",
    "phase_table",
    "record_span",
    "register_collector",
    "run_events",
    "set_enabled",
    "to_prometheus",
    "trace_span",
    "use_registry",
    "write_events_jsonl",
    "write_prometheus",
]
