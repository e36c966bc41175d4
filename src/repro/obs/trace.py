"""Span-based phase tracing with a hard overhead budget.

A *span* is one timed region of a named phase — ``planner.kernel`` around
one :func:`~repro.abr.planner.evaluate_candidates_batch` call,
``player.step`` around one SoA chunk step, ``engine.dispatch`` around a
whole :meth:`~repro.engine.runner.BatchRunner.run_orders` — measured on the
monotonic clock (``time.perf_counter``) and folded into the active
:class:`~repro.obs.metrics.MetricsRegistry` as (count, total seconds, max
seconds) per name.  Spans nest freely; totals are *inclusive* (a parent's
total contains its children), which is why the canonical phase names used
for share arithmetic (see :func:`repro.engine.report.phases_from_snapshot`)
are chosen so the leaves never overlap.

Overhead budget
---------------
Tracing is **off by default** and its disabled fast path is one attribute
check (``if TRACE.enabled:`` against a slotted module singleton) — cheap
enough to sit inside ``evaluate_candidates_batch`` and ``ShardState.step``,
the two hottest call sites in the engine.  Enabled, a span costs two
``perf_counter`` calls plus one dict update; the perf harness and the CI
``obs-smoke`` job assert the end-to-end cost stays within 2% of the
telemetry-off wall clock (plus a small absolute noise floor for sub-second
grids — see ``benchmarks/test_perf_engine.py``).

Hot paths use the manual pattern (no context-manager allocation)::

    from repro.obs.trace import TRACE, record_span
    ...
    if TRACE.enabled:
        _t0 = perf_counter()
    ...  # the hot region
    if TRACE.enabled:
        record_span("planner.kernel", perf_counter() - _t0)

Cooler paths use the :func:`trace_span` context manager, which returns a
shared no-op object when tracing is disabled.

Enable programmatically with :func:`set_enabled` (it returns the previous
state, so callers can restore it in ``finally``) or by exporting
``REPRO_TELEMETRY=1`` before the process starts.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.obs.metrics import get_registry

__all__ = [
    "TRACE",
    "is_enabled",
    "record_span",
    "set_enabled",
    "trace_span",
]


class _TraceState:
    """Module singleton holding the enabled flag (slotted: the disabled
    fast-path check is a single attribute load on this object)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


TRACE = _TraceState()
TRACE.enabled = os.environ.get("REPRO_TELEMETRY", "").strip() not in (
    "", "0", "false", "no",
)


def is_enabled() -> bool:
    """Whether span tracing is currently on."""
    return TRACE.enabled


def set_enabled(enabled: bool) -> bool:
    """Turn span tracing on/off; returns the *previous* state so callers
    can restore it in a ``finally`` block."""
    previous = TRACE.enabled
    TRACE.enabled = bool(enabled)
    return previous


def record_span(name: str, seconds: float) -> None:
    """Fold one completed span into the active registry."""
    get_registry().record_span(name, seconds)


class _Span:
    __slots__ = ("name", "t0")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Span":
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        # Record even when the region raised: partial phase time is real
        # wall clock and the registry must not under-report a failing run.
        get_registry().record_span(self.name, perf_counter() - self.t0)


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP = _NoopSpan()


def trace_span(name: str):
    """A context manager timing one region under ``name``.

    Returns a shared no-op object when tracing is disabled, so sprinkling
    spans through warm (not hot) paths costs one function call and one
    ``with`` on a slotted empty object.
    """
    if not TRACE.enabled:
        return _NOOP
    return _Span(name)
