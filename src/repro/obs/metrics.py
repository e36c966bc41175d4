"""The process-local :class:`MetricsRegistry`: counters, gauges, histograms.

Design contract (mirroring :class:`repro.faults.log.FaultLog`):

* **Process-local, zero-dependency.**  A registry is a plain-Python bag of
  counters, gauges, fixed-bucket histograms and span accumulators.  No
  threads, no sockets, no third-party clients — sinks that speak external
  formats live in :mod:`repro.obs.sinks`.
* **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
  plain JSON-able dict, and :func:`merge_snapshots` /
  :meth:`MetricsRegistry.merge_snapshot` fold snapshots together the same
  way :func:`repro.faults.log.merge_counter_dicts` folds fault counters:
  counters, histogram bucket counts and span totals add; gauges take the
  most recent value.  That is exactly what lets a per-worker registry
  travel back over the process-backend shard boundary
  (:func:`repro.engine.runner._execute_shard` returns one snapshot per
  shard) and land in the parent's registry without loss.
* **Deltas by diffing.**  Long-lived owners take a snapshot before a run
  and :func:`diff_snapshots` after — the registry itself never resets
  under a reader's feet (same discipline as ``FaultLog.snapshot()`` /
  ``.since()``).

The *active* registry is module-level state: hot paths record into
:func:`get_registry` and callers scope a private registry with
:func:`use_registry`.  Registries are not thread-safe — the engine is
process-parallel, never thread-parallel, and each worker process owns its
own registry.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_MICRO_LATENCY_BUCKETS_S",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "get_registry",
    "merge_snapshots",
    "register_collector",
    "use_registry",
]

#: Default latency bucket upper bounds, in seconds (an implicit +inf bucket
#: always follows the last bound).  Spans from sub-millisecond kernel calls
#: to multi-minute training rounds land in a resolvable bucket.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Bucket bounds for sub-millisecond request latencies (the decision
#: service's p50 lives in the tens of microseconds once batching warms
#: up).  The phase-scale :data:`DEFAULT_LATENCY_BUCKETS_S` would dump the
#: whole distribution into its first two buckets.
DEFAULT_MICRO_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Default size/duration bucket bounds for non-latency quantities
#: (simulated session seconds, rollout steps, …).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    #: Prometheus-style alias; both names appear in client idiom.
    add = inc


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram (cumulative export, Prometheus-style).

    ``buckets`` are the finite upper bounds; one implicit +inf bucket
    follows.  ``counts[i]`` is the number of observations with
    ``value <= buckets[i]`` (non-cumulative storage; the Prometheus sink
    cumulates on export).
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r} buckets must be "
                             f"strictly increasing: {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


#: Collectors registered process-wide: callables invoked with the registry
#: being snapshotted, so lazily-computed stats (e.g. the planner's
#: ``lru_cache`` candidate-tree memo) are published exactly once, at
#: snapshot time, by the module that owns them.
_COLLECTORS: List[Callable[["MetricsRegistry"], None]] = []


def register_collector(collector: Callable[["MetricsRegistry"], None]) -> None:
    """Register a snapshot-time collector (idempotent per callable)."""
    if collector not in _COLLECTORS:
        _COLLECTORS.append(collector)


class MetricsRegistry:
    """One process-local bag of metrics with a mergeable snapshot format."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_spans")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Span accumulators: name -> [count, total_s, max_s].  Kept as raw
        # lists (not objects) because span recording is the hottest write
        # path in the subsystem.
        self._spans: Dict[str, List[float]] = {}

    # ------------------------------------------------------------ instruments

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def counter_value(self, name: str) -> float:
        """A counter's value, 0 when never recorded (without creating it)."""
        found = self._counters.get(name)
        return 0.0 if found is None else found.value

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram for ``name``, created on first use.

        ``buckets`` sets per-metric bounds at creation; re-requesting an
        existing histogram with *different* explicit bounds is a bucket
        mismatch and raises (``buckets=None`` always accepts whatever the
        histogram was created with).
        """
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(
                name, buckets if buckets is not None
                else DEFAULT_LATENCY_BUCKETS_S,
            )
        elif buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if bounds != found.buckets:
                raise ValueError(
                    f"histogram {name!r} bucket mismatch: registered with "
                    f"{found.buckets}, requested {bounds}"
                )
        return found

    def record_span(self, name: str, seconds: float) -> None:
        """Fold one completed span into the accumulator for ``name``."""
        entry = self._spans.get(name)
        if entry is None:
            self._spans[name] = [1, seconds, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
            if seconds > entry[2]:
                entry[2] = seconds

    # -------------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, object]:
        """A plain JSON-able dict of everything recorded so far.

        Registered collectors run first (against this registry), so
        pull-style stats are as fresh as the snapshot that reports them.
        """
        for collector in _COLLECTORS:
            collector(self)
        return {
            "counters": {
                name: counter.value
                for name, counter in self._counters.items()
            },
            "gauges": {
                name: gauge.value for name, gauge in self._gauges.items()
            },
            "histograms": {
                name: {
                    "buckets": list(hist.buckets),
                    "counts": list(hist.counts),
                    "sum": hist.sum,
                    "count": hist.count,
                }
                for name, hist in self._histograms.items()
            },
            "spans": {
                name: {"count": int(entry[0]), "total_s": entry[1],
                       "max_s": entry[2]}
                for name, entry in self._spans.items()
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold a snapshot (e.g. one returned by a pool worker) into this
        live registry — the metrics equivalent of merging FaultLog deltas."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, buckets=payload["buckets"])
            if list(hist.buckets) != [float(b) for b in payload["buckets"]]:
                raise ValueError(
                    f"histogram {name!r} bucket mismatch on merge: "
                    f"{hist.buckets} vs {payload['buckets']}"
                )
            for index, count in enumerate(payload["counts"]):
                hist.counts[index] += count
            hist.sum += payload["sum"]
            hist.count += payload["count"]
        for name, payload in snapshot.get("spans", {}).items():
            entry = self._spans.get(name)
            if entry is None:
                self._spans[name] = [
                    payload["count"], payload["total_s"], payload["max_s"]
                ]
            else:
                entry[0] += payload["count"]
                entry[1] += payload["total_s"]
                if payload["max_s"] > entry[2]:
                    entry[2] = payload["max_s"]

    def clear(self) -> None:
        """Drop everything recorded (tests and scoped profiling runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()


def merge_snapshots(*snapshots: Dict[str, object]) -> Dict[str, object]:
    """Key-wise merge of snapshots: counters/histograms/spans add, gauges
    take the last snapshot's value (point-in-time semantics)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    # merge_snapshot re-runs no collectors (they are snapshot-time hooks on
    # *live* registries); export through the raw structure instead.
    payload = merged.snapshot()
    return payload


def diff_snapshots(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """What accumulated between two snapshots of the same registry.

    Counters, histogram counts/sums and span totals subtract; gauges take
    the ``after`` value (a gauge has no meaningful delta).  ``max_s`` also
    takes the ``after`` value — a conservative upper bound for the window.
    """
    result: Dict[str, object] = {
        "counters": {}, "gauges": {}, "histograms": {}, "spans": {},
    }
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        delta = value - before_counters.get(name, 0.0)
        if delta:
            result["counters"][name] = delta
    result["gauges"] = dict(after.get("gauges", {}))
    before_hists = before.get("histograms", {})
    for name, payload in after.get("histograms", {}).items():
        prior = before_hists.get(
            name, {"counts": [0] * len(payload["counts"]), "sum": 0.0,
                   "count": 0},
        )
        counts = [
            now - then
            for now, then in zip(payload["counts"], prior["counts"])
        ]
        if any(counts):
            result["histograms"][name] = {
                "buckets": list(payload["buckets"]),
                "counts": counts,
                "sum": payload["sum"] - prior["sum"],
                "count": payload["count"] - prior["count"],
            }
    before_spans = before.get("spans", {})
    for name, payload in after.get("spans", {}).items():
        prior = before_spans.get(name, {"count": 0, "total_s": 0.0})
        count = payload["count"] - prior["count"]
        if count:
            result["spans"][name] = {
                "count": count,
                "total_s": payload["total_s"] - prior["total_s"],
                "max_s": payload["max_s"],
            }
    return result


#: The process-default registry — what :func:`get_registry` returns unless
#: a caller has scoped a private one with :func:`use_registry`.
_DEFAULT = MetricsRegistry()
_ACTIVE: MetricsRegistry = _DEFAULT


def get_registry() -> MetricsRegistry:
    """The registry hot paths record into right now."""
    return _ACTIVE


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the active one (profiling runs, workers,
    tests).  Restores the previous registry on exit, exception or not."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
