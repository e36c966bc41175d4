"""The :class:`FaultLog`: per-run accounting of faults seen and survived.

Every recovery mechanism in the execution layer — lockstep shards re-run
serially, quarantined artifacts — increments a counter here, so "the run
succeeded" and "the run succeeded after recovering from three shard
crashes" are distinguishable after the fact.  The log is stamped into ``ResultSet`` metadata
(:func:`repro.experiments.registry.run`), the training summary
(:func:`repro.training.pipeline.train_policies`) and ``BENCH_engine.json``
(:class:`repro.engine.report.BenchReport`), so a chaos-free run carries an
all-zero log and a chaotic one documents exactly what it survived.

Counters are cumulative over the owner's lifetime; callers that need
per-run numbers take a :meth:`FaultLog.snapshot` before and diff with
:meth:`FaultLog.since` after (that is what the registry does around each
experiment run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class ShardRecoveryWarning(RuntimeWarning):
    """A shard of work failed and was recovered (re-run serially).

    Results are still correct — recovery re-executes deterministic work —
    but the failure itself deserves attention.  The test suite promotes
    this warning to an error outside the chaos tests (``pytest.ini``), so
    an *unexpected* recovery can never silently paper over an engine bug.
    """


class IntegrityWarning(UserWarning):
    """A persistent artifact failed an integrity check and was quarantined.

    The corrupt file has been moved to the store's ``quarantine/``
    directory (with a reason record) and the value will be recomputed or —
    where recomputation is impossible, e.g. checkpoints — the load fails
    loudly right after this warning.
    """


#: The integer counters a :class:`FaultLog` tracks, in reporting order.
COUNTER_FIELDS = (
    "serial_fallbacks",
    "worker_crashes",
    "quarantined",
)


@dataclass
class FaultLog:
    """Counters + an event trail for one execution-layer owner.

    Attributes
    ----------
    serial_fallbacks: lockstep shards that raised and were re-run through
        the serial reference path.
    worker_crashes: injected crashes (``raise_in_shard``) among those.
    quarantined: corrupt persistent files moved to a ``quarantine/``
        directory by an integrity check.
    events: human-readable trail of what fired, in order.
    """

    serial_fallbacks: int = 0
    worker_crashes: int = 0
    quarantined: int = 0
    events: List[str] = field(default_factory=list)
    #: Counter values already pushed to a metrics registry by
    #: :meth:`publish_metrics` (so repeated publishes emit deltas only).
    _published: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------- recording

    def record(self, event: str) -> None:
        """Append one human-readable event to the trail."""
        self.events.append(event)

    # ------------------------------------------------------------- reporting

    def counters(self) -> Dict[str, int]:
        """The numeric counters as a plain (JSON-able) dict."""
        return {name: int(getattr(self, name)) for name in COUNTER_FIELDS}

    def as_dict(self) -> Dict[str, object]:
        """Counters plus the event trail (what reports embed)."""
        payload: Dict[str, object] = dict(self.counters())
        payload["events"] = list(self.events)
        return payload

    def any_faults(self) -> bool:
        """Whether any counter is non-zero."""
        return any(value for value in self.counters().values())

    # ----------------------------------------------------------- per-run math

    def snapshot(self) -> Dict[str, int]:
        """Current counter values, for later diffing with :meth:`since`."""
        return self.counters()

    def since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas accumulated after ``snapshot`` was taken."""
        return {
            key: int(value - snapshot.get(key, 0))
            for key, value in self.counters().items()
        }

    # ------------------------------------------------------------- telemetry

    def publish_metrics(self, registry=None, prefix: str = "faults") -> None:
        """Fold this log's counters into a metrics registry.

        Emits one ``<prefix>.<counter>`` counter per fault kind.
        Incremental: only the deltas accumulated since the last
        :meth:`publish_metrics` call are pushed, so publishing after every run (as the experiment
        registry does) keeps registry totals equal to log totals without
        double-counting.  ``registry`` defaults to the active one.
        """
        # Lazy import: repro.obs must stay importable from everywhere,
        # including this module's importers, without a cycle.
        from repro.obs.metrics import get_registry

        if registry is None:
            registry = get_registry()
        delta = self.since(self._published)
        for name in COUNTER_FIELDS:
            count = int(delta.get(name, 0))
            if count:
                registry.counter(f"{prefix}.{name}").inc(count)
        self._published = self.counters()


def merge_counter_dicts(*deltas: Dict[str, int]) -> Dict[str, int]:
    """Key-wise sum of counter dicts (runner log + store log, say)."""
    merged: Dict[str, int] = {name: 0 for name in COUNTER_FIELDS}
    for delta in deltas:
        for key, value in delta.items():
            merged[key] = merged.get(key, 0) + value
    return merged
