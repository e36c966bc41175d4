"""BatchRunner: ordered execution of (ABR, video, trace) work orders.

The experiment harness reduces to one primitive: run a list of streaming
sessions and collect their :class:`~repro.player.session.StreamResult`s in a
deterministic order.  :class:`BatchRunner` provides exactly that primitive
with two interchangeable backends:

* ``serial`` — runs orders in submission order, in process, reusing the ABR
  instances it is given.  This is byte-for-byte the seed behaviour and the
  independent reference every equivalence check compares against.
* ``lockstep`` — runs orders through the lockstep multi-session core
  (:mod:`repro.engine.lockstep`): whole shards of sessions advance chunk
  by chunk as structure-of-arrays state (:mod:`repro.player.shard` —
  batched download integrals, masked buffer/stall evolution, shared
  history rings) and the planner is evaluated across sessions — and
  across compatible ABR instances — as batched tensors.  Results are
  bit-identical to ``serial`` (``tests/test_lockstep.py``, the golden
  masters and the property/fuzz layers — see ``docs/TESTING.md``); this
  is the default (:meth:`BatchRunner.auto`).

A lockstep shard that raises is re-run through the serial reference path,
so a fault degrades throughput, never correctness; every recovery is
counted in the runner's :class:`~repro.faults.log.FaultLog`
(``runner.fault_log``), which the experiment registry stamps into
``ResultSet`` metadata.  Deterministic chaos tests drive that path through
:mod:`repro.faults` fault plans (``docs/ROBUSTNESS.md``).

Result ordering always matches submission ordering, whichever backend ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.faults.log import FaultLog, merge_counter_dicts
from repro.network.trace import ThroughputTrace
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.obs.trace import TRACE, trace_span
from repro.player.session import SessionConfig, StreamingSession, StreamResult
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Supported backends.
BACKENDS = ("serial", "lockstep")


@dataclass
class WorkOrder:
    """One streaming session to run.

    Attributes
    ----------
    abr: the ABR algorithm instance (reset at session start).
    encoded: the video to stream.
    trace: the throughput trace to stream over.
    config: optional player configuration.
    chunk_weights: optional per-chunk sensitivity weights.
    exploration_seed: optional per-order RNG seed for exploration-mode RL
        policies.  When set, the order reseeds the agent's exploration
        stream (``agent.reseed_exploration``) immediately before the
        session runs, making the trajectory a pure function of
        (checkpoint, seed) — independent of execution order.  That is the
        contract that lets the lockstep core batch exploration-mode RL:
        it gives each row its own ``rng_from_seed(exploration_seed)``
        stream and reproduces this serial path bit for bit.  Orders whose
        ABR has no exploration stream ignore the field.
    """

    abr: ABRAlgorithm
    encoded: EncodedVideo
    trace: ThroughputTrace
    config: Optional[SessionConfig] = None
    chunk_weights: Optional[np.ndarray] = None
    exploration_seed: Optional[int] = None

    def run(self) -> StreamResult:
        """Execute the order and return the session result."""
        if self.exploration_seed is not None:
            agent = getattr(self.abr, "agent", None)
            if agent is not None and hasattr(agent, "reseed_exploration"):
                agent.reseed_exploration(int(self.exploration_seed))
        session = StreamingSession(
            encoded=self.encoded,
            trace=self.trace,
            abr=self.abr,
            config=self.config,
            chunk_weights=self.chunk_weights,
        )
        return session.run()


def _execute_order(order: WorkOrder) -> StreamResult:
    """Run one order (the serial backend's per-item function)."""
    return order.run()


def _observe_session_results(results: Sequence[StreamResult]) -> None:
    """Fold finished sessions into the active registry (telemetry on only).

    The observed quantities are *simulated* (deterministic), so the serial
    and lockstep backends report identical totals — the invariant
    ``tests/test_obs.py`` asserts.
    """
    if not TRACE.enabled:
        return
    registry = get_registry()
    registry.counter("engine.orders_completed").add(len(results))
    histogram = registry.histogram(
        "engine.session_duration_s", buckets=DEFAULT_SIZE_BUCKETS
    )
    for result in results:
        histogram.observe(result.session_duration_s)


class BatchRunner:
    """Runs work orders through the serial or the lockstep backend.

    Parameters
    ----------
    backend:
        ``"serial"`` (the reference) or ``"lockstep"`` (the default of
        :meth:`auto`).
    """

    def __init__(self, backend: str = "serial") -> None:
        require(backend in BACKENDS,
                f"backend must be one of {BACKENDS}, got {backend!r}")
        self.backend = backend
        #: Cumulative recovery accounting for this runner's lifetime;
        #: per-run deltas via ``fault_log.snapshot()`` / ``.since()``.
        self.fault_log = FaultLog()

    @classmethod
    def auto(cls) -> "BatchRunner":
        """The lockstep runner: bit-identical to serial and the fastest."""
        return cls(backend="lockstep")

    @staticmethod
    def merge_fault_logs(*runners: "BatchRunner") -> Dict[str, object]:
        """Merged fault-log dict across runners (what bench reports embed)."""
        merged: Dict[str, object] = dict(
            merge_counter_dicts(
                *(runner.fault_log.counters() for runner in runners)
            )
        )
        events: List[str] = []
        for runner in runners:
            events.extend(runner.fault_log.events)
        merged["events"] = events
        return merged

    # ------------------------------------------------------------------ API

    def run_orders(self, orders: Sequence[WorkOrder]) -> List[StreamResult]:
        """Run every order; results align index-for-index with ``orders``.

        The whole dispatch — whichever backend runs it — is timed under
        the ``engine.dispatch`` root span, the denominator every phase
        share in ``BENCH_engine.json`` and ``repro profile`` is computed
        against.
        """
        orders = list(orders)
        if not orders:
            return []
        with trace_span("engine.dispatch"):
            if self.backend == "lockstep":
                from repro.engine.lockstep import run_orders_lockstep

                return run_orders_lockstep(orders, fault_log=self.fault_log)
            results = self.map_ordered(_execute_order, orders)
            # Lockstep runs observe inside run_orders_lockstep; the serial
            # loop is the one path that must observe here.
            _observe_session_results(results)
            return results

    def map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> List[_R]:
        """Apply ``fn`` to every item in order, under the ``engine.map``
        span (lockstep only accelerates :meth:`run_orders`, where the work
        is known to be streaming sessions)."""
        with trace_span("engine.map"):
            return [fn(item) for item in items]


def orders_for_grid(
    abrs: Sequence[ABRAlgorithm],
    videos: Sequence[EncodedVideo],
    traces: Sequence[ThroughputTrace],
    config: Optional[SessionConfig] = None,
    weights_by_video: Optional[dict] = None,
) -> List[Tuple[Tuple[str, str, str], WorkOrder]]:
    """Work orders for every (ABR, video, trace) combination.

    Iteration order matches the seed ``simulate_many`` loop (ABR outermost,
    trace innermost) so serial execution reproduces it exactly.  Each entry
    pairs the ``(abr_name, video_id, trace_name)`` key with its order.
    """
    weights_by_video = weights_by_video or {}
    keyed: List[Tuple[Tuple[str, str, str], WorkOrder]] = []
    for abr in abrs:
        for encoded in videos:
            weights = weights_by_video.get(encoded.source.video_id)
            for trace in traces:
                keyed.append(
                    (
                        (abr.name, encoded.source.video_id, trace.name),
                        WorkOrder(
                            abr=abr,
                            encoded=encoded,
                            trace=trace,
                            config=config,
                            chunk_weights=weights,
                        ),
                    )
                )
    return keyed
