"""The always-on ABR decision service.

:class:`DecisionService` is the asyncio front door that turns the offline
batch engine into a long-lived system: many concurrent sessions hold their
:class:`~repro.player.session.SessionState` in the
:class:`~repro.service.sessions.SessionTable`, ``decide()`` calls coalesce
in the :class:`~repro.service.batcher.AdaptiveBatcher`'s micro-batching
window, and every flush answers the whole window from one batched planner
dispatch (:func:`~repro.service.decisions.decide_batch` →
:func:`~repro.engine.lockstep.plan_batch` → the shared
``evaluate_candidates_batch`` kernel).  Because the kernel is elementwise
over the batch axis, the decisions a session receives online are
bit-identical to the serial ``StreamingSession.run`` it would have seen
offline — the golden contract the service test suite asserts across the
whole non-RL ABR zoo.

Admission is weighted-fair (:class:`WeightedFairScheduler`): under
saturation, tenants receive kernel slots in proportion to their weights,
and requests the scheduler sheds (backlog overflow or admission timeout)
receive an explicit **degraded** fallback — level 0, never a stall —
applied to the session like any other decision, so the session keeps
making progress at floor quality instead of blocking.  A degraded
decision is the one place online may diverge from offline; the response
flags it and per-session/tenant counters record it (degraded-mode
contract in docs/SERVICE.md).

The operational surface rides the PR 7 obs subsystem: request-latency and
batch-size histograms, per-tenant decision/degraded counters, queue-depth
gauges, and a pull-style :meth:`health` snapshot.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision
from repro.engine.runner import BatchRunner
from repro.network.trace import ThroughputTrace
from repro.obs import get_registry
from repro.obs.metrics import DEFAULT_MICRO_LATENCY_BUCKETS_S
from repro.player.session import SessionConfig, StreamResult
from repro.service.batcher import AdaptiveBatcher
from repro.service.decisions import decide_batch
from repro.service.fairsched import WeightedFairScheduler
from repro.service.sessions import SessionEntry, SessionTable
from repro.video.encoder import EncodedVideo

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DecisionResponse",
    "DecisionService",
    "SessionEvictedError",
]

#: Bucket bounds for the flush-size histogram (upper bound 64 covers any
#: sane micro-batch window; +Inf catches the rest).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class SessionEvictedError(KeyError):
    """The session was evicted while its request was in flight."""


@dataclass(frozen=True)
class DecisionResponse:
    """One answered ``decide()`` call.

    ``degraded`` marks a load-shed fallback (level 0, not planner
    output); ``batch_size`` is the flush this decision was answered in
    (0 for degraded responses, which never reach the planner).
    """

    tenant: str
    session_id: str
    chunk_index: int
    level: int
    proactive_stall_s: float
    degraded: bool
    done: bool
    batch_size: int
    latency_s: float


class _Pending:
    """One request travelling through the batching window."""

    __slots__ = ("entry", "enqueued_at")

    def __init__(self, entry: SessionEntry, enqueued_at: float) -> None:
        self.entry = entry
        self.enqueued_at = enqueued_at


class DecisionService:
    """Register sessions, answer ``decide()`` online, stay bit-identical."""

    def __init__(
        self,
        table: Optional[SessionTable] = None,
        scheduler: Optional[WeightedFairScheduler] = None,
        max_batch: int = 16,
        max_delay_s: float = 0.002,
        capacity: Optional[int] = None,
        shed_timeout_s: Optional[float] = 0.05,
        max_backlog_per_tenant: int = 64,
        runner: Optional[BatchRunner] = None,
    ) -> None:
        self.table = table if table is not None else SessionTable()
        if scheduler is None:
            scheduler = WeightedFairScheduler(
                capacity=capacity if capacity is not None else max_batch,
                max_backlog=max_backlog_per_tenant,
            )
        self.scheduler = scheduler
        self.batcher = AdaptiveBatcher(
            self._execute_flush, max_batch=max_batch, max_delay_s=max_delay_s,
        )
        self.shed_timeout_s = shed_timeout_s
        self._runner = runner
        self._closed = False
        self._started_at = time.time()

    # -------------------------------------------------------------- sessions

    def register(
        self,
        tenant: str,
        session_id: str,
        abr: ABRAlgorithm,
        encoded: EncodedVideo,
        trace: ThroughputTrace,
        config: Optional[SessionConfig] = None,
        chunk_weights: Optional[np.ndarray] = None,
        weight: Optional[float] = None,
    ) -> SessionEntry:
        """Register a session; ``weight`` also (re)sets the tenant weight."""
        self._require_open()
        entry = self.table.register(
            tenant, session_id, abr=abr, encoded=encoded, trace=trace,
            config=config, chunk_weights=chunk_weights,
        )
        if weight is not None:
            self.scheduler.set_weight(tenant, weight)
        metrics = get_registry()
        metrics.counter("service.sessions_registered").inc()
        metrics.gauge("service.sessions").set(len(self.table))
        return entry

    def evict(self, tenant: str, session_id: str) -> SessionEntry:
        """Evict a session; in-flight requests for it fail explicitly."""
        entry = self.table.evict(tenant, session_id)
        metrics = get_registry()
        metrics.counter("service.sessions_evicted").inc()
        metrics.gauge("service.sessions").set(len(self.table))
        return entry

    def set_tenant_weight(self, tenant: str, weight: float) -> None:
        self.scheduler.set_weight(tenant, weight)

    # --------------------------------------------------------------- decide

    async def decide(self, tenant: str, session_id: str) -> DecisionResponse:
        """Decide the next chunk's level for one session.

        Admission-gated by the fair scheduler; granted requests coalesce
        in the micro-batching window and are answered from a batched
        planner flush.  Shed requests get the degraded fallback.
        """
        self._require_open()
        entry = self.table.get(tenant, session_id)
        if entry.done:
            raise ValueError(
                f"session {(tenant, session_id)} already finished"
            )
        if entry.in_flight:
            raise RuntimeError(
                f"session {(tenant, session_id)} already has a decide() in "
                f"flight; the per-session protocol is strictly sequential"
            )
        entry.in_flight = True
        start = time.perf_counter()
        try:
            granted = await self.scheduler.acquire(
                tenant, timeout=self.shed_timeout_s
            )
            if not granted:
                return self._degraded_response(entry, start)
            try:
                response = await self.batcher.submit(_Pending(entry, start))
            finally:
                await self.scheduler.release(tenant)
        finally:
            entry.in_flight = False
        self._observe_queue_depth()
        return response

    async def close(self) -> None:
        """Drain in-flight flushes and stop accepting work.

        Idempotent.  Waiters still in the window are answered by the
        drain flush.
        """
        if self._closed:
            return
        self._closed = True
        await self.batcher.drain()

    async def __aenter__(self) -> "DecisionService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # --------------------------------------------------------------- offline

    def offline_result(self, entry: SessionEntry) -> StreamResult:
        """Re-run a session offline for the golden online ≡ offline check.

        Uses the untouched original ABR instance through the stock
        :class:`WorkOrder` path on a service-owned runner, exactly like a
        grid cell.
        """
        runner = self._ensure_runner()
        return runner.run_orders([entry.work_order()])[0]

    def _ensure_runner(self) -> BatchRunner:
        if self._runner is None:
            self._require_open()
            self._runner = BatchRunner(backend="serial")
        return self._runner

    # ---------------------------------------------------------------- health

    def health(self) -> Dict[str, object]:
        """A pull-style operational snapshot (also the TCP ``health`` op)."""
        return {
            "status": "closed" if self._closed else "ok",
            "uptime_s": round(time.time() - self._started_at, 3),
            "sessions": len(self.table),
            "sessions_by_tenant": self.table.tenant_counts(),
            "scheduler": {
                "capacity": self.scheduler.capacity,
                "in_flight": self.scheduler.in_flight,
                "queue_depth": self.scheduler.queue_depth(),
                "tenants": self.scheduler.stats(),
            },
            "batcher": self.batcher.stats(),
        }

    # ------------------------------------------------------------- internals

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("DecisionService is closed")

    def _degraded_response(
        self, entry: SessionEntry, start: float
    ) -> DecisionResponse:
        """The load-shed fallback: floor quality, never a stall.

        Applied to the session like any planner decision, so a shed
        request degrades quality instead of stalling progress.  This is
        the one path where online diverges from offline; the response and
        the per-tenant counters make that explicit.
        """
        chunk_index = entry.state.chunk_index
        entry.state.apply(Decision(level=0))
        entry.decisions += 1
        entry.degraded += 1
        done = entry.done
        if done:
            entry.finalize()
        latency = time.perf_counter() - start
        metrics = get_registry()
        metrics.counter("service.decisions_total").inc()
        metrics.counter("service.degraded_total").inc()
        metrics.counter(f"service.tenant.{entry.tenant}.decisions").inc()
        metrics.counter(f"service.tenant.{entry.tenant}.degraded").inc()
        metrics.histogram(
            "service.request_latency_s", DEFAULT_MICRO_LATENCY_BUCKETS_S
        ).observe(latency)
        self._observe_queue_depth()
        return DecisionResponse(
            tenant=entry.tenant,
            session_id=entry.session_id,
            chunk_index=chunk_index,
            level=0,
            proactive_stall_s=0.0,
            degraded=True,
            done=done,
            batch_size=0,
            latency_s=latency,
        )

    def _observe_queue_depth(self) -> None:
        metrics = get_registry()
        metrics.gauge("service.queue_depth").set(self.scheduler.queue_depth())
        metrics.gauge("service.in_flight").set(self.scheduler.in_flight)

    def _execute_flush(self, pending: List[_Pending]) -> List[object]:
        """Answer one micro-batch window (runs synchronously on the loop)."""
        metrics = get_registry()
        results: List[object] = [None] * len(pending)
        live: List[int] = []
        requests = []
        for index, item in enumerate(pending):
            entry = item.entry
            if entry.evicted:
                results[index] = SessionEvictedError(entry.key)
                continue
            if entry.done:
                results[index] = ValueError(
                    f"session {entry.key} already finished"
                )
                continue
            live.append(index)
            requests.append((entry.clone, entry.kind, entry.state.observe()))
        decisions = decide_batch(requests) if requests else []
        batch_size = len(requests)
        for index, decision in zip(live, decisions):
            entry = pending[index].entry
            chunk_index = entry.state.chunk_index
            entry.state.apply(decision)
            entry.decisions += 1
            done = entry.done
            if done:
                entry.finalize()
            latency = time.perf_counter() - pending[index].enqueued_at
            metrics.counter("service.decisions_total").inc()
            metrics.counter(f"service.tenant.{entry.tenant}.decisions").inc()
            metrics.histogram(
                "service.request_latency_s", DEFAULT_MICRO_LATENCY_BUCKETS_S
            ).observe(latency)
            results[index] = DecisionResponse(
                tenant=entry.tenant,
                session_id=entry.session_id,
                chunk_index=chunk_index,
                level=int(decision.level),
                proactive_stall_s=float(decision.proactive_stall_s),
                degraded=False,
                done=done,
                batch_size=batch_size,
                latency_s=latency,
            )
        if batch_size:
            metrics.counter("service.flushes_total").inc()
            metrics.histogram(
                "service.batch_size", BATCH_SIZE_BUCKETS
            ).observe(float(batch_size))
        return results
