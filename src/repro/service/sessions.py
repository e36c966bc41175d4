"""The session table: live streaming sessions keyed by ``(tenant, id)``.

Each registered session holds its :class:`~repro.engine.runner.WorkOrder`
(validated weights, config and precompute, exactly the offline path's), an
unmodified :class:`~repro.player.session.SessionState` built from it, and a
deep-copied, reset clone of the order's ABR instance.  The clone carries
all per-session algorithm state (throughput predictor history, SENSEI's
proactive-stall budget) between ``decide`` calls — the same
per-session-clone pattern the lockstep engine's ``_PerSessionDriver``
uses, and the reason online decisions can be bit-identical to a serial
``WorkOrder.run`` over the same history.

The order's *original* ABR instance is never stepped online: it is what
the offline engine runs for the golden online ≡ offline comparison
(:meth:`SessionEntry.work_order`; ``WorkOrder.run`` resets it first,
exactly like any grid cell).
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.engine.lockstep import (
    KIND_FUGU,
    KIND_GENERIC,
    KIND_MPC,
    KIND_RL,
    KIND_SENSEI,
    decision_kind,
)
from repro.engine.runner import WorkOrder
from repro.network.trace import ThroughputTrace
from repro.player.session import SessionConfig, SessionState, StreamResult
from repro.video.encoder import EncodedVideo

__all__ = [
    "KIND_FUGU",
    "KIND_GENERIC",
    "KIND_MPC",
    "KIND_RL",
    "KIND_SENSEI",
    "SessionEntry",
    "SessionKey",
    "SessionTable",
    "planner_kind",
]

SessionKey = Tuple[str, str]

def planner_kind(abr: ABRAlgorithm) -> str:
    """Which batched decide path (if any) reproduces ``abr.decide``.

    The lockstep engine's :func:`~repro.engine.lockstep.decision_kind`,
    narrowed to the paths the service batches: the three planner families
    and *greedy* stock Pensieve-family policies, which decide via an
    argmax over a row-stable actor forward (repro.ml.nn.row_matmul).
    Everything else (BBA, rate-based, subclasses) stays generic, deciding
    on its own clone.  Exploration-mode RL never gets here: the service
    has no ``exploration_seed`` to pin, so :meth:`SessionTable.register`
    rejects it.
    """
    kind = decision_kind(abr)
    if kind in (KIND_MPC, KIND_FUGU, KIND_SENSEI) or (
        kind == KIND_RL and abr.greedy
    ):
        return kind
    return KIND_GENERIC


class SessionEntry:
    """One live session: work order + player state + ABR clone + accounting."""

    __slots__ = (
        "tenant", "session_id", "order", "clone", "kind", "state",
        "evicted", "result", "decisions", "degraded", "in_flight",
    )

    def __init__(self, tenant: str, session_id: str, order: WorkOrder) -> None:
        self.tenant = tenant
        self.session_id = session_id
        self.order = order
        abr = order.abr
        # Serial runs reuse one ABR with reset() between sessions; a reset
        # deep copy therefore decides identically and gives this session
        # private predictor state.
        self.clone = copy.deepcopy(abr)
        self.clone.reset()
        self.kind = planner_kind(abr)
        if self.kind == KIND_RL:
            # Greedy decide only *reads* the agent (one actor forward +
            # argmax), so every clone of the same policy can share the
            # caller's agent: the batched decide path groups sessions by
            # agent identity to stack their forwards, and N sessions stop
            # paying N copies of the network parameters.
            self.clone.agent = abr.agent
        self.state = SessionState(order)
        self.evicted = False
        self.result: Optional[StreamResult] = None
        self.decisions = 0
        self.degraded = 0
        #: True while a decide() for this session is in flight: the
        #: observe→apply protocol is strictly sequential per session, so
        #: concurrent decides for one session are a caller bug the
        #: service rejects loudly instead of double-applying.
        self.in_flight = False

    @property
    def key(self) -> SessionKey:
        return (self.tenant, self.session_id)

    @property
    def done(self) -> bool:
        return self.state.done

    def finalize(self) -> StreamResult:
        """Finalize the underlying state (idempotent)."""
        if self.result is None:
            self.result = self.state.finalize(
                abr_name=self.clone.name, trace_name=self.order.trace.name
            )
        return self.result

    def work_order(self) -> WorkOrder:
        """The session's offline work order (golden comparison path)."""
        return self.order


class SessionTable:
    """All live sessions, with per-tenant counts for health/metrics."""

    def __init__(self) -> None:
        self._entries: Dict[SessionKey, SessionEntry] = {}

    def register(
        self,
        tenant: str,
        session_id: str,
        abr: ABRAlgorithm,
        encoded: EncodedVideo,
        trace: ThroughputTrace,
        config: Optional[SessionConfig] = None,
        chunk_weights: Optional[np.ndarray] = None,
    ) -> SessionEntry:
        """Register a new session; duplicate keys are an error."""
        key = (tenant, session_id)
        if key in self._entries:
            raise ValueError(f"session already registered: {key}")
        order = WorkOrder(
            abr=abr, encoded=encoded, trace=trace, config=config,
            chunk_weights=chunk_weights,
        )
        order.require_seeded()
        entry = SessionEntry(tenant, session_id, order)
        self._entries[key] = entry
        return entry

    def evict(self, tenant: str, session_id: str) -> SessionEntry:
        """Remove a session; its in-flight requests will fail explicitly."""
        entry = self._entries.pop((tenant, session_id))
        entry.evicted = True
        return entry

    def get(self, tenant: str, session_id: str) -> SessionEntry:
        return self._entries[(tenant, session_id)]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SessionEntry]:
        return iter(list(self._entries.values()))

    def tenant_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self._entries.values():
            counts[entry.tenant] = counts.get(entry.tenant, 0) + 1
        return counts
