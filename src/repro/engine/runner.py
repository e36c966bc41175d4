"""BatchRunner: ordered execution of (ABR, video, trace) work orders.

A :class:`WorkOrder` is the one description of a streaming session: the
ABR, video, trace, player config and sensitivity weights, validated once.
``WorkOrder.run`` is the serial reference loop; the lockstep shard, the
decision service's per-session state and every experiment read the same
order.

The experiment harness reduces to one primitive: run a list of work orders
and collect their :class:`~repro.player.session.StreamResult`s in a
deterministic order.  :class:`BatchRunner` provides exactly that primitive,
and it is the one place that knows which engine runs it:

* ``lockstep`` (the default, used by every entry point) — runs orders
  through the lockstep multi-session core (:mod:`repro.engine.lockstep`):
  whole shards of sessions advance chunk by chunk as structure-of-arrays
  state (:mod:`repro.player.shard` — batched download integrals, masked
  buffer/stall evolution, shared history rings) and the planner is
  evaluated across sessions — and across compatible ABR instances — as
  batched tensors.
* ``serial`` — walks the orders one :meth:`WorkOrder.run` at a time, in
  submission order, reusing the ABR instances it is given.  This is
  byte-for-byte the seed behaviour: the independent reference that tests
  and ``bench/`` ask for explicitly and every equivalence check compares
  lockstep against
  (``tests/test_lockstep.py``, the golden masters and the property/fuzz
  layers — see ``docs/TESTING.md``).

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.engine.precompute import SessionPrecompute
from repro.faults.log import FaultLog
from repro.network.trace import ThroughputTrace
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.obs.trace import TRACE, trace_span
from repro.player.session import SessionConfig, SessionState, StreamResult
from repro.utils.rand import rng_from_seed
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo

#: Supported backends.
BACKENDS = ("serial", "lockstep")

#: One session's captured ``(state, action)`` pairs (RL rollouts).
Trajectory = List[Tuple[np.ndarray, int]]


@dataclass
class WorkOrder:
    """One streaming session (the only type that describes one).

    Attributes
    ----------
    abr: the ABR algorithm instance (reset at session start).
    encoded: the video to stream.
    trace: the throughput trace to stream over.
    config: the player configuration (``None`` means ``SessionConfig()``).
    chunk_weights: per-chunk sensitivity weights, one positive entry per
        chunk (``None`` means uniform ones).
    exploration_seed: the RNG seed of the session's exploration stream,
        required when the ABR is an exploration-mode (``greedy=False``) RL
        policy (:meth:`require_seeded`).  The session samples its actions
        from a fresh ``rng_from_seed(exploration_seed)``, so its
        trajectory is a pure function of (checkpoint, seed) — independent
        of execution order.  That is what lets the lockstep core give each
        row its own stream and reproduce the serial path bit for bit.
        Orders whose ABR has no exploration stream ignore the field.

    Construction normalises ``config`` and ``chunk_weights`` once (an
    unweighted order shares its video's read-only ``uniform_weights``),
    and :attr:`precompute` serves the video's cached
    :class:`~repro.engine.precompute.SessionPrecompute`, so the serial
    loop (:meth:`run`), the lockstep shard
    (:class:`~repro.player.shard.ShardState`) and the decision service's
    per-session state all read the same validated inputs.
    """

    abr: ABRAlgorithm
    encoded: EncodedVideo
    trace: ThroughputTrace
    config: Optional[SessionConfig] = None
    chunk_weights: Optional[np.ndarray] = None
    exploration_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = SessionConfig()
        if self.chunk_weights is None:
            self.chunk_weights = self.precompute.uniform_weights
            return
        weights = np.asarray(self.chunk_weights, dtype=float)
        require(
            weights.shape == (self.encoded.num_chunks,),
            "chunk_weights must have one entry per chunk",
        )
        require(bool(np.all(weights > 0)), "chunk weights must be positive")
        self.chunk_weights = weights

    @property
    def precompute(self) -> SessionPrecompute:
        """The video's cached precompute (a derived cache: like the
        video's own, it is never pickled with the order)."""
        return SessionPrecompute.of(self.encoded)

    @property
    def explores(self) -> bool:
        """Whether the session samples its actions (an exploration-mode RL
        policy).  Read when the order runs: callers may flip
        ``abr.greedy`` after building the order."""
        return not getattr(self.abr, "greedy", True)

    def require_seeded(self) -> None:
        """Reject an exploration-mode order without an ``exploration_seed``:
        its actions would depend on whatever the agent's shared stream
        drew before, which no backend can reproduce."""
        require(
            not self.explores or self.exploration_seed is not None,
            "exploration-mode RL orders need an exploration_seed",
        )

    def run(self) -> StreamResult:
        """The serial reference: reset the ABR, then observe → decide →
        apply once per chunk and finalize.  A seeded order samples from a
        fresh ``rng_from_seed(exploration_seed)``, and the agent gets its
        previous stream back afterwards, so a run never changes it."""
        self.require_seeded()
        agent = getattr(self.abr, "agent", None)
        if self.exploration_seed is None or not hasattr(
            agent, "exploration_stream"
        ):
            return self._run()
        previous = agent.exploration_stream
        agent.exploration_stream = rng_from_seed(int(self.exploration_seed))
        try:
            return self._run()
        finally:
            agent.exploration_stream = previous

    def _run(self) -> StreamResult:
        self.abr.reset()
        state = SessionState(self)
        while not state.done:
            state.apply(self.abr.decide(state.observe()))
        return state.finalize(abr_name=self.abr.name, trace_name=self.trace.name)


def _run_rollouts_serial(
    orders: Sequence[WorkOrder],
) -> Tuple[List[StreamResult], List[Trajectory]]:
    """The serial rollout reference: per order, in submission order,
    capture the policy's ``(state, action)`` pairs and run the session.
    The serial runner's :meth:`BatchRunner.run_rollouts` and the lockstep
    rollout recovery both run it."""
    results: List[StreamResult] = []
    trajectories: List[Trajectory] = []
    for order in orders:
        order.abr.begin_capture()
        try:
            results.append(order.run())
        finally:
            # A rejected or failed session must not leave capture on.
            trajectories.append(order.abr.end_capture())
    return results, trajectories


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
    """Runs work orders through the lockstep core or the serial reference.

    Parameters
    ----------
    backend:
        ``"lockstep"`` (the default) or ``"serial"`` (the bit-identical
        reference, for tests and ``bench/``).
    """

    def __init__(self, backend: str = "lockstep") -> None:
        require(backend in BACKENDS,
                f"backend must be one of {BACKENDS}, got {backend!r}")
        self.backend = backend
        #: Cumulative recovery accounting for this runner's lifetime;
        #: per-run deltas via ``fault_log.snapshot()`` / ``.since()``.
        self.fault_log = FaultLog()

    @classmethod
    def auto(cls) -> "BatchRunner":
        """The default (lockstep) runner."""
        return cls()

    # ------------------------------------------------------------------ API

    def run_orders(self, orders: Sequence[WorkOrder]) -> List[StreamResult]:
        """Run every order; results align index-for-index with ``orders``.

        The whole dispatch — whichever backend runs it — is timed under
        the ``engine.dispatch`` root span, the denominator every phase
        share (:func:`repro.engine.report.phases_from_snapshot`) is
        computed against.
        """
        orders = list(orders)
        if not orders:
            return []
        with trace_span("engine.dispatch"):
            if self.backend == "lockstep":
                from repro.engine.lockstep import run_orders_lockstep

                return run_orders_lockstep(orders, fault_log=self.fault_log)
            results = [order.run() for order in orders]
            # Lockstep runs observe inside run_orders_lockstep; the serial
            # loop is the one path that must observe here.
            _observe_session_results(results)
            return results

    def run_rollouts(
        self, orders: Sequence[WorkOrder]
    ) -> Tuple[List[StreamResult], List[Trajectory]]:
        """Run RL work orders, capturing each session's ``(state,
        action)`` trajectory for the trainer.

        Returns ``(results, trajectories)``, both aligned with ``orders``.
        Lockstep runs :func:`repro.engine.lockstep.run_rl_rollouts_lockstep`
        (stock Pensieve-family policies, greedy or with a pinned
        ``exploration_seed``); serial runs the capture → run reference,
        which the lockstep trajectories equal byte for byte.
        """
        orders = list(orders)
        if self.backend == "lockstep":
            from repro.engine.lockstep import run_rl_rollouts_lockstep

            return run_rl_rollouts_lockstep(orders, fault_log=self.fault_log)
        return _run_rollouts_serial(orders)


def orders_for_grid(
    abrs: Sequence[ABRAlgorithm],
    videos: Sequence[EncodedVideo],
    traces: Sequence[ThroughputTrace],
    config: Optional[SessionConfig] = None,
    weights_by_video: Optional[dict] = None,
) -> List[Tuple[Tuple[str, str, str], WorkOrder]]:
    """Work orders for every (ABR, video, trace) combination.

    Iteration order is the seed's grid loop (ABR outermost, trace
    innermost), so serial execution reproduces it exactly.  Each entry
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
