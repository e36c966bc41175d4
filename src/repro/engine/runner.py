"""BatchRunner: ordered execution of (ABR, video, trace) work orders.

The experiment harness reduces to one primitive: run a list of streaming
sessions and collect their :class:`~repro.player.session.StreamResult`s in a
deterministic order.  :class:`BatchRunner` provides exactly that primitive
with three interchangeable backends:

* ``serial`` — runs orders in submission order, in process, reusing the ABR
  instances it is given.  This is byte-for-byte the seed behaviour and the
  backend tests and equivalence checks rely on.
* ``lockstep`` — runs orders through the lockstep multi-session core
  (:mod:`repro.engine.lockstep`): whole shards of sessions advance chunk
  by chunk as structure-of-arrays state (:mod:`repro.player.shard` —
  batched download integrals, masked buffer/stall evolution, shared
  history rings) and the planner is evaluated across sessions — and
  across compatible ABR instances — as batched tensors.  Results are
  bit-identical to ``serial`` (``tests/test_lockstep.py``, the golden
  masters and the property/fuzz layers — see ``docs/TESTING.md``); this
  is the fastest single-process backend.
* ``process`` — shards orders over a ``ProcessPoolExecutor``.  Orders are
  dispatched as *chunked shards* (one pickle per shard, several orders
  each): orders in a shard share their pickled videos, so each worker
  builds one :class:`~repro.engine.precompute.SessionPrecompute` per video
  per shard, and each shard runs through the lockstep core.  Results come
  back with each timeline still unmaterialised, pickled as its per-chunk
  columns rather than record objects (the bulk of the pool traffic; see
  :class:`~repro.player.events.LazySessionTimeline`).  Because every
  session begins with ``abr.reset()`` and lockstep is serial-identical, the
  results are numerically identical to the serial backend.  On a
  single-core host a pool is pure overhead, so ``run_orders`` falls back to
  in-process lockstep there; unpicklable work falls back to serial, so
  callers never need a fallback path of their own.

The process backend is *crash-recovering*: a worker death
(``BrokenProcessPool``), a simulated crash, or a shard exceeding
``shard_timeout_s`` no longer aborts the whole grid.  Lost shards are
re-dispatched on a rebuilt pool with capped exponential backoff, and a
shard that keeps failing is re-run in-process (lockstep, bit-identical)
instead of being given up on.  Recovery never changes results — shards
are deterministic, so a retried shard reproduces its first attempt bit
for bit (guarded by the golden masters, see ``docs/ROBUSTNESS.md``) —
and every recovery is counted in the runner's
:class:`~repro.faults.log.FaultLog` (``runner.fault_log``), which the
experiment registry stamps into ``ResultSet`` metadata.  Deterministic
chaos tests drive these paths through :mod:`repro.faults` fault plans.

Result ordering always matches submission ordering, whichever backend ran.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.faults.injector import (
    ShardFault,
    SimulatedWorkerCrash,
    active_injector,
    execute_shard_fault,
)
from repro.faults.log import FaultLog, ShardRecoveryWarning, merge_counter_dicts
from repro.network.trace import ThroughputTrace
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.obs.trace import TRACE, set_enabled, trace_span
from repro.player.session import SessionConfig, StreamingSession, StreamResult
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Supported backends.
BACKENDS = ("serial", "process", "lockstep")

#: Orders below this count are not worth a pool: shard + pickle + spawn
#: overhead exceeds the win.  Used by the process backend's fallback
#: heuristic together with the core count.
MIN_PROCESS_ORDERS = 4

#: Target shards per worker for the process backend: enough slack that an
#: unlucky shard (e.g. all planner ABRs) cannot serialise the tail, few
#: enough that per-shard pickling stays amortised.
SHARDS_PER_WORKER = 4


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
    """Top-level order executor (must be module-level to pickle)."""
    return order.run()


@dataclass
class _OrderShard:
    """A chunk of consecutive work orders shipped to one worker as a unit.

    One pickle per shard: orders that share a video (grid sweeps interleave
    ABRs over the same (video, trace) cells, so consecutive orders usually
    do) serialise it once, and the worker's lockstep run reuses one
    ``SessionPrecompute`` per video across the whole shard.
    """

    orders: Tuple[WorkOrder, ...]
    #: Injected fault directive, attached by the parent at dispatch time
    #: (consumed from the active :class:`~repro.faults.injector.
    #: FaultInjector`, so a retried shard runs clean).
    fault: Optional[ShardFault] = None
    #: Whether the parent had telemetry enabled at dispatch time.  Shipped
    #: with the shard — never inherited ambiently — so a worker traces
    #: exactly when its parent does, whatever the pool's start method.
    telemetry: bool = False


def _execute_shard(
    shard: _OrderShard,
) -> Tuple[List[StreamResult], Optional[Dict[str, object]]]:
    """Run one shard through the lockstep core (module-level to pickle).

    Returns ``(results, metrics_snapshot)``.  With telemetry on, the shard
    runs against a fresh worker-local
    :class:`~repro.obs.metrics.MetricsRegistry` whose snapshot travels
    back for the parent to merge — the same delta-shipping discipline as
    ``FaultLog`` counters, and fresh-per-shard so a reused pool worker
    never double-reports an earlier shard's metrics.  It carries the
    shard's ``plan_cache.worker_*`` counters (memo activity) too.
    """
    from repro.abr.planner import PLAN_CACHE_STATS, plan_cache_info
    from repro.engine.lockstep import run_orders_lockstep

    if shard.fault is not None:
        execute_shard_fault(shard.fault, in_worker=True)
    if not shard.telemetry:
        return run_orders_lockstep(shard.orders), None
    previous = set_enabled(True)
    registry = MetricsRegistry()
    before = plan_cache_info()
    try:
        with use_registry(registry):
            results = run_orders_lockstep(shard.orders)
    finally:
        set_enabled(previous)
    after = plan_cache_info()
    snapshot = registry.snapshot()
    # The parent's plan_cache.* gauges add these up at snapshot time.
    for name in PLAN_CACHE_STATS:
        snapshot["counters"][f"plan_cache.worker_{name}"] = float(
            getattr(after, name) - getattr(before, name)
        )
    return results, snapshot


def _observe_session_results(results: Sequence[StreamResult]) -> None:
    """Fold finished sessions into the active registry (telemetry on only).

    The observed quantities are *simulated* (deterministic), so serial,
    lockstep and process backends report identical totals — the invariant
    ``tests/test_obs.py`` asserts across the shard boundary.
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
    """Runs work orders through a serial, lockstep or process-pool backend.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"lockstep"`` or ``"process"``.
    max_workers:
        Worker count for the process backend; defaults to the CPU count.
        Each call spawns its own pool and tears it down before returning,
        so a runner holds no processes between calls.
    max_shard_retries:
        How many times a lost shard (worker crash, pool breakage, timeout)
        is re-dispatched to the pool before the runner stops trusting
        workers with it and runs it in-process instead (bit-identical
        lockstep; counted as a ``serial_fallback`` in :attr:`fault_log`).
    shard_timeout_s:
        Wall-clock budget for one dispatch attempt of the process backend
        (``None`` — the default — waits forever).  On expiry the attempt's
        unfinished shards are abandoned, the pool is torn down (stuck
        workers included) and rebuilt, and the lost shards are retried.
    retry_backoff_s / retry_backoff_cap_s:
        Capped exponential backoff between pool rebuilds:
        ``min(cap, base * 2**rebuilds)`` seconds.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        max_shard_retries: int = 2,
        shard_timeout_s: Optional[float] = None,
        retry_backoff_s: float = 0.05,
        retry_backoff_cap_s: float = 2.0,
    ) -> None:
        require(backend in BACKENDS, f"backend must be one of {BACKENDS}")
        require(max_shard_retries >= 0, "max_shard_retries must be >= 0")
        require(shard_timeout_s is None or shard_timeout_s > 0,
                "shard_timeout_s must be positive (or None)")
        require(retry_backoff_s >= 0, "retry_backoff_s must be >= 0")
        self.backend = backend
        self.max_workers = max_workers
        self.max_shard_retries = int(max_shard_retries)
        self.shard_timeout_s = shard_timeout_s
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_backoff_cap_s = float(retry_backoff_cap_s)
        #: Cumulative recovery accounting for this runner's lifetime;
        #: per-run deltas via ``fault_log.snapshot()`` / ``.since()``.
        self.fault_log = FaultLog()

    @classmethod
    def auto(cls, **knobs) -> "BatchRunner":
        """The lockstep runner, on every host.

        The process pool never beat in-process lockstep where it was
        measured (two cores: the full grid tied, quick grids and training
        ran up to 2x slower), so it stays an explicit choice.  Extra
        ``knobs`` (``max_shard_retries``, ``shard_timeout_s``, …) pass
        straight through to the constructor.
        """
        return cls(backend="lockstep", **knobs)

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
            if self.backend == "process":
                return self._run_orders_process(orders)
            results = self.map_ordered(_execute_order, orders)
            # Lockstep-path runs observe inside run_orders_lockstep (which
            # also covers pool workers and in-process fallbacks); the
            # serial loop is the one path that must observe here.
            _observe_session_results(results)
            return results

    def map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> List[_R]:
        """Apply ``fn`` to every item, preserving order.

        The serial and lockstep backends use a plain loop (lockstep only
        accelerates :meth:`run_orders`, where the work is known to be
        streaming sessions); the process backend distributes items over
        workers and reassembles results in submission order.
        """
        with trace_span("engine.map"):
            return self._map_ordered(fn, items)

    def _map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> List[_R]:
        items = list(items)
        if not items:
            return []
        if self.backend != "process" or len(items) == 1:
            return [fn(item) for item in items]
        if not self._picklable(fn, items[0]):
            self.fault_log.pickle_failures += 1
            warnings.warn(
                "BatchRunner: work items are not picklable; "
                "falling back to the serial backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]
        try:
            max_workers = self._effective_workers(len(items))
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                return list(pool.map(fn, items))
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            # The cheap pre-check above only samples the first item; a
            # heterogeneous batch can still fail to pickle mid-flight.
            # Unpicklable objects surface as PicklingError, TypeError or
            # AttributeError depending on the offender — but ``fn`` itself
            # may legitimately raise the latter two, so only fall back when
            # some item really does not pickle; otherwise the error is the
            # caller's and must propagate.  (Worker crashes —
            # BrokenProcessPool — also propagate: silently re-running a
            # possibly-OOM-inducing batch in the parent would mask the
            # crash.)  Items are checked one at a time, short-circuiting on
            # the first offender, so classification never duplicates the
            # whole batch in memory.
            if not isinstance(error, pickle.PicklingError):
                if all(self._picklable(fn, item) for item in items):
                    raise
            self.fault_log.pickle_failures += 1
            warnings.warn(
                f"BatchRunner: process backend failed ({error}); "
                "rerunning serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]

    # ------------------------------------------------------------ internals

    def _run_orders_process(self, orders: List[WorkOrder]) -> List[StreamResult]:
        """Chunked-shard dispatch with recovery and an in-process fallback."""
        cores = os.cpu_count() or 1
        workers = self._effective_workers(len(orders))
        if cores <= 1 or workers <= 1 or len(orders) < MIN_PROCESS_ORDERS:
            # A pool cannot pay for itself here; lockstep is bit-identical
            # and the fastest in-process path.
            from repro.engine.lockstep import run_orders_lockstep

            return run_orders_lockstep(orders, fault_log=self.fault_log)
        shard_count = min(len(orders), workers * SHARDS_PER_WORKER)
        bounds = np.linspace(0, len(orders), shard_count + 1).astype(int)
        shards = [
            _OrderShard(
                orders=tuple(orders[start:stop]), telemetry=TRACE.enabled
            )
            for start, stop in zip(bounds[:-1], bounds[1:])
            if stop > start
        ]
        nested = self._run_shards_with_recovery(shards, workers)
        return [result for shard_results in nested for result in shard_results]

    # ------------------------------------------------- crash-recovering core

    def _run_shards_with_recovery(
        self, shards: List[_OrderShard], workers: int
    ) -> List[List[StreamResult]]:
        """Dispatch every shard, surviving worker deaths and timeouts.

        Lost shards (crashed worker, broken pool, attempt timeout) are
        re-dispatched — on a rebuilt pool when the old one died — with
        capped exponential backoff between rebuilds; a shard lost more than
        ``max_shard_retries`` times is re-run in-process instead.  Shards
        are pure functions of their orders, so a retry is bit-identical to
        the attempt that was lost; recovery changes *when* a shard runs,
        never what it returns.  Exceptions raised by the workload itself
        (an order with a genuine bug) are not retried: they propagate.
        """
        results: List[Optional[List[StreamResult]]] = [None] * len(shards)
        pending = list(range(len(shards)))
        attempts: Dict[int, int] = {index: 0 for index in pending}
        rebuilds = 0
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while pending:
                retriable = [
                    index for index in pending
                    if attempts[index] <= self.max_shard_retries
                ]
                for index in pending:
                    if index not in set(retriable):
                        results[index] = self._run_shard_in_process(
                            shards[index], index,
                            reason=f"lost {attempts[index]} pool attempts",
                        )
                if not retriable:
                    break
                started = time.monotonic()
                lost, verdict = self._dispatch_attempt(
                    pool, retriable, shards, results
                )
                if lost:
                    self.fault_log.wall_clock_lost_s += (
                        time.monotonic() - started
                    )
                    self.fault_log.retries += len(lost)
                    for index in lost:
                        attempts[index] += 1
                    if verdict in ("broken", "timeout"):
                        pool = self._rebuild_pool(
                            pool, verdict, rebuilds, workers
                        )
                        rebuilds += 1
                pending = lost
        finally:
            self._teardown_pool(pool, reason="dispatch finished")
        return results

    def _dispatch_attempt(
        self,
        pool: ProcessPoolExecutor,
        indices: List[int],
        shards: List[_OrderShard],
        results: List[Optional[List[StreamResult]]],
    ) -> Tuple[List[int], str]:
        """One submit-and-collect round; returns (lost shard indices,
        verdict) where the verdict says whether the pool must be rebuilt
        (``"broken"``/``"timeout"``) or survived (``"ok"``)."""
        injector = active_injector()
        futures: Dict[object, int] = {}
        unpicklable: List[int] = []
        for index in indices:
            shard = shards[index]
            if injector is not None:
                fault = injector.take_shard_fault(index)
                if fault is not None:
                    shard = _OrderShard(orders=shard.orders, fault=fault,
                                        telemetry=shard.telemetry)
            try:
                if injector is not None:
                    injector.on_pickle()
                futures[pool.submit(_execute_shard, shard)] = index
            except pickle.PicklingError as error:
                self.fault_log.pickle_failures += 1
                self.fault_log.record(f"shard {index} failed to pickle")
                warnings.warn(
                    f"BatchRunner: shard {index} failed to pickle "
                    f"({error}); running it in-process",
                    ShardRecoveryWarning,
                    stacklevel=3,
                )
                unpicklable.append(index)
        for index in unpicklable:
            results[index] = self._run_shard_in_process(
                shards[index], index, reason="unpicklable", count_fallback=False
            )

        lost: List[int] = []
        verdict = "ok"
        remaining = dict(futures)
        try:
            for future in as_completed(
                list(futures), timeout=self.shard_timeout_s
            ):
                index = futures[future]
                remaining.pop(future, None)
                try:
                    shard_results, metrics = future.result()
                    results[index] = shard_results
                    if metrics is not None:
                        # The worker's registry delta lands in the parent's
                        # active registry, mirroring FaultLog merging.
                        get_registry().merge_snapshot(metrics)
                except SimulatedWorkerCrash as error:
                    # The worker survived (the crash was raised, not a real
                    # death), so the pool is still good: just retry.
                    self.fault_log.worker_crashes += 1
                    self.fault_log.record(f"shard {index} crashed: {error}")
                    warnings.warn(
                        f"BatchRunner: shard {index} crashed ({error}); "
                        "retrying",
                        ShardRecoveryWarning,
                        stacklevel=3,
                    )
                    lost.append(index)
                except BrokenProcessPool:
                    # A worker died mid-shard.  Every other in-flight future
                    # is doomed with it; mark them all lost and rebuild.
                    verdict = "broken"
                    self.fault_log.worker_crashes += 1
                    self.fault_log.record(
                        f"worker died running shard {index}; pool broken"
                    )
                    warnings.warn(
                        f"BatchRunner: a worker died running shard {index}; "
                        "rebuilding the pool and retrying lost shards",
                        ShardRecoveryWarning,
                        stacklevel=3,
                    )
                    lost.append(index)
                    break
                except pickle.PicklingError as error:
                    # submit() pickles lazily, so an unpicklable shard can
                    # surface here instead of at submission.
                    self.fault_log.pickle_failures += 1
                    self.fault_log.record(f"shard {index} failed to pickle")
                    warnings.warn(
                        f"BatchRunner: shard {index} failed to pickle "
                        f"({error}); running it in-process",
                        ShardRecoveryWarning,
                        stacklevel=3,
                    )
                    results[index] = self._run_shard_in_process(
                        shards[index], index, reason="unpicklable",
                        count_fallback=False,
                    )
                # Any other exception is the workload's own and propagates:
                # retrying a deterministic bug cannot fix it, and masking it
                # would report a wrong grid as healthy.
        except FuturesTimeout:
            verdict = "timeout"
            timed_out = sorted(remaining.values())
            self.fault_log.timeouts += len(timed_out)
            self.fault_log.record(
                f"attempt timed out ({self.shard_timeout_s}s); "
                f"lost shards {timed_out}"
            )
            warnings.warn(
                f"BatchRunner: shards {timed_out} exceeded "
                f"shard_timeout_s={self.shard_timeout_s}; abandoning the "
                "attempt and retrying them on a fresh pool",
                ShardRecoveryWarning,
                stacklevel=3,
            )
            lost.extend(index for index in timed_out if index not in lost)
            remaining = {}
        if verdict == "broken":
            lost.extend(
                index for index in remaining.values() if index not in lost
            )
        return lost, verdict

    def _run_shard_in_process(
        self,
        shard: _OrderShard,
        index: int,
        reason: str,
        count_fallback: bool = True,
    ) -> List[StreamResult]:
        """Last-resort execution of one shard in the parent process.

        Runs the shard through the in-process lockstep core — bit-identical
        to what a worker would have returned — so repeated pool failures
        degrade throughput, never correctness.
        """
        from repro.engine.lockstep import run_orders_lockstep

        if count_fallback:
            self.fault_log.serial_fallbacks += 1
            self.fault_log.record(
                f"shard {index} fell back in-process: {reason}"
            )
            warnings.warn(
                f"BatchRunner: shard {index} ({len(shard.orders)} orders) "
                f"fell back to in-process execution: {reason}",
                ShardRecoveryWarning,
                stacklevel=3,
            )
        return run_orders_lockstep(shard.orders, fault_log=self.fault_log)

    def _rebuild_pool(
        self, pool: ProcessPoolExecutor, reason: str, rebuilds: int,
        workers: int,
    ) -> ProcessPoolExecutor:
        """Tear the dead/stuck pool down and stand up a fresh one of
        ``workers`` processes (the size the dispatch chose), with capped
        exponential backoff (``min(cap, base * 2**rebuilds)``)."""
        self._teardown_pool(pool, reason=reason)
        self.fault_log.pool_rebuilds += 1
        delay = min(
            self.retry_backoff_cap_s, self.retry_backoff_s * (2 ** rebuilds)
        )
        if delay > 0:
            time.sleep(delay)
        return ProcessPoolExecutor(max_workers=workers)

    def _teardown_pool(self, pool: ProcessPoolExecutor, reason: str) -> None:
        """Shut a pool down without waiting on (possibly stuck) workers.

        A teardown that raises is logged — never silently swallowed — and
        the pool is dropped regardless, so the next attempt gets a clean
        pool.
        """
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception as error:
            warnings.warn(
                f"BatchRunner: pool teardown ({reason}) raised {error!r}; "
                "the pool was dropped anyway",
                RuntimeWarning,
                stacklevel=3,
            )

    def _effective_workers(self, num_items: int) -> int:
        workers = self.max_workers or os.cpu_count() or 1
        return min(workers, num_items)

    @staticmethod
    def _picklable(fn: Callable, sample_item) -> bool:
        try:
            pickle.dumps((fn, sample_item))
            return True
        except Exception:
            return False


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
