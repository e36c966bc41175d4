"""The benchmark's workloads: inputs, set-up, timed operations, output checks.

Each workload builds its inputs from the seed alone, sets the program up
several times (the median set-up is reported), runs its operation for the
requested number of seconds, and checks every output against a reference
computed once, untimed, before timing starts.

* ``grid_full`` — ``headline_numbers`` over the paper's full grid
  (16 videos x 10 traces x BBA/Fugu/SENSEI = 480 sessions per sweep) on
  ``BatchRunner.auto()``; closed loop, one client.  Each sweep's scores
  must equal a serial-backend reference sweep bit for bit.
* ``service_r1000`` / ``service_r2000`` — an open-loop Poisson generator on
  the service's own asyncio loop drives a ``DecisionService`` (batch 16,
  2 ms window, no admission timeout) over 128 standing sessions from two
  tenants weighted 4:1, with session churn.  Latency counts from each
  request's due time.  Finished sessions are replayed offline and must
  match decision for decision.
* ``train_quick`` — ``train_policies`` at quick scale on ``auto()``.  Each
  run's checkpoints and grid QoE must equal a lockstep-backend reference.
* ``profile_full`` — ``SenseiProfiler.profile_videos`` over all 16 videos at
  full-scale rating counts, a new profiler per pass.  Each pass's weights
  and cost must equal the reference pass bit for bit.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import itertools
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiler import SenseiProfiler
from repro.core.scheduler import SchedulerConfig
from repro.engine.runner import BatchRunner
from repro.experiments.abr_eval import headline_numbers
from repro.experiments.common import ExperimentContext, ExperimentScale
from repro.service import DecisionService
from repro.service.loadgen import (
    ABR_FACTORIES,
    default_tenants,
    synthetic_weights,
    verify_online_offline,
)
from repro.training.checkpoint import CheckpointStore
from repro.training.pipeline import DEFAULT_TRAINING, train_policies

from bench.layers import (
    ENGINE_TARGETS,
    OP_SPAN,
    PROFILE_TARGETS,
    REQUEST_SPAN,
    SERVICE_TARGETS,
    TRAIN_TARGETS,
    TracedPass,
)
from bench.stats import percentile
from bench.tracer import Target, Tracer, capture_results

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run; the median is reported.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run measured."""

    setup_samples: List[float] = field(default_factory=list)
    #: Timed operations in milliseconds, grouped into the windows their
    #: percentiles are taken over (one window for closed-loop workloads).
    op_windows: List[List[float]] = field(default_factory=list)
    work_per_s: float = 0.0
    attempted: int = 0
    #: Operations that raised, produced a wrong output, or were shed.
    failed: int = 0
    #: The failures that were raised errors or wrong outputs; a shed
    #: (degraded) decision is the service's documented overload response.
    incorrect: int = 0
    passes: List[TracedPass] = field(default_factory=list)
    #: Load-generator and service counts for the per-layer metrics.
    service: Dict[str, float] = field(default_factory=dict)


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


# --------------------------------------------------------------------------
# Closed-loop batch workloads
# --------------------------------------------------------------------------


class BatchWorkload:
    """One client running one operation back to back."""

    name = ""
    #: Fewest timed operations per run, whatever ``--seconds`` says.
    min_ops = 3
    targets: Sequence[Target] = ()

    def prepare(self, seed: int) -> None:
        """Build the inputs and the untimed reference output."""
        raise NotImplementedError

    def setup(self) -> None:
        """One set-up repetition (timed)."""

    def op(self) -> object:
        """One timed operation; returns what :meth:`check` verifies."""
        raise NotImplementedError

    def check(self, output: object) -> bool:
        raise NotImplementedError

    def units_per_op(self) -> float:
        raise NotImplementedError

    def trace_passes(self) -> List[Tuple[str, Callable[[], None]]]:
        """(label, configure) for each traced pass."""
        return [("single", lambda: None)]

    def close(self) -> None:
        """Release what :meth:`prepare` and :meth:`setup` hold."""

    def execute(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        try:
            self.prepare(seed)
            for _ in range(SETUP_REPEATS):
                outcome.setup_samples.append(_timed(self.setup)[0])
            if trace:
                share = seconds / len(self.trace_passes())
                for label, configure in self.trace_passes():
                    configure()
                    outcome.passes.append(self._traced_pass(label, share, outcome))
            else:
                walls = self._run_ops(seconds, outcome)
                outcome.op_windows = [[1e3 * wall for wall in walls]]
                outcome.work_per_s = self.units_per_op() / float(
                    np.median(walls)
                )
        finally:
            self.close()
        return outcome

    def _checked_op(
        self, outcome: Outcome, span: Callable = contextlib.nullcontext
    ) -> float:
        with span():
            wall, output = _timed(self.op)
        outcome.attempted += 1
        if not self.check(output):
            outcome.failed += 1
            outcome.incorrect += 1
            print(f"{self.name}: output check failed", file=sys.stderr)
        return wall

    def _run_ops(self, seconds: float, outcome: Outcome) -> List[float]:
        started = time.perf_counter()
        walls: List[float] = []
        while (
            len(walls) < self.min_ops
            or time.perf_counter() - started < seconds
        ):
            walls.append(self._checked_op(outcome))
        return walls

    def _traced_pass(
        self, label: str, seconds: float, outcome: Outcome
    ) -> TracedPass:
        """A warm-up operation, then untraced and traced operations in
        turn until ``seconds`` pass (at least one of each)."""
        self._checked_op(outcome)
        tracer = Tracer()
        traced = TracedPass(label=label)
        started = time.perf_counter()
        while (
            not traced.traced_walls
            or time.perf_counter() - started < seconds
        ):
            traced.untraced_walls.append(self._checked_op(outcome))
            with tracer.instrument(self.targets):
                wall = self._checked_op(
                    outcome, lambda: tracer.span(OP_SPAN, op=traced.ops)
                )
            traced.traced_walls.append(wall)
            traced.ops += 1
        traced.spans = tracer.spans
        return traced


class GridFull(BatchWorkload):
    """``headline_numbers`` on the full 16 x 10 x 3 grid."""

    name = "grid_full"
    targets = ENGINE_TARGETS

    def prepare(self, seed: int) -> None:
        self.context = ExperimentContext(
            scale=ExperimentScale.full(), seed=seed,
            runner=BatchRunner(backend="serial"),
        )
        # Sensitivity profiles are an input of the sweep (profile_full
        # times producing them).
        self.context.weights_by_video()
        self.reference = self.op()

    def setup(self) -> None:
        self.context.runner = BatchRunner.auto()
        self.op()  # warm-up sweep

    def op(self) -> Tuple[dict, dict]:
        grids: List[dict] = []
        with capture_results(
            "repro.experiments.abr_eval", "_evaluate_grid", grids
        ):
            headline = headline_numbers(self.context)
        return headline, grids[0]

    def check(self, output: Tuple[dict, dict]) -> bool:
        return output == self.reference

    def units_per_op(self) -> float:
        return float(sum(len(cells) for cells in self.reference[1].values()))

    def trace_passes(self) -> List[Tuple[str, Callable[[], None]]]:
        def use(make: Callable[[], BatchRunner]) -> Callable[[], None]:
            def configure() -> None:
                self.context.runner = make()
            return configure

        return [
            ("auto", use(BatchRunner.auto)),
            ("lockstep", use(lambda: BatchRunner(backend="lockstep"))),
        ]


class TrainQuick(BatchWorkload):
    """``train_policies`` at quick scale, checkpoints to a temporary directory."""

    name = "train_quick"
    targets = TRAIN_TARGETS

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.root = OUT_DIR / f"train-{os.getpid()}"
        self.runs = itertools.count()
        self.make_runner: Callable[[], Optional[BatchRunner]] = (
            lambda: BatchRunner(backend="lockstep")
        )
        self.reference = self._summary(self.op())
        self.make_runner = lambda: None

    def op(self) -> Tuple[Path, dict]:
        root = self.root / f"run{next(self.runs)}"
        result = train_policies(
            scale=ExperimentScale.quick(), seed=self.seed,
            checkpoint_root=root, runner=self.make_runner(), verbose=False,
        )
        return root, result

    def _summary(self, output: Tuple[Path, dict]) -> Tuple[dict, dict]:
        """Checkpoint checksums and grid QoE of a run; removes its files."""
        root, result = output
        store = CheckpointStore(root)
        checksums = {
            name: store.metadata(name)["state_checksum"]
            for name in store.names()
        }
        shutil.rmtree(root)
        self.episodes = (
            len(result["policies"]) * DEFAULT_TRAINING.rounds
            * DEFAULT_TRAINING.episodes_per_round
        )
        return checksums, result["grid_mean_qoe"]

    def check(self, output: Tuple[Path, dict]) -> bool:
        return self._summary(output) == self.reference

    def units_per_op(self) -> float:
        return float(self.episodes)

    def trace_passes(self) -> List[Tuple[str, Callable[[], None]]]:
        def use(make: Callable[[], Optional[BatchRunner]]):
            def configure() -> None:
                self.make_runner = make
            return configure

        return [
            ("auto", use(lambda: None)),
            ("lockstep", use(lambda: BatchRunner(backend="lockstep"))),
        ]

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ProfileFull(BatchWorkload):
    """Profile all 16 videos with a fresh profiler per pass."""

    name = "profile_full"
    targets = PROFILE_TARGETS

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.setup()
        # The first pass is the reference (and the warm-up).
        self.reference = self.op()

    def setup(self) -> None:
        context = ExperimentContext(scale=ExperimentScale.full(), seed=self.seed)
        self.videos = context.videos()
        self.oracle = context.oracle
        self.scale = context.scale

    def op(self) -> Dict[str, Tuple[bytes, float]]:
        # Configured as ExperimentContext.profiler() configures it.
        profiler = SenseiProfiler(
            oracle=self.oracle,
            scheduler_config=SchedulerConfig(
                step1_ratings=self.scale.step1_ratings,
                step2_ratings=self.scale.step2_ratings,
            ),
            campaign_seed=self.seed + 11,
        )
        results = profiler.profile_videos(self.videos)
        return {
            video_id: (result.weights.tobytes(), result.total_cost_usd)
            for video_id, result in results.items()
        }

    def check(self, output: Dict[str, Tuple[bytes, float]]) -> bool:
        return output == self.reference

    def units_per_op(self) -> float:
        return float(len(self.videos))


# --------------------------------------------------------------------------
# Open-loop service workloads
# --------------------------------------------------------------------------

#: Standing sessions, split evenly over the two tenants.
SESSIONS = 128
#: Load the set-up's warm-up sends before timing starts.
WARMUP_S = 0.3
#: Finished sessions replayed offline per probe.
VERIFY_SESSIONS = 32


#: Width of the windows the service latency percentiles are taken over:
#: the median over windows keeps a burst of host noise in one second from
#: moving the run's figure.
WINDOW_S = 1.0


@dataclass
class ProbeResult:
    latencies_ms: List[float] = field(default_factory=list)
    #: Due time (s from the probe start) of each answered request.
    due_s: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    arrivals: int = 0
    errors: int = 0
    shed: int = 0
    cpu_s: float = 0.0
    finished: list = field(default_factory=list)


def poisson_schedule(seed: int, stream: int, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` per second."""
    rng = np.random.default_rng([seed, stream])
    count = int(rate * seconds * 1.5) + 64
    due = np.cumsum(rng.exponential(1.0 / rate, count))
    return due[due < seconds]


class OpenLoop:
    """Independent users arriving on a schedule, round-robin over sessions.

    Arrival ``i`` goes to session slot ``i % SESSIONS``.  When that session
    already has a request in flight the arrival queues at the client, and
    its latency still counts from when it was due.  A session that
    finishes is evicted and replaced by a newly registered one.
    """

    def __init__(self, service: DecisionService, videos, traces) -> None:
        self.service = service
        self.videos = videos
        self.traces = traces
        self.tenants = default_tenants(
            sessions_per_tenant=SESSIONS // 2, weight_ratio=4.0
        )
        self.cells = itertools.count()
        self.slots = [self._register(slot) for slot in range(SESSIONS)]

    def _register(self, slot: int):
        tenant = self.tenants[slot % len(self.tenants)]
        kind = tenant.abrs[(slot // len(self.tenants)) % len(tenant.abrs)]
        cell = next(self.cells)
        encoded = self.videos[cell % len(self.videos)]
        trace = self.traces[(cell // len(self.videos)) % len(self.traces)]
        return self.service.register(
            tenant=tenant.name,
            session_id=f"{kind}-{cell}",
            abr=ABR_FACTORIES[kind](),
            encoded=encoded,
            trace=trace,
            chunk_weights=(
                synthetic_weights(encoded.num_chunks) if kind == "sensei"
                else None
            ),
            weight=tenant.weight,
        )

    async def probe(
        self, due: np.ndarray, tracer: Optional[Tracer] = None
    ) -> ProbeResult:
        loop = asyncio.get_running_loop()
        result = ProbeResult(arrivals=len(due))
        busy = [False] * SESSIONS
        queued = [collections.deque() for _ in range(SESSIONS)]
        tasks: List[asyncio.Task] = []
        requests = itertools.count()

        async def decide(entry):
            if tracer is None:
                return await self.service.decide(entry.tenant, entry.session_id)
            with tracer.span(REQUEST_SPAN, op=next(requests)):
                return await self.service.decide(entry.tenant, entry.session_id)

        async def client(slot: int, due_at: float) -> None:
            while True:
                entry = self.slots[slot]
                try:
                    response = await decide(entry)
                except Exception:
                    result.errors += 1
                    traceback.print_exc(file=sys.stderr)
                else:
                    result.latencies_ms.append(1e3 * (loop.time() - due_at))
                    result.due_s.append(due_at - start)
                    result.shed += int(response.degraded)
                    if response.done:
                        result.finished.append(entry)
                        self.service.evict(entry.tenant, entry.session_id)
                        self.slots[slot] = self._register(slot)
                if not queued[slot]:
                    busy[slot] = False
                    return
                due_at = queued[slot].popleft()

        cpu_started = time.process_time()
        start = loop.time()
        index = 0
        while index < len(due):
            now = loop.time()
            while index < len(due) and start + due[index] <= now:
                slot = index % SESSIONS
                due_at = start + float(due[index])
                result.late_ms.append(1e3 * (now - due_at))
                if busy[slot]:
                    queued[slot].append(due_at)
                else:
                    busy[slot] = True
                    tasks.append(loop.create_task(client(slot, due_at)))
                index += 1
            if index < len(due):
                await asyncio.sleep(start + float(due[index]) - loop.time())
        await asyncio.gather(*tasks)
        result.cpu_s = time.process_time() - cpu_started
        return result

    @staticmethod
    def windows(probe: ProbeResult) -> List[List[float]]:
        """The probe's latencies grouped by the window their request was
        due in."""
        grouped: Dict[int, List[float]] = {}
        for due, latency in zip(probe.due_s, probe.latencies_ms):
            grouped.setdefault(int(due // WINDOW_S), []).append(latency)
        return [grouped[key] for key in sorted(grouped)]


class ServiceOpen:
    """Poisson arrivals at a fixed rate against the decision service."""

    def __init__(self, name: str, rate: float) -> None:
        self.name = name
        self.rate = float(rate)

    def execute(self, seed: int, seconds: float, trace: bool) -> Outcome:
        return asyncio.run(self._execute(seed, seconds, trace))

    async def _setup(self, seed: int) -> OpenLoop:
        context = ExperimentContext(scale=ExperimentScale.quick(), seed=seed)
        # No admission timeout (as ``make loadtest`` runs the service): at
        # these rates only a stalled host made the service shed, which
        # turned host noise into failures; a stall shows as latency instead.
        service = DecisionService(shed_timeout_s=None)
        load = OpenLoop(service, context.videos(), context.traces())
        await load.probe(poisson_schedule(seed, 0, self.rate, WARMUP_S))
        return load

    async def _execute(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            load = await self._setup(seed)
            outcome.setup_samples.append(time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                await load.service.close()
        try:
            if trace:
                untraced = await load.probe(
                    poisson_schedule(seed, 1, self.rate, seconds / 2)
                )
                mismatches = self._account(load, untraced, outcome)
                tracer = Tracer()
                with tracer.instrument(SERVICE_TARGETS):
                    probe = await load.probe(
                        poisson_schedule(seed, 2, self.rate, seconds / 2),
                        tracer,
                    )
                mismatches += self._account(load, probe, outcome)
                outcome.passes.append(TracedPass(
                    label="single", spans=tracer.spans,
                    ops=len(probe.latencies_ms),
                    traced_walls=probe.latencies_ms,
                    untraced_walls=untraced.latencies_ms,
                ))
                # Counts cover both halves; latencies come from the
                # untraced half, so tracing cost does not show in them.
                outcome.service = {
                    "service.decisions": len(untraced.latencies_ms)
                    + len(probe.latencies_ms),
                    "service.shed": untraced.shed + probe.shed,
                    "service.failed": untraced.errors + probe.errors,
                    "service.verify_mismatches": mismatches,
                    "service.decide_p90_ms": percentile(untraced.latencies_ms, 90),
                    "service.decide_p99_ms": percentile(untraced.latencies_ms, 99),
                    "loadgen.late_ms_p90": percentile(untraced.late_ms, 90),
                    "loadgen.late_ms_max": max(untraced.late_ms, default=0.0),
                }
            else:
                probe = await load.probe(
                    poisson_schedule(seed, 1, self.rate, seconds)
                )
                self._account(load, probe, outcome)
                outcome.op_windows = OpenLoop.windows(probe)
                outcome.work_per_s = len(probe.latencies_ms) / probe.cpu_s
        finally:
            await load.service.close()
        return outcome

    def _account(self, load: OpenLoop, probe: ProbeResult, outcome: Outcome) -> int:
        """Count the probe's requests and replay finished sessions offline;
        returns the number of mismatching sessions."""
        candidates = [e for e in probe.finished if not e.degraded]
        verdict = verify_online_offline(
            load.service, candidates[:VERIFY_SESSIONS]
        )
        mismatches = len(verdict["mismatches"])
        if mismatches:
            print(f"{self.name}: {mismatches} sessions diverged from offline",
                  file=sys.stderr)
        outcome.attempted += probe.arrivals + verdict["checked"]
        outcome.failed += probe.errors + probe.shed + mismatches
        outcome.incorrect += probe.errors + mismatches
        return mismatches


WORKLOADS: Dict[str, Callable[[], object]] = {
    "grid_full": GridFull,
    "service_r1000": lambda: ServiceOpen("service_r1000", 1000),
    "service_r2000": lambda: ServiceOpen("service_r2000", 2000),
    "train_quick": TrainQuick,
    "profile_full": ProfileFull,
}
