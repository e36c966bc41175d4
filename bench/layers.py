"""Which public functions are timed as which layer, and the per-layer metrics.

Every ``*_s`` metric except ``training.profile_s`` is the layer's *self*
time (its spans' durations minus the nested layer spans they contain) per
operation, so the layer times of one operation partition its wall time.
``*_calls`` and other counts are per operation too; ``*_ms_per_call`` and
``*_ms_pNN`` metrics are over whole calls.  A layer a workload never
reaches reads 0.
"""

from __future__ import annotations

import bisect
import pickle
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench.stats import percentile
from bench.tracer import Span, Target, self_times

#: Root span of one timed operation (sweep, training run, profiling pass).
OP_SPAN = "bench.op"
#: Root span of one decision request in the service workloads.
REQUEST_SPAN = "service.request"


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.iterdir() if item.is_file())


ENGINE_TARGETS = (
    Target("repro.engine.runner:BatchRunner", "run_orders", "engine.dispatch",
           extra=lambda args, kwargs, result: list(args[1])),
    Target("repro.engine.lockstep", "run_orders_lockstep", "lockstep.run"),
    Target("repro.engine.lockstep", "evaluate_candidates_batch",
           "planner.kernel",
           extra=lambda args, kwargs, result: len(kwargs["buffer_s"])),
    Target("repro.player.shard:ShardState", "step", "player.step"),
    Target("repro.qoe.ground_truth:GroundTruthOracle", "true_qoe", "qoe.oracle",
           extra=lambda args, kwargs, result: args[1].render_id or id(args[1])),
)

PROFILE_TARGETS = (
    Target("repro.qoe.ground_truth:GroundTruthOracle", "true_qoe", "qoe.oracle",
           extra=lambda args, kwargs, result: args[1].render_id or id(args[1])),
    Target("repro.crowd.campaign:MTurkCampaign", "run", "crowd.campaign",
           extra=lambda args, kwargs, result: len(result.records)),
    Target("repro.core.profiler", "infer_weights", "core.infer"),
    Target("repro.core.profiler", "render_pristine", "video.render"),
    Target("repro.core.scheduler:TwoStepScheduler", "step1_schedule",
           "video.render"),
    Target("repro.core.scheduler:TwoStepScheduler", "step2_schedule",
           "video.render"),
    Target("repro.core.profiler:SenseiProfiler", "profile_video",
           "core.profile"),
)

TRAIN_TARGETS = ENGINE_TARGETS + PROFILE_TARGETS[1:] + (
    Target("repro.training.collector:RolloutCollector", "collect",
           "training.collect",
           extra=lambda args, kwargs, result: len(result)),
    Target("repro.ml.rl:ActorCriticAgent", "train_on_episode",
           "training.update"),
    Target("repro.training.trainer", "evaluate_policy", "training.eval"),
    Target("repro.training.pipeline", "evaluate_policy", "training.eval"),
    Target("repro.training.checkpoint:CheckpointStore", "save",
           "training.checkpoint",
           extra=lambda args, kwargs, result: _dir_bytes(
               Path(args[0].root) / args[2])),
    Target("repro.ml.rl:ActorCriticAgent", "action_probabilities_batch",
           "ml.forward",
           extra=lambda args, kwargs, result: len(args[1])),
)

SERVICE_TARGETS = (
    Target("repro.service.fairsched:WeightedFairScheduler", "acquire",
           "service.admission"),
    Target("repro.service.batcher:AdaptiveBatcher", "submit",
           "service.window"),
    Target("repro.service.service", "decide_batch", "service.flush",
           extra=lambda args, kwargs, result: len(args[0])),
    Target("repro.service.decisions", "plan_batch", "service.kernel"),
    Target("repro.service.service:DecisionService", "register",
           "service.register"),
    Target("repro.engine.lockstep", "evaluate_candidates_batch",
           "planner.kernel",
           extra=lambda args, kwargs, result: len(kwargs["buffer_s"])),
)


@dataclass
class TracedPass:
    """The spans of one traced pass and the wall times it measured."""

    label: str
    spans: List[Span] = field(default_factory=list)
    ops: int = 0
    traced_walls: List[float] = field(default_factory=list)
    untraced_walls: List[float] = field(default_factory=list)

    def overhead(self) -> float:
        if not self.traced_walls or not self.untraced_walls:
            return 0.0
        return statistics.median(self.traced_walls) / statistics.median(
            self.untraced_walls
        )


class _Layers:
    """Self time, calls and extras per span name for one pass."""

    def __init__(self, traced: TracedPass) -> None:
        self.ops = max(traced.ops, 1)
        self.groups: Dict[str, List[Span]] = {}
        for span in traced.spans:
            self.groups.setdefault(span.name, []).append(span)
        self.selfs = self_times(traced.spans)

    def spans(self, name: str) -> List[Span]:
        return self.groups.get(name, [])

    def self_s(self, name: str) -> float:
        return sum(self.selfs[s.id] for s in self.spans(name)) / self.ops

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.spans(name)) / self.ops

    def calls(self, name: str) -> float:
        return len(self.spans(name)) / self.ops

    def extra_sum(self, name: str) -> float:
        return float(sum(s.extra for s in self.spans(name)))

    def durations_ms(self, name: str) -> List[float]:
        return [1e3 * s.duration for s in self.spans(name)]


def _per_call(total: float, calls: float) -> float:
    """``total / calls``, or 0 for a layer that was never called."""
    return total / calls if calls else 0.0


def layer_metrics(
    passes: Sequence[TracedPass], service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from traced passes.

    Engine, oracle, crowd and training layers come from the ``auto`` pass
    (the backend users get); kernel, stepping and RL-forward layers from
    the ``lockstep`` pass, because process-pool workers are not traced.
    A workload with one pass takes everything from it.
    """
    by_label = {p.label: p for p in passes}
    system = _Layers(by_label.get("auto", passes[0]))
    inner_pass = by_label.get("lockstep", passes[0])
    inner = _Layers(inner_pass)
    metrics: Dict[str, float] = {}

    dispatches = system.spans("engine.dispatch")
    order_bytes = [
        len(pickle.dumps(s.extra, protocol=pickle.HIGHEST_PROTOCOL))
        for s in dispatches
    ]
    metrics.update({
        "engine.dispatch_s": system.self_s("engine.dispatch"),
        "engine.dispatch_calls": system.calls("engine.dispatch"),
        "engine.dispatch_ms_per_call": 1e3 * _per_call(
            system.total_s("engine.dispatch"), system.calls("engine.dispatch")
        ),
        "engine.orders_bytes": (
            statistics.mean(order_bytes) if order_bytes else 0.0
        ),
        "lockstep.self_s": inner.self_s("lockstep.run"),
        "planner.kernel_s": inner.self_s("planner.kernel"),
        "planner.kernel_calls": inner.calls("planner.kernel"),
        "planner.rows_per_call": _per_call(
            inner.extra_sum("planner.kernel"), len(inner.spans("planner.kernel"))
        ),
        "player.step_s": inner.self_s("player.step"),
        "player.step_calls": inner.calls("player.step"),
    })

    oracle = system.spans("qoe.oracle")
    unique = len({(s.op, s.extra) for s in oracle})
    metrics.update({
        "qoe.oracle_s": system.self_s("qoe.oracle"),
        "qoe.oracle_calls": system.calls("qoe.oracle"),
        "qoe.renderings_per_oracle_call": _per_call(unique, len(oracle)),
        "crowd.campaign_s": system.self_s("crowd.campaign"),
        "crowd.ratings": system.extra_sum("crowd.campaign") / system.ops,
        "core.infer_s": system.self_s("core.infer"),
        "video.render_s": system.self_s("video.render"),
        "core.profile_self_s": system.self_s("core.profile"),
    })

    metrics.update({
        "training.collect_s": system.self_s("training.collect"),
        "training.collect_calls": system.calls("training.collect"),
        "training.episodes": system.extra_sum("training.collect") / system.ops,
        "training.update_s": system.self_s("training.update"),
        "training.eval_s": system.self_s("training.eval"),
        "training.checkpoint_s": system.self_s("training.checkpoint"),
        "training.checkpoint_bytes": (
            system.extra_sum("training.checkpoint") / system.ops
        ),
        "training.profile_s": system.total_s("core.profile"),
        "ml.forward_s": inner.self_s("ml.forward"),
        "ml.forward_calls": inner.calls("ml.forward"),
        "ml.forward_rows_per_call": _per_call(
            inner.extra_sum("ml.forward"), len(inner.spans("ml.forward"))
        ),
    })

    flush_sizes = [float(s.extra) for s in system.spans("service.flush")]
    metrics.update({
        "service.admission_wait_ms_p50": percentile(
            system.durations_ms("service.admission"), 50),
        "service.admission_wait_ms_p90": percentile(
            system.durations_ms("service.admission"), 90),
        "service.window_wait_ms_p50": percentile(_window_waits(system), 50),
        "service.window_wait_ms_p90": percentile(_window_waits(system), 90),
        "service.flush_ms_p50": percentile(
            system.durations_ms("service.flush"), 50),
        "service.flush_ms_p90": percentile(
            system.durations_ms("service.flush"), 90),
        "service.kernel_ms_p50": percentile(
            system.durations_ms("service.kernel"), 50),
        "service.batch_size_mean": (
            statistics.mean(flush_sizes) if flush_sizes else 0.0
        ),
        "service.batch_size_p90": percentile(flush_sizes, 90),
        "service.register_ms_p50": percentile(
            system.durations_ms("service.register"), 50),
        "service.registers": float(len(system.spans("service.register"))),
    })
    service = service or {}
    for name in (
        "service.decisions", "service.shed", "service.failed",
        "service.verify_mismatches", "service.decide_p90_ms",
        "service.decide_p99_ms",
        "loadgen.late_ms_p90", "loadgen.late_ms_max",
    ):
        metrics[name] = float(service.get(name, 0.0))

    # Share of the traced operations' wall time in no named layer: the
    # root spans' own self time over their duration.
    roots = inner.spans(OP_SPAN) + inner.spans(REQUEST_SPAN)
    metrics["trace.overhead"] = inner_pass.overhead()
    metrics["trace.unattributed_share"] = _per_call(
        sum(inner.selfs[s.id] for s in roots), sum(s.duration for s in roots)
    )
    return metrics


def _window_waits(layers: _Layers) -> List[float]:
    """Per request: from entering the batch window to the start of the
    flush that answered it (the first flush to start after it entered,
    because a flush takes the whole window)."""
    flushes = sorted(s.start for s in layers.spans("service.flush"))
    waits = []
    for span in layers.spans("service.window"):
        index = bisect.bisect_left(flushes, span.start)
        if index < len(flushes) and flushes[index] <= span.end:
            waits.append(1e3 * (flushes[index] - span.start))
    return waits


def accounting_error(traced: TracedPass) -> float:
    """Largest relative gap, over the pass's operations, between the sum of
    every span's self time within the operation and the operation's wall
    time (0 when spans nest cleanly)."""
    selfs = self_times(traced.spans)
    per_op: Dict[int, float] = {}
    walls: Dict[int, float] = {}
    for span in traced.spans:
        if span.op is None:
            continue
        per_op[span.op] = per_op.get(span.op, 0.0) + selfs[span.id]
        if span.parent is None:
            walls[span.op] = span.duration
    return max(
        (abs(per_op[op] / wall - 1.0) for op, wall in walls.items() if wall),
        default=0.0,
    )
