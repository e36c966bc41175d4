"""Shared lookahead planning machinery for MPC/Fugu-style ABR algorithms.

Both RobustMPC and Fugu enumerate candidate bitrate sequences over a short
horizon, simulate the buffer evolution under a throughput estimate, score
each candidate with a per-chunk quality model, and commit only the first
step.  SENSEI's variants use the same machinery but (a) weight each chunk's
quality by its sensitivity and (b) consider scheduling a proactive stall
before the next chunk.

Two engine-level optimisations keep trace-scale experiments fast:

* the candidate tree depends only on ``(num_levels, horizon, max_step,
  start_level)`` — the same handful of trees is rebuilt at every chunk of
  every session — so :func:`enumerate_level_sequences` memoises them;
* :func:`evaluate_candidates` scores the full (stall option x throughput
  scenario x candidate) cross product as one tensor instead of looping
  over stalls and scenarios in Python.  The loop-structured formulation
  survives as a test-only oracle (``evaluate_candidates_loop`` in
  ``tests/planner_oracle.py``) that the tensor path is tested against;
* :func:`evaluate_candidates_batch` stacks a *session* axis in front of that
  tensor — one 4-D ``(session x stall x scenario x candidate)`` evaluation
  scores a whole lockstep shard of sessions at once.  The single-session
  :func:`evaluate_candidates` is the batch kernel applied to a one-session
  stack, and the kernel deliberately uses only elementwise operations plus
  explicit loops over the small axes (horizon, scenarios, stalls), so adding
  sessions to the stack cannot change any session's floating-point result:
  the lockstep engine's bit-identity guarantee rests on this.
* the batch kernel itself runs over a precomputed per-tree **score arena**
  (:class:`_TreeArena`): gather indices and switch-term rows are derived
  once per (candidate tree, ladder) pair and every intermediate is a view
  into one grow-only scratch buffer, so a batch score is a single pass of
  in-place elementwise ops with no per-call temporaries.  It is the only
  implementation, always in float64; the pre-arena kernel survives as a
  test-only oracle (``tests/planner_oracle.py``) that the arena kernel is
  required to match bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import PlayerObservation
from repro.obs.metrics import register_collector
from repro.obs.trace import TRACE, record_span
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require


def _build_level_sequences(
    num_levels: int,
    horizon: int,
    max_step: Optional[int],
    start_level: Optional[int],
) -> np.ndarray:
    """Materialise a fresh, writable candidate matrix (unmemoised)."""
    if max_step is None:
        return np.array(
            list(product(range(num_levels), repeat=horizon)), dtype=int
        )
    sequences: List[Tuple[int, ...]] = []

    def extend(prefix: Tuple[int, ...]) -> None:
        if len(prefix) == horizon:
            sequences.append(prefix)
            return
        if prefix:
            previous = prefix[-1]
        elif start_level is not None and start_level >= 0:
            previous = start_level
        else:
            previous = None
        for level in range(num_levels):
            if previous is not None and abs(level - previous) > max_step:
                continue
            extend(prefix + (level,))

    extend(())
    require(bool(sequences), "level-change restriction pruned every candidate")
    return np.array(sequences, dtype=int)


@lru_cache(maxsize=4096)
def _cached_level_sequences(
    num_levels: int,
    horizon: int,
    max_step: Optional[int],
    start_level: Optional[int],
) -> np.ndarray:
    candidates = _build_level_sequences(num_levels, horizon, max_step, start_level)
    candidates.setflags(write=False)
    return candidates


def enumerate_level_sequences(num_levels: int, horizon: int,
                              max_step: Optional[int] = None,
                              start_level: Optional[int] = None) -> np.ndarray:
    """All candidate level sequences of length ``horizon``.

    ``max_step`` optionally restricts consecutive levels to differ by at most
    that many rungs (prunes the search space for long horizons);
    ``start_level`` applies the same restriction to the first chunk relative
    to the previously played level.

    The result is memoised on the argument tuple and returned as a
    **read-only** array — planners evaluate candidates without mutating
    them, and the same tree is requested at every chunk of every session.
    """
    require(num_levels >= 1, "num_levels must be >= 1")
    require(horizon >= 1, "horizon must be >= 1")
    # Canonicalise the memo key: callers pass a mix of Python ints and numpy
    # integer scalars (e.g. ``observation.last_level`` extracted from an
    # int array in the lockstep engine), and the batch engine relies on one
    # shared read-only tree per (num_levels, horizon, max_step, start_level)
    # signature — never a per-session rebuild.
    num_levels = int(num_levels)
    horizon = int(horizon)
    max_step = None if max_step is None else int(max_step)
    start_level = None if start_level is None else int(start_level)
    if max_step is None:
        start_level = None  # irrelevant without a step restriction
    elif start_level is not None and start_level < 0:
        start_level = None  # "no previous level" — same tree as None
    return _cached_level_sequences(num_levels, horizon, max_step, start_level)


def clear_plan_cache() -> None:
    """Drop all memoised candidate trees (tests and benchmarks).

    Also drops the derived per-matrix caches (prefix trees, switch-term
    constants, arenas): they hold strong references to the candidate
    matrices, so leaving them behind would pin every superseded tree in
    memory across clear/replan cycles.  The kernel scratch buffer restarts
    empty.
    """
    global _SCRATCH
    _cached_level_sequences.cache_clear()
    _PREFIX_TREES.clear()
    _SWITCH_TERMS.clear()
    _ARENAS.clear()
    _SCRATCH = np.empty(0)


def plan_cache_info():
    """``lru_cache`` statistics of the candidate-tree memo."""
    return _cached_level_sequences.cache_info()


#: The candidate-tree memo statistics the ``plan_cache.*`` gauges report.
PLAN_CACHE_STATS = ("hits", "misses", "currsize")


def _publish_plan_cache(registry) -> None:
    """Snapshot-time collector publishing the candidate-tree memo stats.

    Registered with the metrics registry so every snapshot — bench reports,
    ``python -m repro profile``, JSONL/Prometheus sinks — reads the same
    ``plan_cache.*`` gauges instead of each consumer poking at
    ``lru_cache`` introspection on its own.  Gauges, not counters:
    ``cache_info()`` is already cumulative for the process.  Each gauge
    adds the ``plan_cache.worker_*`` counters pool workers ship with their
    snapshots, so planning on the process backend counts too.
    """
    info = _cached_level_sequences.cache_info()
    for name in PLAN_CACHE_STATS:
        registry.gauge(f"plan_cache.{name}").set(
            getattr(info, name)
            + registry.counter_value(f"plan_cache.worker_{name}")
        )


register_collector(_publish_plan_cache)


#: Cache-blocked tiling target: the kernel-call working set (arena
#: workspace bytes per session x sessions) is sized to fit this budget —
#: one per-core L2's worth.
_KERNEL_L2_BYTES = 2 * 1024 * 1024

#: Hard ceiling on sessions per kernel call: beyond this the per-call
#: Python overhead is fully amortised and bigger tiles only grow latency.
_KERNEL_BLOCK_CAP = 64


@lru_cache(maxsize=1024)
def _block_sessions_cached(
    num_levels: int,
    horizon: int,
    max_step: Optional[int],
    num_scenarios: int,
    floor: int,
) -> int:
    candidates = enumerate_level_sequences(
        num_levels, horizon, max_step=max_step
    )
    nodes = [levels.size for levels, _ in _prefix_tree(candidates).steps]
    layout = _workspace_layout(nodes, 1, max(1, num_scenarios), num_levels)
    per_session_bytes = 8 * sum(math.prod(shape) for _, shape in layout)
    block = _KERNEL_L2_BYTES // max(1, per_session_bytes)
    return int(min(_KERNEL_BLOCK_CAP, max(floor, block)))


def kernel_block_sessions(
    num_levels: int,
    horizon: int,
    max_step: Optional[int],
    num_scenarios: int,
    floor: int = 12,
) -> int:
    """Sessions per kernel call for cache-blocked tiling.

    Chosen so one call's arena working set — states, download times and
    score rows over the ``(session x stall x scenario x candidate)``
    tensor — fits the L2 target, while never dropping below ``floor``
    (the coordinator's pre-arena ``SPLIT_ABOVE`` cap).  Deterministic in
    its arguments, so lockstep batching stays reproducible; the kernel's
    elementwise contract makes the block size invisible in the results
    either way.
    """
    return _block_sessions_cached(
        int(num_levels), int(horizon),
        None if max_step is None else int(max_step),
        int(num_scenarios), int(floor),
    )


@dataclass(frozen=True)
class PlanEvaluation:
    """Outcome of evaluating candidate plans.

    Attributes
    ----------
    best_level: bitrate level of the best plan's first chunk.
    best_stall_s: proactive stall chosen before the next chunk (0 for
        traditional planners).
    best_score: expected objective value of the best plan.
    expected_rebuffer_s: expected involuntary rebuffering time of the best
        plan over the horizon (useful as a risk signal).
    num_candidates: how many (plan, stall, throughput-scenario) combinations
        were evaluated — i.e. candidates x stall options x scenarios.
    """

    best_level: int
    best_stall_s: float
    best_score: float
    expected_rebuffer_s: float
    num_candidates: int


def evaluate_candidates(
    observation: PlayerObservation,
    candidates: np.ndarray,
    throughput_scenarios: Sequence[Tuple[float, float]],
    quality_model: KSQIModel,
    weights: Optional[np.ndarray] = None,
    stall_options_s: Sequence[float] = (0.0,),
    chunk_duration_s: Optional[float] = None,
) -> PlanEvaluation:
    """Score candidate level sequences and pick the best first action.

    Parameters
    ----------
    observation:
        The player observation (provides buffer level, upcoming sizes/quality
        and the previously played level).
    candidates:
        (num_candidates, horizon) matrix of level sequences.  The horizon
        must not exceed the observation's horizon.
    throughput_scenarios:
        (throughput_mbps, probability) pairs; the plan score is the
        probability-weighted expectation over them (Fugu's Eq. 3/4).
    quality_model:
        The per-chunk quality model ``q(b, t)`` (KSQI in the paper).
    weights:
        Sensitivity weights for the planned chunks (defaults to ones — the
        weight-unaware objective of Eq. 3).
    stall_options_s:
        Proactive-stall durations considered before the next chunk (SENSEI
        considers {0, 1, 2} s; traditional planners only 0).
    chunk_duration_s:
        Chunk playback duration; defaults to the observation's.

    The evaluation is :func:`evaluate_candidates_batch` applied to a
    one-session stack.  Routing the single-session path through the batch
    kernel is what makes the lockstep engine's results bit-identical to
    serial execution: both run the same kernel, whose per-session
    arithmetic is independent of the batch shape.
    """
    require(candidates.ndim == 2, "candidates must be a 2-D matrix")
    horizon = candidates.shape[1]
    require(horizon <= observation.horizon, "candidates exceed observation horizon")
    require(bool(throughput_scenarios), "need at least one throughput scenario")
    chunk_duration = (
        chunk_duration_s if chunk_duration_s is not None
        else observation.chunk_duration_s
    )
    if weights is None:
        weights = np.ones(horizon)
    weights = np.asarray(weights, dtype=float)[:horizon]
    require(weights.size == horizon, "weights must cover the planning horizon")

    batch = evaluate_candidates_batch(
        candidates=candidates,
        sizes=observation.upcoming_sizes_bytes[:horizon][None],
        quality=observation.upcoming_quality[:horizon][None],
        weights=weights[None, :],
        buffer_s=np.array([observation.buffer_s]),
        last_level=np.array([int(observation.last_level)]),
        scenario_tputs=np.array(
            [[t for t, _ in throughput_scenarios]], dtype=float
        ),
        scenario_probs=np.array(
            [[p for _, p in throughput_scenarios]], dtype=float
        ),
        bitrates_kbps=np.asarray(observation.ladder.bitrates_kbps, dtype=float),
        quality_model=quality_model,
        stall_options_s=stall_options_s,
        chunk_duration_s=chunk_duration,
        buffer_capacity_s=observation.buffer_capacity_s,
    )
    return PlanEvaluation(
        best_level=int(batch.best_level[0]),
        best_stall_s=float(batch.best_stall_s[0]),
        best_score=float(batch.best_score[0]),
        expected_rebuffer_s=float(batch.expected_rebuffer_s[0]),
        num_candidates=batch.num_candidates,
    )


def _per_session_or_scalar(value, num_sessions: int):
    """A scalar when every session shares the value, else an (N, 1, 1) view.

    Scalar operands keep the kernel's broadcasts on the fast ufunc path;
    the produced value is numerically identical either way.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    if arr.size and bool(np.all(arr == arr.flat[0])):
        return float(arr.flat[0])
    return np.broadcast_to(arr, (num_sessions,))[:, None, None]


#: Prefix trees memoised per read-only candidate matrix (the matrices the
#: planner uses come from :func:`_cached_level_sequences`, so there are only
#: a handful of distinct ones per process).  Strong references keep the
#: id()-keys valid.
_PREFIX_TREES: dict = {}

#: Small memo of ``np.arange`` index vectors used by the kernel.
_ARANGE: dict = {}


def _arange(size: int) -> np.ndarray:
    indices = _ARANGE.get(size)
    if indices is None:
        indices = np.arange(size)
        indices.setflags(write=False)
        _ARANGE[size] = indices
    return indices


class _CandidateTree:
    """The candidate prefix tree plus flattened per-node index vectors.

    ``steps`` holds one ``(levels, parents)`` pair per horizon step;
    ``flat_steps`` / ``flat_levels`` concatenate every step's nodes so the
    kernel can gather all node sizes (and divide by the scenario rates) in
    one shot, with ``offsets`` delimiting each step's slice.
    """

    __slots__ = ("steps", "flat_steps", "flat_levels", "offsets")

    def __init__(self, steps) -> None:
        self.steps = steps
        sizes = [levels.size for levels, _ in steps]
        self.offsets = [0]
        for size in sizes:
            self.offsets.append(self.offsets[-1] + size)
        self.flat_steps = np.concatenate(
            [
                np.full(levels.size, step, dtype=int)
                for step, (levels, _) in enumerate(steps)
            ]
        )
        self.flat_levels = np.concatenate([levels for levels, _ in steps])


def _prefix_tree(candidates: np.ndarray) -> _CandidateTree:
    """The candidate prefix tree of a (C, h) level-sequence matrix.

    Candidates sharing a prefix share buffer evolution: the kernel's
    horizon recursion runs over the *unique* prefixes of each length
    instead of every candidate at every step.  Equal prefixes are merged
    only when adjacent — which is always the case for the lexicographic
    trees :func:`enumerate_level_sequences` builds, and merely loses
    sharing (never correctness) for arbitrary matrices.  The final step
    never merges, so leaves map 1:1 onto candidate rows, in order.
    """
    key = id(candidates)
    cached = _PREFIX_TREES.get(key)
    if cached is not None and cached[0] is candidates:
        return cached[1]
    num_candidates, horizon = candidates.shape
    steps = []
    group = None  # previous-level node id per candidate row
    for step in range(horizon):
        if step == horizon - 1:
            steps.append((candidates[:, step].copy(), group))
            break
        boundary = np.ones(num_candidates, dtype=bool)
        boundary[1:] = np.any(
            candidates[1:, : step + 1] != candidates[:-1, : step + 1], axis=1
        )
        ids = np.cumsum(boundary) - 1
        first_rows = np.flatnonzero(boundary)
        parents = group[first_rows] if group is not None else None
        steps.append((candidates[first_rows, step].copy(), parents))
        group = ids
    tree = _CandidateTree(steps)
    if not candidates.flags.writeable:
        _PREFIX_TREES[key] = (candidates, tree)
    return tree


#: Per-(candidates, ladder) derived caches (switch-term constants, score
#: arenas).  Both are LRU-bounded: a long-lived decision service replanning
#: over many distinct ladders would otherwise grow them without limit.
#: Insertion-ordered ``OrderedDict``s with move-to-end on hit; evictions are
#: counted and published as ``planner.arena.*`` gauges.
_DERIVED_CACHE_CAP = 32
_SWITCH_TERMS: "OrderedDict" = OrderedDict()
_ARENAS: "OrderedDict" = OrderedDict()
_CACHE_EVICTIONS = {"switch_terms": 0, "arenas": 0}


def _lru_put(cache: "OrderedDict", key, value, counter: str) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > _DERIVED_CACHE_CAP:
        cache.popitem(last=False)
        _CACHE_EVICTIONS[counter] += 1


def _switch_constants(candidates: np.ndarray, bitrates: np.ndarray):
    """(candidate first-step bitrates, per-step later switch terms).

    Both depend only on the candidate matrix and the ladder, so they are
    shared by every kernel call planning over that pair.
    """
    key = (id(candidates), bitrates.tobytes())
    cached = _SWITCH_TERMS.get(key)
    if cached is not None and cached[0] is candidates:
        _SWITCH_TERMS.move_to_end(key)
        return cached[1], cached[2]
    candidate_bitrates = bitrates[candidates]               # (C, h)
    top_bitrate = bitrates[-1]
    first_bitrates = candidate_bitrates[:, 0].copy()
    later_switch = np.abs(
        candidate_bitrates[:, 1:] - candidate_bitrates[:, :-1]
    ) / top_bitrate                                         # (C, h-1)
    if not candidates.flags.writeable:
        _lru_put(
            _SWITCH_TERMS, key, (candidates, first_bitrates, later_switch),
            "switch_terms",
        )
    return first_bitrates, later_switch


def _workspace_layout(step_nodes: Sequence[int], num_sessions: int,
                      num_scenarios: int, width: int) -> list:
    """The arena kernel's float64 working set as ``(name, shape)`` pairs.

    ``step_nodes`` counts the candidate prefix tree's nodes per horizon step
    (the last count is the candidate count C); ``states`` and ``shortfall``
    get one entry per step.  Every shape has exactly one ``num_sessions``
    factor, so the layout at one session is the per-session footprint.
    """
    N, S = num_sessions, num_scenarios
    h, C = len(step_nodes), step_nodes[-1]
    per_candidate = ("first_switch", "quality_dot", "switch_dot", "static",
                     "step_product", "expected", "partial")
    return [
        ("dt_all", (N, S, h * width)), ("cq", (N, h, C)), ("rates", (N, S)),
        ("weight_total", (N,)), ("dt_flat", (N, S, sum(step_nodes))),
        *[(name, (N, C)) for name in per_candidate],
        *[("states", (2, N, S, n)) for n in step_nodes],
        *[("shortfall", (N, S, n)) for n in step_nodes],
    ]


#: The kernel's one float64 scratch buffer, shared by every arena and batch
#: shape and grown (never shrunk) to the largest call.  Safe to share: the
#: engine is process-parallel and the service single-loop asyncio, so kernel
#: calls never overlap, and the kernel returns only fresh arrays.
_SCRATCH = np.empty(0)


class _ArenaWorkspace:
    """The arena kernel's working set for one batch shape.

    Every array the kernel writes is a view carved, in
    :func:`_workspace_layout` order, from the front of ``_SCRATCH`` (no
    per-call allocation).  Shapes overlap; each call writes before reading.
    """

    __slots__ = (
        "dt_all", "cq", "first_switch", "quality_dot", "switch_dot",
        "static", "weight_total", "step_product", "states", "dt_flat",
        "dt_nodes", "shortfall", "expected", "partial", "rates",
    )

    def __init__(self, arena: "_TreeArena", num_sessions: int,
                 num_scenarios: int, width: int) -> None:
        global _SCRATCH
        layout = _workspace_layout(
            [levels.size for levels in arena.node_levels],
            num_sessions, num_scenarios, width,
        )
        floats = sum(math.prod(shape) for _, shape in layout)
        if _SCRATCH.size < floats:
            # grow, and drop every cached view set so none pins the old buffer
            _SCRATCH = np.empty(floats)
            for _, cached in _ARENAS.values():
                cached._workspaces.clear()
        self.states, self.shortfall = [], []
        offset = 0
        for name, shape in layout:
            view = _SCRATCH[offset:offset + math.prod(shape)].reshape(shape)
            offset += view.size
            if name in ("states", "shortfall"):
                getattr(self, name).append(view)
            else:
                setattr(self, name, view)
        # every step's dt nodes in one contiguous buffer filled by a single
        # gather; per-step slices are views delimited by the arena offsets
        off = arena.node_offsets
        self.dt_nodes = [
            self.dt_flat[:, :, off[k]:off[k + 1]]
            for k in range(len(arena.node_levels))
        ]


class _TreeArena:
    """Precomputed score arena for one (candidate tree, ladder) pair.

    Everything the batch kernel re-derived per call that depends only on
    the candidate matrix and the bitrate ladder is materialised once here:

    * the prefix-tree evolution order (per-step node levels/parents) and a
      concatenated gather index that pulls every tree node's download time
      out of the per-(session, scenario) dt table in one ``np.take``;
    * the flattened (step, level) quality gather indices, laid out so the
      gathered block is contiguous per step;
    * the switch-term rows: ``previous_bitrate`` takes at most L distinct
      values, so the first-chunk switch row — and, for uniform weights, the
      *entire* accumulated switch dot — collapses to one of L precomputed
      rows (built with the kernel's exact elementwise op sequence, so the
      gathered rows are bit-identical to computing them in the call);
    * per-shape view sets (:class:`_ArenaWorkspace`) into the shared
      scratch buffer, so fetching one is a dict lookup.
    """

    __slots__ = (
        "candidates", "C", "h", "L", "node_levels", "node_parents",
        "flat_steps", "flat_levels", "node_offsets", "first_levels",
        "build_seconds", "first_switch_rows", "later_switch_T",
        "_switch_dot_rows", "_scaled_rows", "_workspaces", "_gather_idx",
    )

    def __init__(self, candidates: np.ndarray, bitrates: np.ndarray) -> None:
        t0 = perf_counter()
        tree = _prefix_tree(candidates)
        C, h = candidates.shape
        L = bitrates.size
        self.candidates = candidates
        self.C, self.h, self.L = C, h, L
        self.node_levels = [levels for levels, _ in tree.steps]
        self.node_parents = [parents for _, parents in tree.steps]
        self.flat_steps = tree.flat_steps
        self.flat_levels = tree.flat_levels
        self.node_offsets = list(tree.offsets)
        self.first_levels = candidates[:, 0].copy()
        # gather indices depend on the per-session matrices' level width,
        # which can exceed L when mixed-ladder sessions share a shard (the
        # engine pads ``sizes``/``quality`` to the widest ladder); cached
        # per width in ``_gather_idx``
        self._gather_idx = {}

        first_bitrates, later_switch = _switch_constants(candidates, bitrates)
        later_switch_T = np.ascontiguousarray(later_switch.T)  # (h-1, C)
        # first-chunk switch rows per possible previous level, built with
        # the kernel's op sequence (subtract, abs, divide by the top rate)
        rows = np.empty((L, C))
        np.subtract(first_bitrates[None, :], bitrates[:, None], out=rows)
        np.abs(rows, out=rows)
        rows /= bitrates[-1]
        # uniform-weight switch dot: same left-fold order as the kernel loop
        sdot = rows.copy()
        for step in range(1, h):
            sdot += later_switch_T[step - 1][None, :]
        self.first_switch_rows = rows
        self.later_switch_T = later_switch_T
        self._switch_dot_rows = sdot
        self._scaled_rows = {}
        self._workspaces = {}
        self.build_seconds = perf_counter() - t0

    def gather_indices(self, width: int):
        """(quality, dt) gather index vectors for level-width ``width``.

        ``q_idx`` gathers the (h, C) candidate quality block out of a
        flattened (N, h*width) quality matrix, transposed so each step's
        row is contiguous; ``dt_idx`` gathers every tree node's download
        time out of the (N, S, h*width) dt table in one ``np.take``.
        """
        cached = self._gather_idx.get(width)
        if cached is None:
            q_idx = (
                np.arange(self.h)[:, None] * width + self.candidates.T
            ).astype(np.intp).reshape(-1)
            dt_idx = (self.flat_steps * width + self.flat_levels).astype(np.intp)
            cached = (q_idx, dt_idx)
            self._gather_idx[width] = cached
        return cached

    def scaled_switch_rows(self, switch_weight: float) -> np.ndarray:
        rows = self._scaled_rows.get(switch_weight)
        if rows is None:
            rows = switch_weight * self._switch_dot_rows
            self._scaled_rows[switch_weight] = rows
        return rows

    def workspace(self, num_sessions: int, num_scenarios: int,
                  width: int) -> _ArenaWorkspace:
        key = (num_sessions, num_scenarios, width)
        ws = self._workspaces.get(key)
        if ws is None:
            ws = _ArenaWorkspace(self, num_sessions, num_scenarios, width)
            self._workspaces[key] = ws
        return ws


_ARENA_BUILDS = {"count": 0, "seconds": 0.0}


def _arena_for(candidates: np.ndarray, bitrates: np.ndarray) -> _TreeArena:
    key = (id(candidates), bitrates.tobytes())
    cached = _ARENAS.get(key)
    if cached is not None and cached[0] is candidates:
        _ARENAS.move_to_end(key)
        return cached[1]
    arena = _TreeArena(candidates, bitrates)
    _ARENA_BUILDS["count"] += 1
    _ARENA_BUILDS["seconds"] += arena.build_seconds
    if not candidates.flags.writeable:
        _lru_put(_ARENAS, key, (candidates, arena), "arenas")
    return arena


def _publish_arena_stats(registry) -> None:
    """Snapshot-time collector for the ``planner.arena.*`` gauges."""
    registry.gauge("planner.arena.cached").set(len(_ARENAS))
    registry.gauge("planner.arena.builds").set(_ARENA_BUILDS["count"])
    registry.gauge("planner.arena.build_seconds").set(
        round(_ARENA_BUILDS["seconds"], 6)
    )
    registry.gauge("planner.arena.workspace_bytes").set(_SCRATCH.nbytes)
    registry.gauge("planner.arena.evictions").set(_CACHE_EVICTIONS["arenas"])
    registry.gauge("planner.arena.switch_term_evictions").set(
        _CACHE_EVICTIONS["switch_terms"]
    )


register_collector(_publish_arena_stats)


@dataclass(frozen=True)
class BatchPlanEvaluation:
    """Per-session outcome of one batched candidate evaluation.

    Attributes mirror :class:`PlanEvaluation`, with one array entry per
    session in the batch; ``num_candidates`` is the per-session evaluated
    count (candidates x stall options x scenarios — identical across the
    batch by construction).
    """

    best_level: np.ndarray
    best_stall_s: np.ndarray
    best_score: np.ndarray
    expected_rebuffer_s: np.ndarray
    num_candidates: int


def evaluate_candidates_batch(
    candidates: np.ndarray,
    sizes: np.ndarray,
    quality: np.ndarray,
    weights: np.ndarray,
    buffer_s: np.ndarray,
    last_level: np.ndarray,
    scenario_tputs: np.ndarray,
    scenario_probs: np.ndarray,
    bitrates_kbps: np.ndarray,
    quality_model: KSQIModel,
    stall_options_s: Sequence[float],
    chunk_duration_s,
    buffer_capacity_s,
    candidate_mask: Optional[np.ndarray] = None,
    need_expected_rebuffer: bool = True,
    weights_uniform: Optional[bool] = None,
) -> BatchPlanEvaluation:
    """Score one candidate tree for a whole batch of sessions at once.

    The 4-D ``(session, stall, scenario, candidate)`` generalisation of the
    single-session tensor evaluation.  Every session in the batch must share
    the candidate matrix, the bitrate ladder, the stall options and the
    scenario *count*; everything else (buffer levels, upcoming sizes and
    quality, sensitivity weights, scenario values) is per-session.

    Bit-identity contract: the kernel uses only elementwise array
    operations, gathers, and explicit Python loops over the small axes
    (horizon steps, scenarios, stall options).  Elementwise IEEE-754
    arithmetic is independent of batch shape, so each session's results are
    bitwise equal to evaluating it alone — which is exactly what the serial
    planners do (:func:`evaluate_candidates` routes through this kernel
    with a one-session stack).  Reductions must stay explicit loops: a
    BLAS-backed ``@`` or ``einsum`` may reassociate sums differently for
    different batch shapes.

    ``candidate_mask`` lets sessions whose *own* candidate tree is a
    first-level-filtered subset of ``candidates`` share one call: a
    ``max_step`` tree for a given previous level is exactly the
    unrestricted-start tree filtered on the first level, in the same
    enumeration order, so masking the invalid candidates to ``-inf`` before
    the (first-maximum) selection reproduces the per-session evaluation —
    including tie-breaks — bit for bit.

    Parameters
    ----------
    candidates: (C, h) shared level-sequence matrix.
    sizes / quality: (N, h, L) per-session upcoming-chunk matrices.
    weights: (N, h) per-session sensitivity weights over the horizon.
    buffer_s: (N,) current buffer occupancies.
    last_level: (N,) previously played levels (-1 for none).
    scenario_tputs / scenario_probs: (N, S) throughput scenarios.
    bitrates_kbps: (L,) shared encoding ladder.
    quality_model: shared per-chunk quality model.
    stall_options_s: shared proactive-stall options, in consideration order.
    chunk_duration_s / buffer_capacity_s: scalars or (N,) arrays.
    candidate_mask: optional (N, C) bool — False marks candidates a session
        must not select (each session needs at least one True entry).
    need_expected_rebuffer: skip the rebuffer-expectation accumulation when
        the caller ignores it (``expected_rebuffer_s`` returns zeros); the
        selected levels, stalls and scores are unaffected.
    weights_uniform: pass True only when every weight is exactly 1.0 (skips
        the in-kernel check and the weight multiplies, which are bit-exact
        no-ops then); False always takes the general path, which is also
        correct for uniform weights.  None (default) checks the array.

    Implementation: one float64 pass over the (candidate tree, ladder)
    pair's score arena (:class:`_TreeArena`).  Operation for operation it
    is the elementwise sequence of the pre-arena kernel kept as the test
    oracle (``tests/planner_oracle.py``) — same operands, same order, same
    left-fold accumulations — so it is bit-identical to it (differentially
    enforced by the test suite).  What the arena changes is *where* the
    data lives and how it gets there:

    * all writes land in views of the one shared scratch buffer, carved
      once per batch shape (no per-call temporaries, no allocator churn);
    * gathers use precomputed contiguous index vectors (``np.take`` with
      ``mode="clip"`` onto preallocated outputs — clip is never exercised,
      it just selects numpy's unbuffered fast path);
    * download times are h*L divisions per (session, scenario) gathered to
      tree nodes, instead of |nodes| divisions (node dt depends only on the
      (step, level) cell, so gathering the quotient is bit-identical);
    * the switch-term block collapses to one row-gather from the arena's
      precomputed tables (uniform weights), and the final step's shortfall
      is computed in place over the gathered dt nodes (single-stall calls).
    """
    # Manual span timing (no context manager) on the hottest call site in
    # the engine; the kernel has a single exit, so no try/finally needed.
    if TRACE.enabled:
        _span_t0 = perf_counter()

    num_sessions, horizon = weights.shape
    num_scenarios = scenario_tputs.shape[1]
    bitrates = np.asarray(bitrates_kbps, dtype=float)
    coeffs = quality_model.coefficients
    arena = _arena_for(candidates, bitrates)
    C = arena.C
    # sizes/quality may be padded wider than the ladder when mixed-ladder
    # sessions share a shard; candidates only ever index the real levels
    width = sizes.shape[2]
    ws = arena.workspace(num_sessions, num_scenarios, width)
    first_switch_rows = arena.first_switch_rows
    later_switch_T = arena.later_switch_T
    dt_idx_flat = arena.gather_indices(width)[1]

    sizes = np.asarray(sizes, dtype=float)
    quality = np.asarray(quality, dtype=float)
    weights = np.asarray(weights, dtype=float)
    buffer_s = np.asarray(buffer_s, dtype=float)
    scenario_tputs = np.asarray(scenario_tputs, dtype=float)
    scenario_probs = np.asarray(scenario_probs, dtype=float)

    uniform_weights = (
        bool(np.all(weights == 1.0))
        if weights_uniform is None else weights_uniform
    )
    prev_row = np.maximum(last_level, 0)

    # --- static scores: quality + switch terms + intercept ---------------
    q_width = quality.shape[2]
    qflat = quality.reshape(num_sessions, horizon * q_width)
    np.take(qflat, arena.gather_indices(q_width)[0], axis=1,
            out=ws.cq.reshape(num_sessions, horizon * C), mode="clip")
    cq = ws.cq                                              # (N, h, C)
    quality_dot = ws.quality_dot
    static_scores = ws.static
    tmp = ws.step_product                                   # scratch (N, C)
    if uniform_weights:
        # weight_total left-folds 1.0 h times -> exactly float(horizon);
        # the switch dot depends only on last_level -> precomputed row
        quality_dot[:] = cq[:, 0, :]
        for step in range(1, horizon):
            quality_dot += cq[:, step, :]
        np.multiply(quality_dot, coeffs.quality_weight / 100.0,
                    out=static_scores)
        np.add(static_scores, coeffs.intercept * float(horizon),
               out=static_scores)
        scaled_rows = arena.scaled_switch_rows(coeffs.switch_weight)
        np.take(scaled_rows, prev_row, axis=0, out=tmp, mode="clip")
        np.subtract(static_scores, tmp, out=static_scores)
    else:
        np.take(first_switch_rows, prev_row, axis=0,
                out=ws.first_switch, mode="clip")
        weight_total = ws.weight_total
        weight_total[:] = weights[:, 0]
        switch_dot = ws.switch_dot
        np.multiply(cq[:, 0, :], weights[:, 0, None], out=quality_dot)
        np.multiply(ws.first_switch, weights[:, 0, None], out=switch_dot)
        for step in range(1, horizon):
            weight_total += weights[:, step]
            np.multiply(cq[:, step, :], weights[:, step, None], out=tmp)
            quality_dot += tmp
            np.multiply(later_switch_T[step - 1][None, :],
                        weights[:, step, None], out=tmp)
            switch_dot += tmp
        np.multiply(quality_dot, coeffs.quality_weight / 100.0,
                    out=static_scores)
        np.multiply(weight_total[:, None], coeffs.intercept, out=tmp)
        np.add(tmp, static_scores, out=static_scores)
        np.multiply(switch_dot, coeffs.switch_weight, out=tmp)
        np.subtract(static_scores, tmp, out=static_scores)

    # --- download times for every tree node ------------------------------
    rates = ws.rates
    np.maximum(scenario_tputs, 1e-3, out=rates)
    rates *= 1e6 / 8.0
    stalls = np.asarray(stall_options_s, dtype=float)
    num_stalls = stalls.size
    chunk_gain = _per_session_or_scalar(chunk_duration_s, num_sessions)
    capacity = _per_session_or_scalar(buffer_capacity_s, num_sessions)

    # h*L divisions per (session, scenario), then one concatenated gather
    # fans the quotients out to every tree node
    np.divide(sizes.reshape(num_sessions, 1, horizon * width),
              rates[:, :, None], out=ws.dt_all)
    np.take(ws.dt_all, dt_idx_flat, axis=2, out=ws.dt_flat,
            mode="clip")
    dt_nodes = ws.dt_nodes

    session_index = _arange(num_sessions)
    inv_mask = None if candidate_mask is None else ~candidate_mask
    best_score = None
    best_level = None
    best_stall = None
    best_candidate = None

    node_parents = arena.node_parents
    states = ws.states
    for stall_index in range(num_stalls):
        start_levels = buffer_s + float(stalls[stall_index])
        for step in range(horizon):
            state = states[step]
            dt = dt_nodes[step]
            if step == 0:
                state[0] = start_levels[:, None, None]
                state[1] = 0.0
            else:
                np.take(states[step - 1], node_parents[step], axis=3,
                        out=state, mode="clip")
            parent_buffers = state[0]
            parent_weighted = state[1]
            if step == horizon - 1 and num_stalls == 1:
                # final step, single stall: dt is not reused afterwards, so
                # the shortfall (and its weighting) is computed in place
                # over the gathered dt
                np.subtract(dt, parent_buffers, out=dt)
                np.maximum(dt, 0.0, out=dt)
                if not uniform_weights:
                    dt *= weights[:, step, None, None]
                parent_weighted += dt
                continue
            shortfall = ws.shortfall[step]
            np.subtract(dt, parent_buffers, out=shortfall)
            np.maximum(shortfall, 0.0, out=shortfall)
            if not uniform_weights:
                # same multiply-then-add sequence as the oracle kernel,
                # just landing in the shortfall scratch instead of a fresh
                # temporary (shortfall is dead after this accumulation)
                shortfall *= weights[:, step, None, None]
            parent_weighted += shortfall
            if step < horizon - 1:
                np.subtract(parent_buffers, dt, out=parent_buffers)
                np.maximum(parent_buffers, 0.0, out=parent_buffers)
                parent_buffers += chunk_gain
                np.minimum(parent_buffers, capacity, out=parent_buffers)
        weighted_rebuffer = states[horizon - 1][1]

        plan_scores = weighted_rebuffer                     # (N, S, C)
        np.multiply(plan_scores, coeffs.rebuffer_weight, out=plan_scores)
        np.subtract(static_scores[:, None, :], plan_scores, out=plan_scores)
        if stalls[stall_index] != 0.0:
            stall_penalty = (
                coeffs.rebuffer_weight * stalls[stall_index] * weights[:, 0]
            )
            np.subtract(plan_scores, stall_penalty[:, None, None],
                        out=plan_scores)
        expected_scores = ws.expected
        np.multiply(scenario_probs[:, 0, None], plan_scores[:, 0, :],
                    out=expected_scores)
        partial = ws.partial
        for scenario in range(1, num_scenarios):
            np.multiply(scenario_probs[:, scenario, None],
                        plan_scores[:, scenario, :], out=partial)
            expected_scores += partial

        if inv_mask is not None:
            np.copyto(expected_scores, -np.inf, where=inv_mask)

        top = np.argmax(expected_scores, axis=1)
        score = expected_scores[session_index, top]         # fresh array
        if best_score is None:
            best_score = score
            best_level = arena.first_levels[top]
            best_stall = np.full(num_sessions, float(stalls[stall_index]))
            best_candidate = top
            continue
        better = score > best_score
        best_score = np.where(better, score, best_score)
        best_level = np.where(better, arena.first_levels[top], best_level)
        best_stall = np.where(better, stalls[stall_index], best_stall)
        best_candidate = np.where(better, top, best_candidate)

    if need_expected_rebuffer:
        # The caller only ever reads the rebuffer expectation of the
        # *chosen* plan, so it is recomputed here along each session's
        # single winning path instead of being tracked for every candidate
        # through the main recursion.  Same download times, same buffer
        # recursion, same accumulation order — bit-identical values at a
        # tiny fraction of the traffic.
        step_index = _arange(horizon)
        path_levels = candidates[best_candidate]            # (N, h)
        path_sizes = sizes[
            session_index[:, None], step_index[None, :], path_levels
        ]                                                   # (N, h)
        path_dt = path_sizes[:, None, :] / rates[:, :, None]
        path_gain = (
            chunk_gain if isinstance(chunk_gain, float) else chunk_gain[:, :, 0]
        )
        path_capacity = (
            capacity if isinstance(capacity, float) else capacity[:, :, 0]
        )
        path_buffer = np.empty((num_sessions, num_scenarios))
        path_buffer[:] = (buffer_s + best_stall)[:, None]
        path_total = np.zeros_like(path_buffer)
        for step in range(horizon):
            dt = path_dt[:, :, step]
            shortfall = dt - path_buffer
            np.maximum(shortfall, 0.0, out=shortfall)
            path_total += shortfall
            if step < horizon - 1:
                np.subtract(path_buffer, dt, out=path_buffer)
                np.maximum(path_buffer, 0.0, out=path_buffer)
                path_buffer += path_gain
                np.minimum(path_buffer, path_capacity, out=path_buffer)
        best_rebuffer = scenario_probs[:, 0] * path_total[:, 0]
        for scenario in range(1, num_scenarios):
            best_rebuffer = (
                best_rebuffer
                + scenario_probs[:, scenario] * path_total[:, scenario]
            )
    else:
        best_rebuffer = np.zeros(num_sessions)

    result = BatchPlanEvaluation(
        best_level=best_level,
        best_stall_s=best_stall,
        best_score=best_score,
        expected_rebuffer_s=best_rebuffer,
        num_candidates=C * num_stalls * num_scenarios,
    )
    if TRACE.enabled:
        record_span("planner.kernel", perf_counter() - _span_t0)
    return result
