"""Lockstep multi-session simulation: batch the planner across sessions.

The serial backend walks one :class:`~repro.engine.runner.WorkOrder` at a
time (``WorkOrder.run``), so a grid sweep pays the per-chunk Python and
small-numpy-op overhead once per *session*.  The lockstep core runs a whole
shard of work orders together, chunk-step by chunk-step:

* every session's mutable state lives as one row of a
  :class:`~repro.player.shard.ShardState` — the structure-of-arrays
  counterpart of :class:`~repro.player.session.SessionState` — and the
  whole shard's download times, buffer evolution, stall accounting and
  history rings advance per chunk step as a handful of numpy array
  operations (one batched trace integral per distinct trace) instead of a
  per-session Python loop;
* for the planner ABR families (MPC, Fugu, SENSEI-Fugu) the per-decision
  hot path — throughput prediction and candidate scoring — is evaluated
  *across sessions*: the predictor's own batched method runs on the
  group's rows (its state kept as arrays over the shard), planner inputs (buffer levels, histories, previous levels) are sliced
  straight out of the SoA arrays, and each family's batched *planner
  round* (:func:`plan_round`, :func:`sensei_round` — the latter holding
  SENSEI's stall gate and budgets) emits plan requests that
  :func:`plan_batch` merges into
  :func:`~repro.abr.planner.evaluate_candidates_batch` calls, one stacked
  ``(session x stall x scenario x candidate)`` tensor per candidate-tree
  group.  The decision service (:mod:`repro.service.decisions`) runs the
  same rounds through the same :func:`plan_batch`, with a flush's stacked
  observations in place of the shard;
* the Pensieve-family RL policies (greedy *and* exploration mode) run
  through a dedicated batched driver: :meth:`PensieveABR.encode_states`
  encodes per-session states straight off the SoA shard arrays, the
  actor MLP runs one forward per
  decision round across the whole group (row-stable matmuls — see
  :func:`repro.ml.nn.row_matmul`), greedy actions are per-row argmaxes
  and sampled actions draw from per-session RNG streams pinned by each
  order's ``exploration_seed``, and
  :meth:`PensieveABR.decisions_for_actions` maps actions to levels and
  stalls;
* BBA maps the group's buffer array through
  :meth:`BufferBasedABR.levels_for_buffers`;
* every other ABR (rate-based, RL subclasses with overridden
  ``decide``, …) runs through a generic per-session driver: one reset
  clone of the ABR per session, decisions taken one session at a time
  against observations served from the shard rows — the exact
  observations the serial path builds — still amortising the shared SoA
  chunk-step.

No driver keeps a copy of an ABR's per-decision arithmetic: each batched
method lives on its ABR class, and the scalar method serial ``decide``
calls is its one-row call (checked against the scalar bodies kept in
``tests/abr_oracle.py`` by ``tests/test_abr_batch.py``).

Bit-identity rests on elementwise-only numpy arithmetic: the planners
route through the same batch kernel as serial with a one-session stack,
and both the kernel and the SoA stepping (see :mod:`repro.player.shard`)
use only elementwise operations and fixed-order reductions, which IEEE-754
evaluates identically regardless of how many sessions share the array.
Enforced by ``tests/test_lockstep.py`` (including differential fuzzing)
and the golden masters under ``tests/golden/``.

Sessions end at different chunk counts (ragged shards): finished sessions
simply leave the live set while the rest keep stepping.

Every exploration-mode RL (``greedy=False``) order pins its session's RNG
stream with :attr:`~repro.engine.runner.WorkOrder.exploration_seed`
(unseeded ones are rejected on both backends): the serial path samples
from a fresh ``rng_from_seed(exploration_seed)``, and the lockstep driver
gives the row that same stream — the same generator state drawing from
bitwise-equal probability rows, so the trajectories match checkpoint for
checkpoint (fuzzed in ``tests/test_rl_batch.py``).  Neither backend
touches the agent's own exploration stream.
"""

from __future__ import annotations

import copy
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.injector import SimulatedWorkerCrash, active_injector
from repro.faults.log import FaultLog, ShardRecoveryWarning
from repro.obs.trace import TRACE, trace_span

from repro.abr.base import ABRAlgorithm
from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.planner import (
    enumerate_level_sequences,
    evaluate_candidates_batch,
    kernel_block_sessions,
)
from repro.abr.throughput import (
    ErrorDistributionPredictor,
    HarmonicMeanPredictor,
)
from repro.abr.pensieve import PensieveABR
from repro.core.sensei_abr import SenseiFuguABR, SenseiPensieveABR
from repro.ml.rl import ActorCriticAgent
from repro.player.session import StreamResult
from repro.player.shard import ShardState
from repro.utils.rand import rng_from_seed
from repro.utils.validation import require


def _is_batched_rl(abr: ABRAlgorithm) -> bool:
    """Whether ``abr`` is a stock Pensieve-family policy the dedicated
    batched RL driver reproduces exactly (exact types only: a subclass may
    override ``encode_state``/``decide``)."""
    return (
        type(abr) in (PensieveABR, SenseiPensieveABR)
        and type(getattr(abr, "agent", None)) is ActorCriticAgent
    )


def run_orders_lockstep(
    orders: Sequence["WorkOrder"],
    fault_log: Optional[FaultLog] = None,
) -> List[StreamResult]:
    """Run work orders through the lockstep core; results align with input.

    Orders are grouped by player config: each group is one lockstep shard
    (:func:`_run_shards`).  Sessions are independent (every serial session
    starts with ``abr.reset()``), so executing groups out of submission
    order cannot change any result; the returned list is reassembled in
    submission order regardless.
    """
    results, _ = _run_shards(orders, fault_log, capture=False)
    if TRACE.enabled:
        # Lazy import: the runner module imports lockstep functions
        # lazily, so the reverse edge must not run at module import time.
        from repro.engine.runner import _observe_session_results

        _observe_session_results(results)
    return results


def run_rl_rollouts_lockstep(
    orders: Sequence["WorkOrder"],
    fault_log: Optional[FaultLog] = None,
) -> Tuple[List[StreamResult], List[List[Tuple[np.ndarray, int]]]]:
    """Run RL work orders in lockstep, capturing training trajectories.

    The lockstep side of :meth:`~repro.engine.runner.BatchRunner.
    run_rollouts`: every order must be a stock Pensieve-family policy,
    greedy or exploration-mode with a pinned ``exploration_seed``.
    Returns ``(results, trajectories)``, both aligned with ``orders``;
    each trajectory is the order's ``(state, action)`` list — bitwise what
    the serial ``begin_capture()``/``end_capture()`` discipline records,
    because the batched driver's states, probabilities and sampled actions
    are bitwise the scalar path's (see :class:`_RLDriver`).
    """
    orders = list(orders)
    for order in orders:
        require(
            _is_batched_rl(order.abr),
            "run_rl_rollouts_lockstep needs stock Pensieve-family orders",
        )
    return _run_shards(orders, fault_log, capture=True)


def _run_shards(
    orders: Sequence["WorkOrder"],
    fault_log: Optional[FaultLog],
    capture: bool,
) -> Tuple[List[StreamResult], list]:
    """Run orders as one shard per player config.

    Every exploration-mode order must pin an ``exploration_seed``
    (:meth:`~repro.engine.runner.WorkOrder.require_seeded`) and use a
    stock Pensieve-family policy, whose batched driver gives the row its
    own stream, and a stock Pensieve-family policy's ladder must fit its
    state (:meth:`PensieveABR.check_ladder`, the check its encoder runs);
    anything else is rejected before any shard runs, so a rejection is
    never mistaken for a shard fault.

    Returns ``(results, trajectories)`` aligned with ``orders``; the
    trajectories are the captured ``(state, action)`` lists when
    ``capture`` is set (RL rollouts), else ``None`` entries.

    A shard that raises is *recovered*, not fatal: its orders are re-run
    one session at a time through the serial reference path — the ground
    truth lockstep is proven bit-identical to — under a loud
    :class:`~repro.faults.log.ShardRecoveryWarning` (promoted to an error
    in the test suite outside the chaos tests, so recovery can never mask
    an engine regression there).  An active
    :class:`~repro.faults.injector.FaultInjector` may strike any shard here
    with a :class:`~repro.faults.injector.SimulatedWorkerCrash`;
    recoveries are counted in ``fault_log`` when the caller passes one.
    """
    # Lazy import, as in run_orders_lockstep.
    from repro.engine.runner import _run_rollouts_serial

    orders = list(orders)
    for order in orders:
        order.require_seeded()
        if _is_batched_rl(order.abr):
            order.abr.check_ladder(order.encoded.ladder.num_levels)
        else:
            require(
                not order.explores,
                "exploration-mode orders need a stock Pensieve-family "
                f"policy to run in lockstep, got {type(order.abr).__name__}",
            )
    results: List[Optional[StreamResult]] = [None] * len(orders)
    trajectories: list = [None] * len(orders)
    shards: Dict[object, List[int]] = {}
    for index, order in enumerate(orders):
        shards.setdefault(order.config, []).append(index)
    label = "rollout shard" if capture else "shard"
    injector = active_injector()
    for shard_index, indices in enumerate(shards.values()):
        shard_orders = [orders[index] for index in indices]
        shard_trajectories = [[] for _ in indices] if capture else None
        try:
            if injector is not None:
                injector.strike_shard(shard_index)
            with trace_span("engine.lockstep.shard"):
                shard_results = _run_shard(
                    shard_orders, capture=shard_trajectories
                )
        except Exception as error:
            warnings.warn(
                f"lockstep: {label} {shard_index} ({len(shard_orders)} "
                f"orders) failed with {error!r}; re-running its orders "
                "serially",
                ShardRecoveryWarning,
                stacklevel=3,
            )
            if fault_log is not None:
                if isinstance(error, SimulatedWorkerCrash):
                    fault_log.worker_crashes += 1
                fault_log.serial_fallbacks += 1
                fault_log.record(
                    f"lockstep {label} {shard_index} recovered serially "
                    f"after {type(error).__name__}"
                )
            if capture:
                shard_results, shard_trajectories = _run_rollouts_serial(
                    shard_orders
                )
            else:
                shard_results = [order.run() for order in shard_orders]
        for row, index in enumerate(indices):
            results[index] = shard_results[row]
            if capture:
                trajectories[index] = shard_trajectories[row]
    return results, trajectories


def _run_shard(
    orders: Sequence["WorkOrder"],
    capture: Optional[List[List[Tuple[np.ndarray, int]]]] = None,
) -> List[StreamResult]:
    """Run one shard of orders (shared player config) in lockstep; the
    results align with ``orders``.

    The *stepping* — download times, buffer evolution, stall accounting,
    history rings — advances as one SoA batch across every order of the
    shard, whatever its ABR; *decisions* are taken per ABR group by the
    most batched driver that reproduces that ABR exactly.  Planner drivers
    go further: instead of calling the kernel themselves they hand
    :func:`plan_batch` a *planner round* emitting plan requests, and
    compatible requests are merged **across ABR instances** — same
    candidate tree, stall options, scenario count, quality coefficients
    and weights mode, e.g. several MPC or Fugu variants swept in one grid
    — into shared kernel calls.
    The kernel's bit-identity contract is exactly that adding sessions to
    a call's batch axis cannot change any session's values, so
    cross-instance merging is free of semantic risk by the same argument
    that lets lockstep batch one family.  Sessions are independent (every
    serial session starts with ``abr.reset()``), so interleaving groups
    in one shard cannot change any result.

    ``capture``, when given, holds one list per row; RL drivers append
    each row's ``(state, action)`` pairs to it — the lockstep counterpart
    of :meth:`PensieveABR.begin_capture`, used by the training rollout
    collector (:func:`run_rl_rollouts_lockstep`).
    """
    shard = ShardState(orders)
    groups: Dict[int, List[int]] = {}
    abrs: Dict[int, ABRAlgorithm] = {}
    for row, order in enumerate(orders):
        groups.setdefault(id(order.abr), []).append(row)
        abrs[id(order.abr)] = order.abr
    drivers = [
        (np.array(rows, dtype=int), _driver_for(abrs[abr_id], shard, orders))
        for abr_id, rows in groups.items()
    ]
    if capture is not None:
        for _, driver in drivers:
            require(
                isinstance(driver, _RLDriver),
                "trajectory capture requires every order to use the "
                "batched RL driver",
            )
            driver.capture = capture
    live = shard.live_rows
    num_chunks = shard.num_chunks
    while live.size:
        levels = np.empty(live.size, dtype=int)
        stalls = np.empty(live.size)
        planned = []
        rounds = []
        for group_rows, driver in drivers:
            rows = group_rows[num_chunks[group_rows] > shard.step_index]
            if not rows.size:
                continue
            positions = np.searchsorted(live, rows)
            if isinstance(driver, _PlannerDriverBase):
                planned.append(positions)
                rounds.append(driver.begin_round(rows))
            else:
                levels[positions], stalls[positions] = driver.decide(rows)
        for positions, (group_levels, group_stalls) in zip(
            planned, plan_batch(rounds, shard)
        ):
            levels[positions] = group_levels
            stalls[positions] = group_stalls
        shard.step(live, levels, stalls)
        live = shard.live_rows
    return [
        shard.finalize(
            row, abr_name=order.abr.name, trace_name=order.trace.name
        )
        for row, order in enumerate(orders)
    ]


#: The kinds :func:`decision_kind` sorts ABRs into.
KIND_GENERIC = "generic"
KIND_BBA = "bba"
KIND_RL = "rl"
KIND_MPC = "mpc"
KIND_FUGU = "fugu"
KIND_SENSEI = "sensei"

_PLANNER_KINDS = {
    ModelPredictiveABR: KIND_MPC,
    FuguABR: KIND_FUGU,
    SenseiFuguABR: KIND_SENSEI,
}


def decision_kind(abr: ABRAlgorithm) -> str:
    """Which batched decision path reproduces ``abr.decide`` exactly.

    Exact-type checks: a subclass may override ``decide``, so anything not
    literally BBA, one of the two Pensieve RL classes (with the stock
    actor–critic agent) or one of the three planner classes (with its
    stock predictor) is :data:`KIND_GENERIC` and decides on its own
    per-session clone.
    """
    if type(abr) is BufferBasedABR:
        return KIND_BBA
    if _is_batched_rl(abr):
        return KIND_RL
    kind = _PLANNER_KINDS.get(type(abr))
    stock = (
        HarmonicMeanPredictor if kind == KIND_MPC
        else ErrorDistributionPredictor
    )
    if kind is not None and type(abr.predictor) is stock:
        return kind
    return KIND_GENERIC


def _driver_for(
    abr: ABRAlgorithm, shard: ShardState, orders: Sequence["WorkOrder"] = (),
):
    """The driver for ``abr``'s :func:`decision_kind`.  ``orders`` carries
    the shard's work orders so the RL driver can read per-row exploration
    seeds."""
    kind = decision_kind(abr)
    if kind == KIND_RL:
        return _RLDriver(abr, shard, orders)
    return _DRIVERS.get(kind, _PerSessionDriver)(abr, shard)


# ---------------------------------------------------------------- drivers
#
# A driver's ``decide(rows)`` returns ``(levels, proactive_stalls)`` arrays
# aligned with ``rows`` — the SoA form of the serial path's per-session
# ``Decision`` objects, consumed directly by :meth:`ShardState.step`.


class _PerSessionDriver:
    """Generic fallback: one reset clone of the ABR per session.

    Serial execution reuses one ABR instance with ``reset()`` between
    sessions — the contract that makes sessions independent.  A deep copy of
    the (reset) instance therefore decides identically, and per-session
    clones let independent sessions interleave.  Observations are served
    row by row from the shard arrays and match the serial observations
    exactly (same construction code — see
    :func:`repro.player.session.observation_from_precompute`).
    """

    def __init__(self, abr: ABRAlgorithm, shard: ShardState) -> None:
        self.shard = shard
        self.clones = [copy.deepcopy(abr) for _ in range(shard.num_sessions)]
        for clone in self.clones:
            clone.reset()

    def decide(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        shard = self.shard
        levels = np.zeros(rows.size, dtype=int)
        stalls = np.zeros(rows.size)
        for position, row in enumerate(rows):
            decision = self.clones[row].decide(shard.observe(int(row)))
            levels[position] = int(decision.level)
            stalls[position] = float(decision.proactive_stall_s)
        return levels, stalls


class _BBADriver:
    """Buffer-based adaptation straight off the SoA buffer array: BBA's
    chunk map reads exactly one dynamic input, so
    :meth:`BufferBasedABR.levels_for_buffers` maps the whole group's
    buffer levels at once."""

    def __init__(self, abr: BufferBasedABR, shard: ShardState) -> None:
        self.abr = abr
        self.shard = shard

    def decide(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        shard = self.shard
        levels = self.abr.levels_for_buffers(
            shard.buffer_s[rows], shard.num_levels[rows]
        )
        return levels, np.zeros(rows.size)


class _RLDriver:
    """Batched Pensieve-family actor–critic policies over the shard rows.

    Runs :meth:`PensieveABR.decide` for the whole group, batched:

    * :meth:`PensieveABR.encode_states` encodes the state rows straight off
      the SoA shard arrays (the scalar ``encode_state`` is its one-row
      call);
    * one :meth:`ActorCriticAgent.action_probabilities_batch` call per
      decision round replaces per-session forwards; its rows are bitwise
      the scalar probabilities because every actor matmul is row-stable
      (:func:`repro.ml.nn.row_matmul`) and the softmax reduces rows
      independently;
    * greedy policies take per-row argmaxes (same first-max tie break as
      the scalar ``np.argmax``); exploration policies draw each row's
      action from a private ``rng_from_seed(order.exploration_seed)``
      stream — the very generator state the serial ``WorkOrder.run``
      samples from, consuming bitwise-equal probability rows, hence
      identical trajectories;
    * :meth:`PensieveABR.decisions_for_actions` maps the actions to
      levels and proactive stalls.

    The agent is read-only here: clones are unnecessary (greedy decide
    touches no mutable agent state, and sampling never touches the shared
    ``agent.exploration_stream``), so one driver serves every row of the
    instance group.

    Setting :attr:`capture` to one list per shard row records each row's
    ``(state, action)`` pairs, exactly like the scalar capture hook the
    trainer uses.
    """

    def __init__(
        self,
        abr: PensieveABR,
        shard: ShardState,
        orders: Sequence["WorkOrder"],
    ) -> None:
        self.abr = abr
        self.shard = shard
        self.agent = abr.agent
        self.greedy = bool(abr.greedy)
        # Upcoming weights the state reads: the agent's horizon, cut to
        # what an observation carries.
        self.weight_span = min(
            abr.config.weight_horizon, shard.config.observation_horizon
        )
        self.capture: Optional[List[List[Tuple[np.ndarray, int]]]] = None
        self.rngs: Dict[int, object] = {}
        if not self.greedy:
            for row, order in enumerate(orders):
                if order.abr is abr:
                    self.rngs[row] = rng_from_seed(int(order.exploration_seed))

    def decide(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        shard = self.shard
        chunk = shard.step_index
        num_chunks = shard.num_chunks[rows]
        last_levels = shard.last_levels(rows)
        states = self.abr.encode_states(
            shard.throughput_history.matrix(rows),
            shard.download_time_history.matrix(rows),
            shard.sizes_all[shard.video_of[rows], chunk],
            shard.num_levels[rows],
            shard.buffer_s[rows],
            last_levels,
            num_chunks - chunk,
            num_chunks,
            shard.weights_all[rows, chunk:chunk + self.weight_span],
            np.minimum(self.weight_span, num_chunks - chunk),
        )
        probabilities = self.agent.action_probabilities_batch(states)
        if self.greedy:
            actions = np.argmax(probabilities, axis=1)
        else:
            actions = np.empty(rows.size, dtype=int)
            num_actions = probabilities.shape[1]
            for position, row in enumerate(rows):
                actions[position] = int(
                    self.rngs[int(row)].choice(
                        num_actions, p=probabilities[position]
                    )
                )
        if self.capture is not None:
            for position, row in enumerate(rows):
                self.capture[int(row)].append(
                    (states[position].copy(), int(actions[position]))
                )
        return self.abr.decisions_for_actions(actions, last_levels)


class _PlanOutputs:
    """Per-row kernel outputs of one batch of plan requests, aligned with
    the rows the requests were emitted for (:func:`_plan_requests`)."""

    __slots__ = ("levels", "stalls", "scores", "rebuffer")

    def __init__(self, count: int) -> None:
        self.levels = np.zeros(count, dtype=int)
        self.stalls = np.zeros(count)
        self.scores = np.zeros(count)
        self.rebuffer = np.zeros(count)


class _PlanRequest:
    """One pending kernel evaluation emitted by a planner round.

    ``members`` are rows of the *planner-input source* the request is
    executed against — the lockstep shard's :class:`ShardState`, or the
    decision service's stacked flush observations, which share its
    ``sizes_all``/``quality_all``/``weights_all`` layout.  ``positions``
    index the round's :class:`_PlanOutputs`.  Requests whose :attr:`key`
    matches plan over the *same* memoised candidate tree with the same
    stall options, scenario count, quality coefficients and weights mode;
    :func:`_execute_plan_requests` concatenates them — across rounds and
    ABR instances — into shared kernel calls.  Merging is bit-safe because
    the kernel is elementwise over the session axis.
    """

    __slots__ = (
        "key", "start_level", "max_level_step", "stall_options",
        "quality_model", "members", "positions", "buffer_s", "last_levels",
        "scenario_tputs", "scenario_probs", "use_weights", "need_rebuffer",
        "out",
    )

    def __init__(
        self, *, key, start_level, max_level_step, stall_options,
        quality_model, members, positions, buffer_s, last_levels,
        scenario_tputs, scenario_probs, use_weights, need_rebuffer, out,
    ) -> None:
        self.key = key
        self.start_level = start_level
        self.max_level_step = max_level_step
        self.stall_options = stall_options
        self.quality_model = quality_model
        self.members = members
        self.positions = positions
        self.buffer_s = buffer_s
        self.last_levels = last_levels
        self.scenario_tputs = scenario_tputs
        self.scenario_probs = scenario_probs
        self.use_weights = use_weights
        self.need_rebuffer = need_rebuffer
        self.out = out


def coefficient_key(quality_model) -> tuple:
    """The quality coefficients as a hashable key (plan requests of equal
    keys may share a kernel call)."""
    coeffs = quality_model.coefficients
    return (
        coeffs.intercept, coeffs.quality_weight,
        coeffs.rebuffer_weight, coeffs.switch_weight,
    )


def _plan_requests(
    abr, source, rows: np.ndarray, horizons: List[int],
    last_levels: np.ndarray, buffer_s: np.ndarray,
    scenario_tputs: np.ndarray, scenario_probs: np.ndarray, *,
    stall_options, use_weights: bool, need_rebuffer: bool,
) -> Tuple[List[_PlanRequest], _PlanOutputs]:
    """Group ``rows`` by candidate tree into plan requests.

    Primary grouping is by candidate-tree signature — (horizon, ladder,
    previously-played level under the ``max_step`` restriction, stall
    options) — which evaluates each group's exact (smallest) subtree.
    Rows without a restriction, and groups smaller than
    :attr:`_PlannerDriverBase.MERGE_BELOW`, share one request per
    (horizon, ladder, stall options) over the *unrestricted-start* tree
    (``start_level=None``); the kernel then masks each row down to its own
    subtree, an order-preserving first-level filter of the union tree, so
    selection — ties included — matches the per-row tree exactly.
    Splitting oversized groups is left to :func:`_execute_plan_requests`,
    which slices after merging every round's requests.

    ``stall_options`` is one tuple for every row, or a list of per-row
    tuples (SENSEI's affordable options).  Returns the requests and the
    :class:`_PlanOutputs` their results land in, aligned with ``rows``.
    """
    max_step = abr.max_level_step
    ladder_keys = source.ladder_keys
    per_row_stalls = isinstance(stall_options, list)
    subtree: Dict[tuple, List[int]] = {}
    for position, (row, start) in enumerate(
        zip(rows.tolist(), last_levels.tolist())
    ):
        if max_step is None or start < 0:
            start = -1  # one shared tree regardless of history
        key = (
            horizons[position], ladder_keys[row], start,
            stall_options[position] if per_row_stalls else stall_options,
        )
        subtree.setdefault(key, []).append(position)
    groups: Dict[tuple, List[int]] = {}
    for (horizon, ladder, start, stalls), positions in subtree.items():
        if start < 0 or len(positions) < _PlannerDriverBase.MERGE_BELOW:
            start = None
        groups.setdefault((horizon, ladder, start, stalls), []).extend(
            positions
        )
    coeff_key = coefficient_key(abr.quality_model)
    num_scenarios = scenario_tputs.shape[1]
    out = _PlanOutputs(rows.size)
    requests = []
    for (horizon, ladder, start, stalls), positions in groups.items():
        requests.append(
            _PlanRequest(
                # use_weights is part of the key: merging weighted and
                # unweighted rounds would push the unweighted rows through
                # the kernel's (costlier) weighted path — bit-identical,
                # but slower than two separate calls.
                key=(
                    horizon, ladder, start, max_step, stalls, num_scenarios,
                    coeff_key, use_weights,
                ),
                start_level=start,
                max_level_step=max_step,
                stall_options=stalls,
                quality_model=abr.quality_model,
                members=rows[positions],
                positions=positions,
                buffer_s=buffer_s[positions],
                last_levels=last_levels[positions],
                scenario_tputs=scenario_tputs[positions],
                scenario_probs=scenario_probs[positions],
                use_weights=use_weights,
                need_rebuffer=need_rebuffer,
                out=out,
            )
        )
    return requests, out


#: Shared all-ones weight matrices per shape (the kernel never writes into
#: its weights argument), reused by every unweighted bucket of a process.
_UNIFORM_WEIGHTS: Dict[tuple, np.ndarray] = {}


def _uniform_weights(num_sessions: int, horizon: int) -> np.ndarray:
    weights = _UNIFORM_WEIGHTS.get((num_sessions, horizon))
    if weights is None:
        weights = np.ones((num_sessions, horizon))
        _UNIFORM_WEIGHTS[(num_sessions, horizon)] = weights
    return weights


def _execute_plan_requests(requests: List[_PlanRequest], source) -> None:
    """Run every pending plan request against ``source``, merging
    compatible ones — the one place the planner kernel is called.

    Requests are bucketed by :attr:`_PlanRequest.key`; each bucket is one
    candidate tree evaluated for the concatenation of its requests' rows,
    sliced into cache-blocked tiles: the per-call row count comes from
    :func:`repro.abr.planner.kernel_block_sessions`, which sizes the
    kernel's working set to the L2 target (never below the pre-arena
    :attr:`_PlannerDriverBase.SPLIT_ABOVE` cap).  Per-row planner inputs
    are sliced from the source's padded matrices at its ``step_index``
    through each request's ``members``.  Because the kernel is elementwise
    over the session axis, every row's outputs are bitwise those of
    evaluating its own request alone — whatever the tile size.
    """
    buckets: Dict[tuple, List[_PlanRequest]] = {}
    for request in requests:
        buckets.setdefault(request.key, []).append(request)
    chunk = source.step_index
    split_above = _PlannerDriverBase.SPLIT_ABOVE
    for bucket in buckets.values():
        first = bucket[0]
        if len(bucket) == 1:
            members = first.members
            buffer_s = first.buffer_s
            last_levels = first.last_levels
            scenario_tputs = first.scenario_tputs
            scenario_probs = first.scenario_probs
        else:
            members = np.concatenate([r.members for r in bucket])
            buffer_s = np.concatenate([r.buffer_s for r in bucket])
            last_levels = np.concatenate([r.last_levels for r in bucket])
            scenario_tputs = np.vstack([r.scenario_tputs for r in bucket])
            scenario_probs = np.vstack([r.scenario_probs for r in bucket])
        horizon = first.key[0]
        bitrates = source.bitrates[members[0]]
        candidates = enumerate_level_sequences(
            bitrates.size, horizon, max_step=first.max_level_step,
            start_level=first.start_level,
        )
        if first.start_level is not None or first.max_level_step is None:
            candidate_mask = None  # the tree is already each row's own
        else:
            candidate_mask = (last_levels[:, None] < 0) | (
                np.abs(candidates[None, :, 0] - last_levels[:, None])
                <= first.max_level_step
            )
        # use_weights is part of the request key, so a bucket is uniformly
        # weighted or uniformly unweighted.
        use_weights = first.use_weights
        need_rebuffer = any(r.need_rebuffer for r in bucket)
        videos = source.video_of[members]
        sizes = source.sizes_all[videos, chunk:chunk + horizon]
        quality = source.quality_all[videos, chunk:chunk + horizon]
        if use_weights:
            weights = source.weights_all[members, chunk:chunk + horizon]
        else:
            weights = _uniform_weights(members.size, horizon)
        durations = (
            source.chunk_duration_shared
            if source.chunk_duration_shared is not None
            else source.chunk_duration[members]
        )
        capacity = source.buffer_capacity
        if isinstance(capacity, np.ndarray):
            capacity = capacity[members]

        count = members.size
        block = kernel_block_sessions(
            bitrates.size, horizon, first.max_level_step,
            scenario_tputs.shape[1],
            floor=split_above if split_above is not None else count,
        )
        slice_size = count if split_above is None else min(count, block)
        slices = -(-count // slice_size)
        slice_size = -(-count // slices)
        levels = np.empty(count, dtype=int)
        stalls = np.empty(count)
        scores = np.empty(count)
        rebuffer = np.empty(count)
        for start in range(0, count, slice_size):
            stop = min(count, start + slice_size)
            batch = evaluate_candidates_batch(
                candidates=candidates,
                sizes=sizes[start:stop],
                quality=quality[start:stop],
                weights=weights[start:stop],
                buffer_s=buffer_s[start:stop],
                last_level=last_levels[start:stop],
                scenario_tputs=scenario_tputs[start:stop],
                scenario_probs=scenario_probs[start:stop],
                bitrates_kbps=bitrates,
                quality_model=first.quality_model,
                stall_options_s=first.stall_options,
                chunk_duration_s=(
                    durations[start:stop]
                    if isinstance(durations, np.ndarray) else durations
                ),
                buffer_capacity_s=(
                    capacity[start:stop]
                    if isinstance(capacity, np.ndarray) else capacity
                ),
                candidate_mask=(
                    None if candidate_mask is None
                    else candidate_mask[start:stop]
                ),
                need_expected_rebuffer=need_rebuffer,
                weights_uniform=not use_weights,
            )
            levels[start:stop] = batch.best_level
            stalls[start:stop] = batch.best_stall_s
            scores[start:stop] = batch.best_score
            rebuffer[start:stop] = batch.expected_rebuffer_s
        offset = 0
        for r in bucket:
            stop = offset + r.members.size
            out, positions = r.out, r.positions
            out.levels[positions] = levels[offset:stop]
            out.stalls[positions] = stalls[offset:stop]
            out.scores[positions] = scores[offset:stop]
            out.rebuffer[positions] = rebuffer[offset:stop]
            offset = stop


def plan_batch(rounds: Sequence, source) -> list:
    """Drive planner rounds to completion against one planner-input source.

    A *round* (:func:`plan_round`, :func:`sensei_round`) is a generator
    that yields lists of plan requests and finally returns its decisions.
    Each pass gathers the requests every unfinished round yields, executes
    them together through :func:`_execute_plan_requests` — so compatible
    requests of different rounds, ABR instances and families share kernel
    calls — and resumes the rounds.  Returns each round's result, aligned
    with ``rounds``.

    The one planning path of the lockstep shard coordinator (``source`` is
    the :class:`ShardState`) and the decision service (``source`` is a
    flush's stacked observations).  Because the kernel is elementwise over
    the session axis, each row's decision is bitwise that of evaluating it
    alone — and therefore the serial ``decide()``'s, which routes through
    the same kernel with a one-session stack.
    """
    results: list = [None] * len(rounds)
    pending = list(enumerate(rounds))
    while pending:
        requests: List[_PlanRequest] = []
        waiting = []
        for index, round_ in pending:
            try:
                requests.extend(next(round_))
            except StopIteration as done:
                results[index] = done.value
            else:
                waiting.append((index, round_))
        if requests:
            # Covers request merging/splitting *and* the kernel calls; the
            # kernel's own time lands under the nested ``planner.kernel``
            # span recorded inside evaluate_candidates_batch.
            with trace_span("engine.lockstep.plan"):
                _execute_plan_requests(requests, source)
        pending = waiting
    return results


def plan_round(
    abr, source, rows, horizons, last_levels, buffer_s, scenario_tputs,
    scenario_probs,
):
    """MPC's and Fugu's planner round: one unweighted, no-stall plan per
    row over the scenarios its predictor produced.  Yields one request
    list; returns ``(levels, stalls)`` aligned with ``rows``."""
    requests, out = _plan_requests(
        abr, source, rows, horizons, last_levels, buffer_s, scenario_tputs,
        scenario_probs, stall_options=(0.0,), use_weights=False,
        need_rebuffer=False,
    )
    yield requests
    return out.levels, out.stalls


def sensei_round(
    abr, source, rows, horizons, last_levels, buffer_s, scenario_tputs,
    scenario_probs, spent,
):
    """SENSEI-Fugu's planner round: the batched :meth:`SenseiFuguABR.decide`.

    Phase one plans every row with the sensitivity-weighted objective
    (Eq. 4) and no stall.  The stall gate then opens for the rows where a
    stall is likely anyway (expected rebuffering at least
    ``stall_risk_threshold_s``), the buffer can absorb one, a later chunk
    is meaningfully more sensitive than the next, and proactive-stall
    budget remains.  Phase two re-plans those rows over the stall options
    their budget still affords and adopts a plan only when it scores
    strictly better.  ``spent`` is each row's proactive stall time so far.
    Yields one request list per phase; returns ``(levels, stalls, spent)``
    with the rows' updated budgets.
    """
    count = rows.size
    # Pre-gates that do not depend on the plan: buffer floor, budget,
    # weight shift.  When no row passes them, phase one skips its
    # rebuffer-expectation work — the gate is closed regardless (the
    # common steady state once a session's stall budget is spent).
    pre_gate = np.zeros(count, dtype=bool)
    if len(abr.stall_options_s) > 1:
        open_rows = (buffer_s >= abr.min_stall_buffer_s) & (
            spent < abr.max_total_proactive_stall_s
        )
        # Weight-shift gate, vectorised per distinct horizon: a stall only
        # helps when some upcoming chunk is meaningfully more sensitive
        # than the next one.
        chunk = source.step_index
        weights_all = source.weights_all
        horizon_arr = np.asarray(horizons)
        for span in np.unique(horizon_arr[open_rows]):
            if span <= 1:
                continue
            group = np.flatnonzero(open_rows & (horizon_arr == span))
            ahead = weights_all[
                rows[group][:, None], chunk + 1 + np.arange(span - 1)[None, :]
            ]
            first = weights_all[rows[group], chunk]
            pre_gate[group] = ahead.max(axis=1) > first * 1.05

    requests, plan = _plan_requests(
        abr, source, rows, horizons, last_levels, buffer_s, scenario_tputs,
        scenario_probs, stall_options=(0.0,), use_weights=True,
        need_rebuffer=bool(np.any(pre_gate)),
    )
    yield requests
    levels, stalls = plan.levels, plan.stalls
    gated = np.flatnonzero(
        pre_gate & (plan.rebuffer >= abr.stall_risk_threshold_s)
    )
    if gated.size:
        remaining = abr.max_total_proactive_stall_s - spent[gated]
        affordable = [
            tuple(
                option for option in abr.stall_options_s
                if option <= budget + 1e-9
            )
            for budget in remaining.tolist()
        ]
        requests, stalling = _plan_requests(
            abr, source, rows[gated],
            [horizons[position] for position in gated.tolist()],
            last_levels[gated], buffer_s[gated], scenario_tputs[gated],
            scenario_probs[gated], stall_options=affordable,
            use_weights=True, need_rebuffer=False,
        )
        yield requests
        # Strictly better, exactly like the serial gate: ties keep the
        # no-stall plan.
        better = stalling.scores > plan.scores[gated]
        adopted = gated[better]
        levels[adopted] = stalling.levels[better]
        stalls[adopted] = stalling.stalls[better]
    # Phase one never stalls, so adding every row's stall (0.0 unless a
    # stall was adopted) is the serial ``if stall > 0: spent += stall``.
    return levels, stalls, spent + stalls


class _PlannerDriverBase:
    """Shared machinery of the batched planner drivers.

    A driver keeps its family's predictor state as arrays over the shard
    and, per chunk step, turns the live rows' predictions into a planner
    round (:func:`plan_round` / :func:`sensei_round`) whose plan requests
    the shard coordinator runs through :func:`plan_batch`.  Planner inputs
    come straight off the shard's SoA arrays.
    """

    #: Subtree groups smaller than this are merged into one masked-union
    #: call: below it the per-call overhead outweighs the extra (masked-out)
    #: candidates the union tree evaluates.  The arena kernel's per-call
    #: dispatch cost dominates any group below a full cache block (a
    #: masked union call over 295 candidates costs barely more than an
    #: exact 185-candidate subtree call), so the merge threshold sits at
    #: one arena block for the widest common shape (5 levels x horizon 4
    #: x 5 scenarios -> ~23 sessions, :func:`kernel_block_sessions`):
    #: anything smaller is cheaper evaluated inside the union, and
    #: oversized unions get re-sliced to the block anyway.  Selection is
    #: unchanged either way — the mask filters the union tree down to
    #: each session's exact subtree, ties included.
    MERGE_BELOW = 24

    #: Kernel calls are capped at this many sessions; larger groups are
    #: sliced (by the coordinator, after cross-family merging).  The
    #: kernel's working set per session is a few dozen KB, and once a call
    #: outgrows the per-core cache its per-session cost jumps several-fold
    #: — two half-size calls are then cheaper than one.  (The PR 5 kernel
    #: carries less per-call dispatch overhead than PR 4's, so the sweet
    #: spot moved up from 8.)
    SPLIT_ABOVE = 12

    def __init__(self, abr, shard: ShardState) -> None:
        self.abr = abr
        self.shard = shard
        self.plan_horizon = min(abr.horizon, shard.config.observation_horizon)

    def _inputs(self, rows: np.ndarray):
        """``(histories, buffer_s, last_levels, horizons)`` for one chunk
        step — array slices of the shard state.  Histories are rectangular
        because every live session has completed the same number of
        chunks; horizons shrink with the chunks remaining."""
        shard = self.shard
        horizons = np.minimum(
            self.plan_horizon, shard.num_chunks[rows] - shard.step_index
        ).tolist()
        return (
            shard.throughput_history.matrix(rows), shard.buffer_s[rows],
            shard.last_levels(rows), horizons,
        )


class _MPCDriver(_PlannerDriverBase):
    """Batched :class:`ModelPredictiveABR`: conservative point prediction,
    one scenario, no stalls."""

    def begin_round(self, rows: np.ndarray):
        histories, buffer_s, last_levels, horizons = self._inputs(rows)
        conservative = self.abr.conservative(
            self.abr.predictor.predict_batch(histories)
        )
        return plan_round(
            self.abr, self.shard, rows, horizons, last_levels, buffer_s,
            conservative[:, None], np.ones((rows.size, 1)),
        )


class _FuguDriver(_PlannerDriverBase):
    """Batched :class:`FuguABR`: expectation over the learned
    throughput-error distribution, no stalls."""

    def __init__(self, abr: FuguABR, shard: ShardState) -> None:
        super().__init__(abr, shard)
        # One predictor state row per shard row.
        self.predictor = abr.predictor.for_rows(shard.num_sessions)

    def begin_round(self, rows: np.ndarray):
        histories, buffer_s, last_levels, horizons = self._inputs(rows)
        scenario_tputs, scenario_probs = (
            self.predictor.predict_distribution_batch(rows, histories)
        )
        return plan_round(
            self.abr, self.shard, rows, horizons, last_levels, buffer_s,
            scenario_tputs, scenario_probs,
        )


class _SenseiFuguDriver(_FuguDriver):
    """Batched :class:`SenseiFuguABR`: Fugu's predictor feeding
    :func:`sensei_round`, with per-session stall budgets."""

    def __init__(self, abr: SenseiFuguABR, shard: ShardState) -> None:
        super().__init__(abr, shard)
        self.proactive_spent_s = np.zeros(shard.num_sessions)

    def begin_round(self, rows: np.ndarray):
        histories, buffer_s, last_levels, horizons = self._inputs(rows)
        scenario_tputs, scenario_probs = (
            self.predictor.predict_distribution_batch(rows, histories)
        )
        levels, stalls, spent = yield from sensei_round(
            self.abr, self.shard, rows, horizons, last_levels, buffer_s,
            scenario_tputs, scenario_probs, self.proactive_spent_s[rows],
        )
        self.proactive_spent_s[rows] = spent
        return levels, stalls


_DRIVERS = {
    KIND_BBA: _BBADriver,
    KIND_MPC: _MPCDriver,
    KIND_FUGU: _FuguDriver,
    KIND_SENSEI: _SenseiFuguDriver,
}
