"""Batched online decisions, bit-identical to the serial ABR paths.

:func:`decide_batch` answers one micro-batch flush as a dispatcher over
the lockstep engine's planning path:

* Planner-eligible requests (MPC / Fugu / SENSEI-Fugu with their stock
  predictors, classified by the lockstep engine's
  :func:`~repro.engine.lockstep.decision_kind`) run their clone's own
  predictor's batched method on its one state row — exactly once per
  decision, in request order, on the observation the serial path would
  see (the error distribution predictor is stateful) — and MPC's
  scenario is :meth:`~repro.abr.mpc.ModelPredictiveABR.conservative`.  The flush's
  observations are stacked into the lockstep shard's padded planner-input
  layout (:class:`_FlushInputs`), and rows whose clones share every
  parameter a planner round reads go through one
  :func:`~repro.engine.lockstep.plan_round` or
  :func:`~repro.engine.lockstep.sensei_round` — the *same* rounds the
  lockstep drivers call, SENSEI's stall gate, strict-improvement adoption
  and budget accounting included.  :func:`plan_batch` drives every round
  of the flush, merging their kernel work; spent stall budgets are written
  back to the SENSEI clones.
* Greedy stock Pensieve-family sessions (``KIND_RL``) share one
  :class:`~repro.ml.rl.ActorCriticAgent` per policy (see
  :class:`~repro.service.sessions.SessionEntry`), so the flush groups them
  by agent, stacks their encoded states, runs **one actor forward per
  policy** and takes per-row argmaxes — bitwise the serial ``decide``
  because the actor's matmuls are row-stable
  (:func:`repro.ml.nn.row_matmul`).
* BBA rows are grouped by ``(reservoir_s, cushion_s)``; each group's
  buffer levels go through one
  :meth:`~repro.abr.bba.BufferBasedABR.levels_for_buffers` call.
* Everything else falls back to the clone's own ``decide`` — still exact,
  just not batched.

The kernel guarantees the rest: ``evaluate_candidates_batch`` is
elementwise over the batch axis, so co-scheduling any mix of sessions
cannot change any single session's floats (docs/PERFORMANCE.md).  It is
the same float64 arena kernel the offline sweeps run (docs/PERFORMANCE.md
§2); there is no other implementation or precision to select.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.abr.throughput import ONE_ROW
from repro.engine.lockstep import (
    coefficient_key,
    plan_batch,
    plan_round,
    sensei_round,
)
from repro.service.sessions import (
    KIND_BBA,
    KIND_FUGU,
    KIND_MPC,
    KIND_RL,
    KIND_SENSEI,
)

__all__ = ["decide_batch"]


class _FlushInputs:
    """The planner-input source of one flush: its planner rows'
    observations stacked into :class:`~repro.player.shard.ShardState`'s
    zero-padded ``(video, chunk, level)`` layout, one table per row
    (``video_of`` is the identity), at step 0 (an observation starts at
    the chunk being decided)."""

    step_index = 0
    chunk_duration_shared = None

    def __init__(self, observations: Sequence[PlayerObservation]) -> None:
        count = len(observations)
        depth = max(observation.horizon for observation in observations)
        width = max(
            observation.ladder.num_levels for observation in observations
        )
        self.video_of = np.arange(count)
        self.sizes_all = np.zeros((count, depth, width))
        self.quality_all = np.zeros((count, depth, width))
        self.weights_all = np.zeros((count, depth))
        for row, observation in enumerate(observations):
            horizon, levels = observation.upcoming_sizes_bytes.shape
            self.sizes_all[row, :horizon, :levels] = (
                observation.upcoming_sizes_bytes
            )
            self.quality_all[row, :horizon, :levels] = (
                observation.upcoming_quality
            )
            self.weights_all[row, :horizon] = observation.upcoming_weights
        self.chunk_duration = np.array(
            [observation.chunk_duration_s for observation in observations]
        )
        self.buffer_capacity = np.array(
            [observation.buffer_capacity_s for observation in observations]
        )
        self.bitrates = [
            np.asarray(observation.ladder.bitrates_kbps, dtype=float)
            for observation in observations
        ]
        self.ladder_keys = [tuple(rates.tolist()) for rates in self.bitrates]


def _round_key(clone: ABRAlgorithm, kind: str, num_scenarios: int) -> tuple:
    """Everything a planner round reads from its ``abr`` (plus the
    scenario count rows must share to stack): clones with equal keys
    share one round."""
    key = (
        kind, num_scenarios, clone.max_level_step,
        coefficient_key(clone.quality_model),
    )
    if kind == KIND_SENSEI:
        key += (
            clone.stall_options_s, clone.min_stall_buffer_s,
            clone.stall_risk_threshold_s, clone.max_total_proactive_stall_s,
        )
    return key


def decide_batch(
    requests: Sequence[Tuple[ABRAlgorithm, str, PlayerObservation]],
) -> List[Decision]:
    """Decide for every ``(clone, kind, observation)`` request in one batch.

    Returns one :class:`Decision` per request, in order.  Clones are
    mutated exactly as their serial ``decide`` would mutate them
    (predictor state, SENSEI's spent proactive budget).
    """
    decisions: List[Optional[Decision]] = [None] * len(requests)
    planned: List[Tuple[int, ABRAlgorithm, PlayerObservation]] = []
    rounds: Dict[tuple, list] = {}
    # (reservoir, cushion) -> (clone, [(request index, observation)])
    bba_groups: dict = {}
    # agent id -> (agent, [(request index, clone, observation, state)])
    rl_groups: dict = {}
    for index, (clone, kind, observation) in enumerate(requests):
        if kind == KIND_RL:
            agent = clone.agent
            group = rl_groups.setdefault(id(agent), (agent, []))
            group[1].append(
                (index, clone, observation, clone.encode_state(observation))
            )
        elif kind == KIND_BBA:
            group = bba_groups.setdefault(
                (clone.reservoir_s, clone.cushion_s), (clone, [])
            )
            group[1].append((index, observation))
        elif kind in (KIND_MPC, KIND_FUGU, KIND_SENSEI):
            history = observation.throughput_history_mbps[None, :]
            if kind == KIND_MPC:
                tputs = clone.conservative(
                    clone.predictor.predict_batch(history)
                )[:, None]
                probs = _POINT_MASS
            else:
                tputs, probs = clone.predictor.predict_distribution_batch(
                    ONE_ROW, history
                )
            rounds.setdefault(
                _round_key(clone, kind, tputs.shape[1]), []
            ).append((len(planned), tputs, probs))
            planned.append((index, clone, observation))
        else:
            decisions[index] = clone.decide(observation)

    # One chunk map per BBA parameterisation.
    for clone, group in bba_groups.values():
        levels = clone.levels_for_buffers(
            np.array([observation.buffer_s for _, observation in group]),
            np.array(
                [observation.ladder.num_levels for _, observation in group]
            ),
        )
        for (index, _), level in zip(group, levels.tolist()):
            decisions[index] = Decision(level=level)

    # One stacked actor forward per distinct policy, then a per-row argmax
    # — exactly ``select_action(state, greedy=True)`` for each row, since
    # the batched forward is row-bitwise-stable.
    for agent, group in rl_groups.values():
        states = np.stack([state for _, _, _, state in group])
        actions = np.argmax(agent.action_probabilities_batch(states), axis=1)
        for (index, clone, observation, state), action in zip(
            group, actions.tolist()
        ):
            decisions[index] = clone.decision_for_action(
                observation, state, action
            )

    if not planned:
        return decisions

    source = _FlushInputs([observation for _, _, observation in planned])
    batches = []
    for key, members in rounds.items():
        rows = np.array([row for row, _, _ in members])
        clones = [planned[row][1] for row in rows.tolist()]
        observations = [planned[row][2] for row in rows.tolist()]
        args = (
            clones[0], source, rows,
            [
                min(clone.horizon, observation.horizon)
                for clone, observation in zip(clones, observations)
            ],
            np.array([obs.last_level for obs in observations]),
            np.array([obs.buffer_s for obs in observations]),
            np.concatenate([tputs for _, tputs, _ in members]),
            np.concatenate([probs for _, _, probs in members]),
        )
        if key[0] == KIND_SENSEI:
            spent = np.array([clone._proactive_spent_s for clone in clones])
            batches.append((rows, clones, sensei_round(*args, spent)))
        else:
            batches.append((rows, clones, plan_round(*args)))

    results = plan_batch([round_ for _, _, round_ in batches], source)
    for (rows, clones, _), result in zip(batches, results):
        levels, stalls = result[0].tolist(), result[1].tolist()
        if len(result) == 3:  # sensei_round also returns the spent budgets
            for clone, spent in zip(clones, result[2].tolist()):
                clone._proactive_spent_s = spent
        for position, row in enumerate(rows.tolist()):
            decisions[planned[row][0]] = Decision(
                level=levels[position], proactive_stall_s=stalls[position]
            )
    return decisions


#: MPC's one scenario carries all the probability.
_POINT_MASS = np.ones((1, 1))
