"""Synchronous experience collection on the batch engine.

Pensieve's A3C design runs many rollout workers against a shared learner.
The reproduction's equivalent is *synchronous*: each training round
freezes the policy into a :class:`PolicySnapshot`, simulates every seeded
:class:`~repro.training.curriculum.EpisodeSpec` of the round against it,
and the learner applies all updates in deterministic spec order.  Because
an episode is a pure function of (snapshot parameters, spec seed) — see
:meth:`~repro.ml.rl.ActorCriticAgent.reseed_exploration` — collection
order cannot change the experience.

A serial runner replays the episodes one at a time (:func:`collect_shard`).
A lockstep runner routes collection through the batched RL driver
(:func:`repro.engine.lockstep.run_rl_rollouts_lockstep`): the whole round's
episodes step together as one SoA shard, the actor forward runs once per
decision round across the batch, and each episode samples from its own
``rng_from_seed(spec.seed)`` stream — the same stream the serial
``reseed_exploration(spec.seed)`` discipline produces, so the experience,
and therefore the trained policy, is byte-identical on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.engine.runner import BatchRunner
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.obs.trace import TRACE, trace_span
from repro.training.curriculum import EpisodeSpec
from repro.utils.validation import require


@dataclass
class PolicySnapshot:
    """A frozen copy of a policy: config + network parameters.

    Only what a collector needs to *act* is kept — actor/critic parameters
    and the structural config.  Optimiser state stays with the learner.
    """

    kind: str
    config: PensieveConfig
    actor_state: Dict[str, np.ndarray]
    critic_state: Dict[str, np.ndarray]

    @classmethod
    def of(cls, abr: PensieveABR) -> "PolicySnapshot":
        """Snapshot a live policy."""
        return cls(
            kind=abr.policy_kind,
            config=abr.config,
            actor_state=abr.agent.actor.state_dict(),
            critic_state=abr.agent.critic.state_dict(),
        )

    def build(self) -> PensieveABR:
        """Materialise a fresh policy carrying the snapshot's parameters."""
        abr = build_policy(self.kind, self.config)
        abr.agent.actor.load_state_dict(self.actor_state)
        abr.agent.critic.load_state_dict(self.critic_state)
        return abr


def build_policy(kind: str, config: PensieveConfig) -> PensieveABR:
    """Construct the policy class registered under ``kind``."""
    # Imported here: repro.core imports repro.abr, so a module-level import
    # would be circular if core ever grew a training dependency.
    from repro.core.sensei_abr import SenseiPensieveABR

    classes = {
        PensieveABR.policy_kind: PensieveABR,
        SenseiPensieveABR.policy_kind: SenseiPensieveABR,
    }
    require(kind in classes, f"unknown policy kind {kind!r}")
    return classes[kind](config=config)


@dataclass
class EpisodeRollout:
    """One collected episode: stacked trajectory arrays plus bookkeeping.

    ``rewards`` are the per-decision rewards (sensitivity-weighted KSQI
    chunk scores); ``mean_reward`` summarises the episode for monitoring.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    regime: str
    seed: int

    @property
    def num_steps(self) -> int:
        return int(self.states.shape[0])

    @property
    def mean_reward(self) -> float:
        return float(np.mean(self.rewards)) if self.rewards.size else 0.0


@dataclass
class RolloutShard:
    """One round of episode specs plus the policy snapshot acting in it."""

    snapshot: PolicySnapshot
    specs: Tuple[EpisodeSpec, ...]


def collect_shard(shard: RolloutShard) -> List[EpisodeRollout]:
    """Simulate every episode of a shard, one session at a time.

    Rebuilds the policy from the snapshot, then, for each spec, reseeds the
    exploration stream from the spec seed and streams the episode with the
    same player the evaluation uses.  Rewards are the quality model's chunk
    scores, reweighted by the spec's sensitivity weights (Eq. 4's training
    signal for SENSEI-Pensieve).
    """
    # simulate_session lives behind a lazy import for the same reason the
    # seed trainer's did: the player package imports the ABR base module.
    from repro.player.simulator import simulate_session

    abr = shard.snapshot.build()
    abr.greedy = False
    quality_model = abr.quality_model
    rollouts: List[EpisodeRollout] = []
    for spec in shard.specs:
        abr.agent.reseed_exploration(spec.seed)
        abr.begin_capture()
        result = simulate_session(
            abr, spec.encoded, spec.trace, chunk_weights=spec.chunk_weights
        )
        trajectory = abr.end_capture()
        rollouts.append(
            _rollout_from_trajectory(quality_model, spec, result, trajectory)
        )
    return rollouts


def _rollout_from_trajectory(
    quality_model, spec: EpisodeSpec, result, trajectory
) -> EpisodeRollout:
    """Package one episode's (state, action) pairs and rewards — shared by
    the serial and lockstep collection paths, so both return identical
    :class:`EpisodeRollout`\\ s for identical inputs."""
    chunk_scores = quality_model.chunk_scores(result.rendered)
    if spec.chunk_weights is not None:
        chunk_scores = np.asarray(spec.chunk_weights, dtype=float) * chunk_scores
    require(
        len(trajectory) == chunk_scores.shape[0],
        "one decision per chunk expected",
    )
    states = np.stack([state for state, _ in trajectory])
    actions = np.asarray([action for _, action in trajectory], dtype=int)
    return EpisodeRollout(
        states=states,
        actions=actions,
        rewards=np.asarray(chunk_scores, dtype=float),
        regime=spec.regime,
        seed=spec.seed,
    )


def collect_shard_lockstep(shard: RolloutShard) -> List[EpisodeRollout]:
    """Simulate a shard's episodes through the lockstep batched RL driver.

    The lockstep counterpart of :func:`collect_shard`: one policy instance
    serves every episode (the batched driver never touches shared mutable
    agent state — see :class:`repro.engine.lockstep._RLDriver`), each
    episode's work order pins ``exploration_seed=spec.seed``, and the
    driver captures the ``(state, action)`` trajectories the scalar
    capture hook would have recorded.  Byte-identical to
    :func:`collect_shard` for the same specs and snapshot.
    """
    from repro.engine.lockstep import run_rl_rollouts_lockstep
    from repro.engine.runner import WorkOrder

    abr = shard.snapshot.build()
    abr.greedy = False
    quality_model = abr.quality_model
    orders = [
        WorkOrder(
            abr=abr,
            encoded=spec.encoded,
            trace=spec.trace,
            chunk_weights=spec.chunk_weights,
            exploration_seed=spec.seed,
        )
        for spec in shard.specs
    ]
    results, trajectories = run_rl_rollouts_lockstep(orders)
    return [
        _rollout_from_trajectory(quality_model, spec, result, trajectory)
        for spec, result, trajectory in zip(
            shard.specs, results, trajectories
        )
    ]


class RolloutCollector:
    """Collects one round of episodes on a :class:`BatchRunner`, in order.

    Parameters
    ----------
    runner:
        Execution backend; the default serial runner and the lockstep
        runner collect byte-identical experience.
    """

    def __init__(self, runner: Optional[BatchRunner] = None) -> None:
        self.runner = runner if runner is not None else BatchRunner()

    def collect(
        self, abr: PensieveABR, specs: Sequence[EpisodeSpec]
    ) -> List[EpisodeRollout]:
        """Collect one episode per spec; results align with ``specs``.

        The policy is snapshotted once, so every episode acts with
        identical parameters — the synchronous-A2C contract that makes
        results backend-independent.  The round is one shard: on lockstep
        the batched RL driver stacks every episode's forward pass, and
        per-spec seeds keep episodes independent of how a round is split.
        """
        specs = list(specs)
        if not specs:
            return []
        shard = RolloutShard(snapshot=PolicySnapshot.of(abr), specs=tuple(specs))
        collect_fn = (
            collect_shard_lockstep
            if self.runner.backend == "lockstep"
            else collect_shard
        )
        with trace_span("training.collect"):
            [merged] = self.runner.map_ordered(collect_fn, [shard])
        if TRACE.enabled:
            registry = get_registry()
            registry.counter("training.episodes_collected").inc(len(merged))
            steps = registry.histogram(
                "training.episode_steps", DEFAULT_SIZE_BUCKETS
            )
            for rollout in merged:
                steps.observe(float(rollout.num_steps))
        return merged
