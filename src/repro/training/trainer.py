"""The training loop: parallel collection, schedules, evaluation, stopping.

One :meth:`Trainer.train` call runs a sequence of synchronous rounds:

1. the curriculum emits this round's seeded episode specs;
2. the collector simulates them on the batch engine (serial or process
   backend — results are identical, see :mod:`repro.training.collector`);
3. the learner applies one policy-gradient update per episode, in spec
   order, under the round's entropy/learning-rate schedule;
4. periodically, the policy is evaluated greedily on the curriculum's
   held-out specs and checkpointed; training stops early when evaluation
   stops improving.

Everything downstream of the seeds is deterministic, so the same
:class:`TrainerConfig` produces the same checkpoint on every backend — the
guarantee ``tests/test_training.py`` locks in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.abr.pensieve import PensieveABR
from repro.engine.runner import BatchRunner, WorkOrder
from repro.ml.rl import EpisodeBuffer
from repro.qoe.ground_truth import GroundTruthOracle
from repro.training.checkpoint import CheckpointStore
from repro.training.collector import PolicySnapshot, RolloutCollector
from repro.training.curriculum import EpisodeSpec, ScenarioCurriculum
from repro.utils.validation import require


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs of one training run (see ``docs/TRAINING.md``).

    Attributes
    ----------
    rounds: synchronous training rounds.
    episodes_per_round: episodes collected (and applied) per round.
    eval_every: evaluate on the held-out specs every this many rounds
        (0 disables periodic evaluation; a final evaluation always runs).
    eval_episodes: held-out episodes per evaluation.
    early_stop_patience: stop after this many consecutive evaluations
        without improvement (0 disables early stopping).
    actor_lr / critic_lr: initial learning rates; ``None`` keeps the
        agent's configured rates.
    lr_decay: multiplicative learning-rate decay per round.
    entropy_weight: entropy-bonus coefficient at round 0.
    entropy_decay: multiplicative entropy decay per round.
    min_entropy_weight: floor of the entropy schedule.
    checkpoint_every: save ``<name>-round<k>`` every this many rounds
        (0 saves only the final checkpoint).
    """

    rounds: int = 6
    episodes_per_round: int = 8
    eval_every: int = 2
    eval_episodes: int = 6
    early_stop_patience: int = 0
    actor_lr: Optional[float] = None
    critic_lr: Optional[float] = None
    lr_decay: float = 1.0
    entropy_weight: float = 0.02
    entropy_decay: float = 0.9
    min_entropy_weight: float = 1e-3
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        require(self.rounds >= 1, "rounds must be >= 1")
        require(self.episodes_per_round >= 1, "episodes_per_round must be >= 1")
        require(self.eval_episodes >= 1, "eval_episodes must be >= 1")
        require(0 < self.lr_decay <= 1, "lr_decay must be in (0, 1]")
        require(0 < self.entropy_decay <= 1, "entropy_decay must be in (0, 1]")


@dataclass
class RoundStats:
    """Aggregated monitoring statistics of one training round."""

    round_index: int
    episodes: int
    mean_return: float
    policy_loss: float
    value_loss: float
    entropy: float
    entropy_weight: float
    actor_lr: float
    regimes: Dict[str, int] = field(default_factory=dict)


@dataclass
class TrainingResult:
    """What :meth:`Trainer.train` returns."""

    history: List[RoundStats]
    evaluations: List[Dict[str, float]]
    best_round: int
    best_eval_qoe: float
    final_eval_qoe: float
    stopped_early: bool
    checkpoints: List[str]
    episodes_trained: int


def evaluate_policy(
    abr: PensieveABR,
    specs: Sequence[EpisodeSpec],
    runner: Optional[BatchRunner] = None,
    oracle: Optional[GroundTruthOracle] = None,
) -> float:
    """Mean true QoE of the policy, acting greedily, over ``specs``.

    Sessions run through the batch engine on frozen policy copies (the live
    agent is never mutated), and the ground-truth oracle scores results in
    the calling process — the same scoring path the experiment grids use.
    """
    require(bool(specs), "need at least one evaluation spec")
    runner = runner if runner is not None else BatchRunner()
    oracle = oracle if oracle is not None else GroundTruthOracle()
    # One frozen copy serves every order: greedy decisions never mutate the
    # agent, the serial backend resets per session, and the process backend
    # pickles each order independently anyway.
    frozen = PolicySnapshot.of(abr).build()
    frozen.greedy = True
    orders = [
        WorkOrder(
            abr=frozen,
            encoded=spec.encoded,
            trace=spec.trace,
            chunk_weights=spec.chunk_weights,
        )
        for spec in specs
    ]
    results = runner.run_orders(orders)
    return float(np.mean(oracle.true_qoe_grouped([r.rendered for r in results])))


class Trainer:
    """Trains a Pensieve-family policy on a scenario curriculum.

    Parameters
    ----------
    abr:
        The policy to train (:class:`~repro.abr.pensieve.PensieveABR` or
        :class:`~repro.core.sensei_abr.SenseiPensieveABR`), updated in
        place.
    curriculum:
        Episode source for training and held-out evaluation.
    runner:
        Batch-engine backend shared by collection and evaluation.
    store / checkpoint_name:
        Where checkpoints go; ``store=None`` disables checkpointing.
    oracle:
        Ground-truth QoE oracle used by held-out evaluation.
    config:
        Loop hyper-parameters.
    """

    def __init__(
        self,
        abr: PensieveABR,
        curriculum: ScenarioCurriculum,
        runner: Optional[BatchRunner] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint_name: str = "policy",
        oracle: Optional[GroundTruthOracle] = None,
        config: Optional[TrainerConfig] = None,
    ) -> None:
        self.abr = abr
        self.curriculum = curriculum
        self.runner = runner if runner is not None else BatchRunner()
        self.store = store
        self.checkpoint_name = str(checkpoint_name)
        self.oracle = oracle if oracle is not None else GroundTruthOracle()
        self.config = config if config is not None else TrainerConfig()
        self.collector = RolloutCollector(runner=self.runner)
        self._holdout: Optional[List[EpisodeSpec]] = None

    # -------------------------------------------------------------- training

    def train(self) -> TrainingResult:
        """Run the configured number of rounds; returns the run summary."""
        cfg = self.config
        agent = self.abr.agent
        base_actor_lr = (
            cfg.actor_lr if cfg.actor_lr is not None else agent.learning_rates[0]
        )
        base_critic_lr = (
            cfg.critic_lr if cfg.critic_lr is not None else agent.learning_rates[1]
        )
        history: List[RoundStats] = []
        evaluations: List[Dict[str, float]] = []
        checkpoints: List[str] = []
        best_qoe = -np.inf
        best_round = -1
        rounds_since_best = 0
        stopped_early = False
        episodes_trained = 0

        for round_index in range(cfg.rounds):
            decay = cfg.lr_decay ** round_index
            actor_lr = base_actor_lr * decay
            critic_lr = base_critic_lr * decay
            agent.set_learning_rates(actor_lr, critic_lr)
            entropy_weight = max(
                cfg.min_entropy_weight,
                cfg.entropy_weight * cfg.entropy_decay ** round_index,
            )
            agent.set_entropy_weight(entropy_weight)

            specs = self.curriculum.training_specs(
                cfg.episodes_per_round, round_index=round_index
            )
            rollouts = self.collector.collect(self.abr, specs)
            round_stats: List[Dict[str, float]] = []
            regimes: Dict[str, int] = {}
            for rollout in rollouts:
                # The agent's own per-episode entropy decay is overridden by
                # the round-level schedule above; re-pin it so the update
                # rule inside a round is uniform.
                agent.set_entropy_weight(entropy_weight)
                episode = EpisodeBuffer.from_arrays(
                    rollout.states, rollout.actions, rollout.rewards
                )
                round_stats.append(agent.train_on_episode(episode))
                regimes[rollout.regime] = regimes.get(rollout.regime, 0) + 1
            self.abr.record_training(len(rollouts))
            episodes_trained += len(rollouts)
            history.append(
                RoundStats(
                    round_index=round_index,
                    episodes=len(rollouts),
                    mean_return=float(
                        np.mean([s["mean_return"] for s in round_stats])
                    ),
                    policy_loss=float(
                        np.mean([s["policy_loss"] for s in round_stats])
                    ),
                    value_loss=float(
                        np.mean([s["value_loss"] for s in round_stats])
                    ),
                    entropy=float(np.mean([s["entropy"] for s in round_stats])),
                    entropy_weight=entropy_weight,
                    actor_lr=actor_lr,
                    regimes=regimes,
                )
            )

            if (
                self.store is not None
                and cfg.checkpoint_every
                and (round_index + 1) % cfg.checkpoint_every == 0
            ):
                checkpoints.append(
                    self._save(f"{self.checkpoint_name}-round{round_index + 1:03d}")
                )

            evaluate_now = cfg.eval_every and (round_index + 1) % cfg.eval_every == 0
            if evaluate_now or round_index == cfg.rounds - 1:
                qoe = self.evaluate()
                evaluations.append(
                    {"round": float(round_index), "mean_qoe": qoe}
                )
                if qoe > best_qoe:
                    best_qoe = qoe
                    best_round = round_index
                    rounds_since_best = 0
                    if self.store is not None:
                        checkpoints.append(
                            self._save(f"{self.checkpoint_name}-best")
                        )
                else:
                    rounds_since_best += 1
                    if (
                        cfg.early_stop_patience
                        and rounds_since_best >= cfg.early_stop_patience
                    ):
                        stopped_early = True
                        break

        final_qoe = evaluations[-1]["mean_qoe"] if evaluations else self.evaluate()
        if self.store is not None:
            checkpoints.append(self._save(f"{self.checkpoint_name}-final"))
        return TrainingResult(
            history=history,
            evaluations=evaluations,
            best_round=best_round,
            best_eval_qoe=float(best_qoe),
            final_eval_qoe=float(final_qoe),
            stopped_early=stopped_early,
            checkpoints=checkpoints,
            episodes_trained=episodes_trained,
        )

    # ------------------------------------------------------------ evaluation

    def evaluate(self) -> float:
        """Greedy mean QoE on the curriculum's held-out specs."""
        if self._holdout is None:
            self._holdout = self.curriculum.holdout_specs(
                self.config.eval_episodes
            )
        return evaluate_policy(
            self.abr, self._holdout, runner=self.runner, oracle=self.oracle
        )

    # ------------------------------------------------------------- internals

    def _save(self, name: str) -> str:
        info = self.store.save(
            self.abr, name, metrics={"trained_episodes": self.abr.trained_episodes}
        )
        return info.name
