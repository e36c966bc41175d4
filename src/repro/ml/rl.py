"""Actor–critic policy-gradient agent (Pensieve-style, from scratch).

Pensieve trains an A3C agent whose policy maps player state (throughput
history, buffer, next chunk sizes, last bitrate) to a distribution over
bitrate levels, with a value network as baseline and an entropy bonus for
exploration.  This module provides a single-threaded advantage actor–critic
with the same ingredients, small enough to train inside the test/benchmark
budget while exercising the identical SENSEI augmentation path (weights in
the state, proactive-rebuffering actions, reweighted reward).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ml.nn import MLP, AdamOptimizer, softmax
from repro.utils.rand import rng_from_seed
from repro.utils.validation import require


@dataclass(frozen=True)
class ActorCriticConfig:
    """Hyper-parameters of the actor–critic agent."""

    state_dim: int
    num_actions: int
    hidden_dims: Tuple[int, ...] = (64, 32)
    actor_learning_rate: float = 1e-3
    critic_learning_rate: float = 2e-3
    discount: float = 0.99
    entropy_weight: float = 0.02
    entropy_decay: float = 0.995
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.state_dim >= 1, "state_dim must be >= 1")
        require(self.num_actions >= 2, "num_actions must be >= 2")
        require(0 < self.discount <= 1, "discount must be in (0, 1]")


@dataclass
class EpisodeBuffer:
    """Trajectory storage for one episode (one streaming session)."""

    states: List[np.ndarray] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)

    def add(self, state: np.ndarray, action: int, reward: float) -> None:
        """Record one transition."""
        self.states.append(np.asarray(state, dtype=float))
        self.actions.append(int(action))
        self.rewards.append(float(reward))

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def from_arrays(
        cls,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
    ) -> "EpisodeBuffer":
        """Rebuild a buffer from stacked trajectory arrays.

        The rollout collector returns episodes as three stacked arrays;
        this is the receiving end.
        """
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=int)
        rewards = np.asarray(rewards, dtype=float)
        require(states.ndim == 2, "states must be a (steps, state_dim) matrix")
        require(
            states.shape[0] == actions.shape[0] == rewards.shape[0],
            "trajectory arrays must have one row per step",
        )
        buffer = cls()
        buffer.states = list(states)
        buffer.actions = [int(action) for action in actions]
        buffer.rewards = [float(reward) for reward in rewards]
        return buffer

    def discounted_returns(self, discount: float) -> np.ndarray:
        """Discounted return from every step to the end of the episode."""
        returns = np.zeros(len(self.rewards))
        running = 0.0
        for index in reversed(range(len(self.rewards))):
            running = self.rewards[index] + discount * running
            returns[index] = running
        return returns


class ActorCriticAgent:
    """Advantage actor–critic with softmax policy and MLP value baseline."""

    def __init__(self, config: ActorCriticConfig) -> None:
        self.config = config
        self.actor = MLP(
            config.state_dim, config.hidden_dims, config.num_actions,
            seed=config.seed,
        )
        self.critic = MLP(
            config.state_dim, config.hidden_dims, 1, seed=config.seed + 1,
        )
        self._actor_optimizer = AdamOptimizer(config.actor_learning_rate)
        self._critic_optimizer = AdamOptimizer(config.critic_learning_rate)
        self._rng = rng_from_seed(config.seed + 2)
        self._entropy_weight = config.entropy_weight

    # ---------------------------------------------------------------- seeding

    def reseed_exploration(self, seed: int) -> None:
        """Reset the exploration stream to a fresh, fully determined state.

        The constructor-seeded stream makes an episode's actions depend on
        how many samples every *earlier* episode consumed, so a rollout
        worker could never reproduce its episodes from a work-order seed
        alone.  Reseeding immediately before each episode makes the episode
        a pure function of (parameters, episode seed) — the property the
        parallel collector's serial ≡ pool guarantee rests on.
        """
        self._rng = rng_from_seed(int(seed))

    # ------------------------------------------------------------- schedules

    @property
    def entropy_weight(self) -> float:
        """Current entropy-bonus coefficient (decays during training)."""
        return self._entropy_weight

    def set_entropy_weight(self, weight: float) -> None:
        """Override the entropy coefficient (trainer-driven schedules)."""
        require(weight >= 0, "entropy weight must be >= 0")
        self._entropy_weight = float(weight)

    @property
    def learning_rates(self) -> Tuple[float, float]:
        """Current (actor, critic) learning rates."""
        return (
            self._actor_optimizer.learning_rate,
            self._critic_optimizer.learning_rate,
        )

    def set_learning_rates(self, actor_lr: float, critic_lr: float) -> None:
        """Override both learning rates (trainer-driven LR decay)."""
        require(actor_lr > 0 and critic_lr > 0, "learning rates must be > 0")
        self._actor_optimizer.learning_rate = float(actor_lr)
        self._critic_optimizer.learning_rate = float(critic_lr)

    # ------------------------------------------------------------ checkpoint

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Complete learnable state as a flat ``name -> array`` mapping.

        Covers actor and critic parameters plus both Adam optimisers'
        moments/step counts and the current entropy weight, so that loading
        the dict into a fresh agent resumes training bit-for-bit.  All
        values are NumPy arrays (``np.savez``-ready).
        """
        state: Dict[str, np.ndarray] = {}
        state.update(self.actor.state_dict(prefix="actor/"))
        state.update(self.critic.state_dict(prefix="critic/"))
        state.update(self._actor_optimizer.state_dict(prefix="actor_opt/"))
        state.update(self._critic_optimizer.state_dict(prefix="critic_opt/"))
        state["entropy_weight"] = np.array(self._entropy_weight)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self.actor.load_state_dict(state, prefix="actor/")
        self.critic.load_state_dict(state, prefix="critic/")
        self._actor_optimizer.load_state_dict(state, prefix="actor_opt/")
        self._critic_optimizer.load_state_dict(state, prefix="critic_opt/")
        require("entropy_weight" in state, "missing entropy_weight")
        self._entropy_weight = float(state["entropy_weight"])

    # ----------------------------------------------------------------- acting

    def action_probabilities(self, state: np.ndarray) -> np.ndarray:
        """Policy distribution over actions for one state."""
        logits, _ = self.actor.forward(state)
        return softmax(logits)

    def action_probabilities_batch(self, states: np.ndarray) -> np.ndarray:
        """Policy distributions for a ``(batch, state_dim)`` matrix of states.

        Row ``i`` is bitwise equal to ``action_probabilities(states[i])``:
        the actor's matmuls are row-stable (:func:`repro.ml.nn.row_matmul`)
        and the softmax reduces each row independently with ``axis=-1``
        max/sum, so batching never reorders any float reduction.  An empty
        batch returns a ``(0, num_actions)`` matrix.
        """
        states = np.asarray(states, dtype=float)
        require(states.ndim == 2, "states must be a (batch, state_dim) matrix")
        if states.shape[0] == 0:
            return np.zeros((0, self.config.num_actions))
        logits, _ = self.actor.forward(states)
        return softmax(logits)

    def select_action(self, state: np.ndarray, greedy: bool = False) -> int:
        """Sample an action (or take the argmax when ``greedy``)."""
        probabilities = self.action_probabilities(state)
        if greedy:
            return int(np.argmax(probabilities))
        return int(self._rng.choice(self.config.num_actions, p=probabilities))

    def state_value(self, state: np.ndarray) -> float:
        """Critic's value estimate for one state."""
        value, _ = self.critic.forward(state)
        return float(np.asarray(value).reshape(-1)[0])

    # --------------------------------------------------------------- training

    def train_on_episode(self, episode: EpisodeBuffer) -> Dict[str, float]:
        """One policy-gradient update from a completed episode.

        Returns summary statistics (mean return, policy loss, value loss,
        entropy) useful for monitoring convergence.
        """
        require(len(episode) > 0, "cannot train on an empty episode")
        states = np.stack(episode.states)
        actions = np.asarray(episode.actions, dtype=int)
        returns = episode.discounted_returns(self.config.discount)

        values, critic_cache = self.critic.forward(states)
        values = np.asarray(values).reshape(-1)
        advantages = returns - values
        # Normalising advantages stabilises updates with short episodes.
        if advantages.size > 1 and float(np.std(advantages)) > 1e-9:
            advantages = (advantages - advantages.mean()) / advantages.std()

        logits, actor_cache = self.actor.forward(states)
        probabilities = softmax(logits)
        num_steps = states.shape[0]

        # Policy gradient: d/dlogits of -log pi(a|s) * A  plus entropy bonus.
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(num_steps), actions] = 1.0
        policy_grad = (probabilities - one_hot) * advantages.reshape(-1, 1)
        entropy = -np.sum(probabilities * np.log(probabilities + 1e-12), axis=1)
        entropy_grad = probabilities * (
            np.log(probabilities + 1e-12)
            + 1.0
            - np.sum(
                probabilities * (np.log(probabilities + 1e-12) + 1.0),
                axis=1, keepdims=True,
            )
        )
        total_actor_grad = (policy_grad + self._entropy_weight * entropy_grad) / num_steps
        actor_gradients = self.actor.backward(actor_cache, total_actor_grad)
        self._actor_optimizer.update(self.actor.parameters, actor_gradients)

        # Critic: squared error against the empirical returns.
        value_error = (values - returns).reshape(-1, 1) / num_steps
        critic_gradients = self.critic.backward(critic_cache, value_error)
        self._critic_optimizer.update(self.critic.parameters, critic_gradients)

        self._entropy_weight *= self.config.entropy_decay
        policy_loss = float(
            -np.mean(np.log(probabilities[np.arange(num_steps), actions] + 1e-12)
                     * advantages)
        )
        return {
            "mean_return": float(np.mean(returns)),
            "policy_loss": policy_loss,
            "value_loss": float(np.mean((values - returns) ** 2)),
            "entropy": float(np.mean(entropy)),
        }
