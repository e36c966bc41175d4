"""Pensieve-style ABR: an actor–critic RL agent over player state.

Pensieve (Mao et al., SIGCOMM 2017) trains an A3C agent whose state contains
the throughput history, download-time history, buffer level, next chunk
sizes, last bitrate and the number of chunks remaining, and whose actions
are the bitrate levels.  The reward is the QoE contribution of the chunk.

The reproduction implements a single-worker advantage actor–critic (see
:mod:`repro.ml.rl`) with the same state, action and reward structure,
trained by :mod:`repro.training`.  The
SENSEI augmentation (§5.2) extends the state with the sensitivity weights of
the next ``h`` chunks, adds proactive-rebuffering actions, and reweights the
reward — see :mod:`repro.core.sensei_abr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation, pad_history
from repro.ml.rl import ActorCriticAgent, ActorCriticConfig
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require

#: Normalisation constants for state features.
_THROUGHPUT_SCALE_MBPS = 6.0
_BUFFER_SCALE_S = 60.0
_DOWNLOAD_TIME_SCALE_S = 10.0
_CHUNK_SIZE_SCALE_BYTES = 2_000_000.0


@dataclass(frozen=True)
class PensieveConfig:
    """Structure of the Pensieve agent's state and action spaces.

    Attributes
    ----------
    history_length: number of past throughput / download-time samples.
    num_levels: number of bitrate levels (actions without SENSEI).
    weight_horizon: number of future chunk weights in the state (0 = the
        weight-unaware base agent).
    stall_actions_s: proactive-stall actions appended after the bitrate
        actions (empty for the base agent, (1, 2) seconds for SENSEI).
    hidden_dims: policy/value network widths.
    seed: parameter-initialisation and exploration seed.
    """

    history_length: int = 8
    num_levels: int = 5
    weight_horizon: int = 0
    stall_actions_s: Tuple[float, ...] = ()
    hidden_dims: Tuple[int, ...] = (64, 32)
    seed: int = 41

    @property
    def state_dim(self) -> int:
        """Dimensionality of the flattened state vector."""
        return (
            2 * self.history_length  # throughput + download-time history
            + self.num_levels        # next chunk sizes
            + 3                      # buffer, last level, chunks remaining
            + self.weight_horizon    # SENSEI: weights of future chunks
        )

    @property
    def num_actions(self) -> int:
        """Bitrate actions plus (for SENSEI) proactive-stall actions."""
        return self.num_levels + len(self.stall_actions_s)


class PensieveABR(ABRAlgorithm):
    """Actor–critic ABR agent with a Pensieve-style state encoding."""

    name = "Pensieve"
    #: Stable identifier used by the checkpoint store to rebuild the right
    #: policy class on load (see :mod:`repro.training.checkpoint`).
    policy_kind = "pensieve"

    def __init__(
        self,
        config: Optional[PensieveConfig] = None,
        quality_model: Optional[KSQIModel] = None,
        greedy: bool = True,
    ) -> None:
        self.config = config if config is not None else PensieveConfig()
        self.quality_model = quality_model if quality_model is not None else KSQIModel()
        self.greedy = bool(greedy)
        self.agent = ActorCriticAgent(
            ActorCriticConfig(
                state_dim=self.config.state_dim,
                num_actions=self.config.num_actions,
                hidden_dims=self.config.hidden_dims,
                seed=self.config.seed,
            )
        )
        self._trained_episodes = 0
        # Trajectory capture used by the trainer.
        self._capture: Optional[List[Tuple[np.ndarray, int]]] = None

    # -------------------------------------------------------------- encoding

    def encode_state(self, observation: PlayerObservation) -> np.ndarray:
        """Flatten a player observation into the agent's state vector."""
        cfg = self.config
        throughput = pad_history(
            observation.throughput_history_mbps, cfg.history_length
        ) / _THROUGHPUT_SCALE_MBPS
        download_times = pad_history(
            observation.download_time_history_s, cfg.history_length
        ) / _DOWNLOAD_TIME_SCALE_S
        next_sizes = np.zeros(cfg.num_levels)
        available = observation.next_chunk_sizes()
        next_sizes[: available.size] = available / _CHUNK_SIZE_SCALE_BYTES
        buffer_norm = observation.buffer_s / _BUFFER_SCALE_S
        last_level_norm = (
            (observation.last_level + 1) / observation.ladder.num_levels
        )
        remaining_norm = observation.chunks_remaining / max(1, observation.num_chunks)
        parts = [
            throughput,
            download_times,
            next_sizes,
            np.array([buffer_norm, last_level_norm, remaining_norm]),
        ]
        if cfg.weight_horizon > 0:
            weights = np.ones(cfg.weight_horizon)
            available_weights = observation.upcoming_weights[: cfg.weight_horizon]
            weights[: available_weights.size] = available_weights
            parts.append(weights)
        state = np.concatenate(parts)
        require(state.size == cfg.state_dim, "state encoding size mismatch")
        return state

    def action_to_decision(self, action: int) -> Decision:
        """Map a discrete action index to an ABR decision."""
        cfg = self.config
        if action < cfg.num_levels:
            return Decision(level=int(action))
        stall_index = action - cfg.num_levels
        stall_s = cfg.stall_actions_s[stall_index]
        # A stall action keeps the previous level for the next chunk; the
        # level itself is resolved by the caller (lowest safe default here).
        return Decision(level=0, proactive_stall_s=float(stall_s))

    # --------------------------------------------------------------- deciding

    def decide(self, observation: PlayerObservation) -> Decision:
        """Pick an action with the current policy."""
        state = self.encode_state(observation)
        action = self.agent.select_action(state, greedy=self.greedy)
        return self.decision_for_action(observation, state, action)

    def decision_for_action(
        self, observation: PlayerObservation, state: np.ndarray, action: int
    ) -> Decision:
        """The decision for ``action``, chosen in ``state`` (the encoded
        ``observation``); records the pair while capturing."""
        decision = self.action_to_decision(action)
        if decision.proactive_stall_s > 0:
            # Keep streaming at the previously chosen level during a
            # proactive stall (the paper reruns the ABR after crediting the
            # buffer; keeping the level is the equivalent single-pass form).
            previous = max(observation.last_level, 0)
            decision = Decision(
                level=previous, proactive_stall_s=decision.proactive_stall_s
            )
        if self._capture is not None:
            self._capture.append((state, action))
        return decision

    # --------------------------------------------------------------- training

    def begin_capture(self) -> None:
        """Start recording (state, action) pairs for the trainer."""
        self._capture = []

    def end_capture(self) -> List[Tuple[np.ndarray, int]]:
        """Stop recording and return the captured trajectory."""
        captured = self._capture if self._capture is not None else []
        self._capture = None
        return captured

    def record_training(self, num_episodes: int) -> None:
        """Bookkeeping for how many episodes the agent has been trained on."""
        self._trained_episodes += int(num_episodes)

    @property
    def trained_episodes(self) -> int:
        """Number of training episodes applied to this agent."""
        return self._trained_episodes

