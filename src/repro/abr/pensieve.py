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

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
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

    def check_ladder(self, num_levels: int) -> None:
        """Refuse a ladder wider than the agent's next-chunk-size inputs."""
        require(
            num_levels <= self.config.num_levels,
            f"a {num_levels}-level ladder is wider than the agent's "
            f"{self.config.num_levels} next-chunk-size inputs",
        )

    def encode_state(self, observation: PlayerObservation) -> np.ndarray:
        """Flatten a player observation into the agent's state vector."""
        weights = observation.upcoming_weights
        return self.encode_states(
            observation.throughput_history_mbps[None, :],
            observation.download_time_history_s[None, :],
            observation.next_chunk_sizes()[None, :],
            np.array([observation.ladder.num_levels]),
            np.array([observation.buffer_s]),
            np.array([observation.last_level]),
            np.array([observation.chunks_remaining]),
            np.array([observation.num_chunks]),
            weights[None, :],
            np.array([weights.size]),
        )[0]

    def encode_states(
        self,
        throughput: np.ndarray,
        download_times: np.ndarray,
        next_sizes: np.ndarray,
        num_levels: np.ndarray,
        buffer_s: np.ndarray,
        last_levels: np.ndarray,
        chunks_remaining: np.ndarray,
        num_chunks: np.ndarray,
        weights: np.ndarray,
        num_weights: np.ndarray,
    ) -> np.ndarray:
        """``(rows, state_dim)`` states, one per row of the inputs.

        ``throughput`` and ``download_times`` are ``(rows, width)``
        histories, oldest first, left-padded with zeros (or cut) to the
        agent's window.  ``next_sizes`` holds the next chunk's sizes per
        level, zero past each row's ``num_levels``.  ``weights`` holds the
        upcoming chunks' weights, of which the first ``num_weights`` per
        row are real; the rest of the weight inputs read 1.
        """
        cfg = self.config
        self.check_ladder(int(num_levels.max()))
        rows = buffer_s.size
        states = np.zeros((rows, cfg.state_dim))
        length = cfg.history_length
        for offset, history, scale in (
            (0, throughput, _THROUGHPUT_SCALE_MBPS),
            (length, download_times, _DOWNLOAD_TIME_SCALE_S),
        ):
            width = min(history.shape[1], length)
            stop = offset + length
            states[:, stop - width:stop] = history[:, history.shape[1] - width:] / scale
        at = 2 * length
        width = min(next_sizes.shape[1], cfg.num_levels)
        states[:, at:at + width] = next_sizes[:, :width] / _CHUNK_SIZE_SCALE_BYTES
        at += cfg.num_levels
        states[:, at] = buffer_s / _BUFFER_SCALE_S
        states[:, at + 1] = (last_levels + 1) / num_levels
        states[:, at + 2] = chunks_remaining / np.maximum(num_chunks, 1)
        at += 3
        if cfg.weight_horizon > 0:
            width = min(weights.shape[1], cfg.weight_horizon)
            states[:, at:] = 1.0
            states[:, at:at + width] = np.where(
                np.arange(width) < num_weights[:, None], weights[:, :width], 1.0
            )
        return states

    def decisions_for_actions(
        self, actions: np.ndarray, last_levels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(levels, proactive stalls)`` for action indices, given each
        row's previously played level (-1 before the first chunk).

        A stall action with a positive stall keeps streaming at the
        previous level (the paper reruns the ABR after crediting the
        buffer; keeping the level is the equivalent single-pass form), or
        the lowest before any chunk; a zero-second one plays the lowest.
        """
        cfg = self.config
        is_stall = actions >= cfg.num_levels
        levels = np.where(is_stall, 0, actions)
        stalls = np.zeros(actions.size)
        if is_stall.any():
            options = np.asarray(cfg.stall_actions_s, dtype=float)
            stalls[is_stall] = options[actions[is_stall] - cfg.num_levels]
            levels = np.where(stalls > 0, np.maximum(last_levels, 0), levels)
        return levels, stalls

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
        levels, stalls = self.decisions_for_actions(
            np.array([action]), np.array([observation.last_level])
        )
        if self._capture is not None:
            self._capture.append((state, action))
        return Decision(level=int(levels[0]), proactive_stall_s=float(stalls[0]))

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

