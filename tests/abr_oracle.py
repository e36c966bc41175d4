"""Test-only oracles for the ABR classes' per-decision arithmetic.

These are the scalar, one-observation bodies that the batched methods of
:class:`~repro.abr.throughput.HarmonicMeanPredictor`,
:class:`~repro.abr.throughput.ErrorDistributionPredictor`,
:class:`~repro.abr.pensieve.PensieveABR`,
:class:`~repro.abr.bba.BufferBasedABR` and
:class:`~repro.abr.mpc.ModelPredictiveABR` replaced.  Each batched method
computes the same elementwise operation sequence over rows and is required
to reproduce these bodies bit for bit, row by row
(``tests/test_abr_batch.py``).  The functions take the production object as
their first argument, so they read the same parameters the batched form
reads; :class:`ErrorDistributionOracle` keeps one session's state the way
the scalar predictor did.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.abr.base import Decision, PlayerObservation
from repro.abr.bba import BufferBasedABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.pensieve import (
    _BUFFER_SCALE_S,
    _CHUNK_SIZE_SCALE_BYTES,
    _DOWNLOAD_TIME_SCALE_S,
    _THROUGHPUT_SCALE_MBPS,
    PensieveABR,
)
from repro.abr.throughput import (
    ErrorDistributionPredictor,
    HarmonicMeanPredictor,
)
from repro.utils.stats import harmonic_mean
from repro.utils.validation import require


def harmonic_mean_predict(
    predictor: HarmonicMeanPredictor, observation: PlayerObservation
) -> float:
    """Harmonic mean of the last ``window`` samples, or the default."""
    history = observation.throughput_history_mbps
    if history.size == 0:
        return predictor.default_mbps
    recent = history[-predictor.window:]
    return harmonic_mean(recent)


class ErrorDistributionOracle:
    """One session's :class:`ErrorDistributionPredictor`, scalar state."""

    def __init__(self, predictor: ErrorDistributionPredictor) -> None:
        self.window = predictor.window
        self.num_bins = predictor.num_bins
        self.ratio_range = predictor.ratio_range
        self.default_mbps = predictor.default_mbps
        self._base = HarmonicMeanPredictor(
            window=predictor.window, default_mbps=predictor.default_mbps
        )
        self._bin_centers = predictor._bin_centers
        self._bin_edges = predictor._bin_edges
        self._cold_start_probs = predictor._cold_start_probs
        self._num_ratios = 0
        self._last_prediction: float = 0.0
        self._bin_counts = np.zeros(self.num_bins, dtype=int)

    def predict(self, observation: PlayerObservation) -> float:
        prediction = harmonic_mean_predict(self._base, observation)
        self._record_ratio(observation, prediction)
        self._last_prediction = prediction
        return prediction

    def _record_ratio(self, observation: PlayerObservation, prediction: float) -> None:
        history = observation.throughput_history_mbps
        if history.size == 0 or self._last_prediction <= 0:
            return
        actual = float(history[-1])
        ratio = actual / self._last_prediction
        lo, hi = self.ratio_range
        clipped = min(max(ratio, lo), hi)
        self._num_ratios += 1
        index = int(np.searchsorted(self._bin_edges, clipped, side="right")) - 1
        self._bin_counts[min(max(index, 0), self.num_bins - 1)] += 1

    def predict_distribution(
        self, observation: PlayerObservation
    ) -> List[Tuple[float, float]]:
        prediction = self.predict(observation)
        if self._num_ratios < 3:
            probabilities = self._cold_start_probs
        else:
            smoothed = self._bin_counts + 0.5
            probabilities = smoothed / float(smoothed.sum())
        return [
            (float(prediction * center), float(prob))
            for center, prob in zip(self._bin_centers, probabilities)
        ]


def conservative(abr: ModelPredictiveABR, observation: PlayerObservation) -> float:
    """MPC's one scenario: the harmonic-mean prediction, discounted."""
    predicted = harmonic_mean_predict(abr.predictor, observation)
    return predicted / (1.0 + abr.robustness_discount)


def pad_history(values: Sequence[float], length: int, fill: float = 0.0) -> np.ndarray:
    """Left-pad a history sequence to a fixed length (RL state building)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size >= length:
        return arr[-length:]
    return np.concatenate([np.full(length - arr.size, fill), arr])


def encode_state(abr: PensieveABR, observation: PlayerObservation) -> np.ndarray:
    """Flatten a player observation into the agent's state vector."""
    cfg = abr.config
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


def action_to_decision(abr: PensieveABR, action: int) -> Decision:
    """Map a discrete action index to an ABR decision."""
    cfg = abr.config
    if action < cfg.num_levels:
        return Decision(level=int(action))
    stall_index = action - cfg.num_levels
    stall_s = cfg.stall_actions_s[stall_index]
    return Decision(level=0, proactive_stall_s=float(stall_s))


def decision_for_action(
    abr: PensieveABR, observation: PlayerObservation, action: int
) -> Decision:
    """The decision for ``action``: a stall action keeps the previous level."""
    decision = action_to_decision(abr, action)
    if decision.proactive_stall_s > 0:
        previous = max(observation.last_level, 0)
        decision = Decision(
            level=previous, proactive_stall_s=decision.proactive_stall_s
        )
    return decision


def bba_decide(abr: BufferBasedABR, observation: PlayerObservation) -> Decision:
    """Map the buffer level to a bitrate level via the BBA chunk map."""
    ladder = observation.ladder
    buffer_s = observation.buffer_s
    if buffer_s <= abr.reservoir_s:
        return Decision(level=ladder.lowest_level)
    if buffer_s >= abr.reservoir_s + abr.cushion_s:
        return Decision(level=ladder.highest_level)
    fraction = (buffer_s - abr.reservoir_s) / abr.cushion_s
    level = int(np.floor(fraction * (ladder.num_levels - 1) + 1e-9))
    return Decision(level=abr.clamp_level(level, ladder))
