"""Throughput predictors used by planner-style ABR algorithms.

Fugu's key ingredient is a probabilistic transmission-time predictor; the
reproduction provides a discretised error-distribution predictor that learns
the ratio between actual and predicted throughput online, plus the simpler
harmonic-mean and EWMA predictors used by RobustMPC-style planners.

The harmonic-mean and error-distribution predictors compute over rows: each
``*_batch`` method is the one implementation, run by the lockstep engine on
a shard's sessions, and the scalar ``predict``/``predict_distribution`` is
its one-row call.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import List, Tuple

import numpy as np

from repro.abr.base import PlayerObservation
from repro.utils.validation import require


#: The state row of a one-session predictor: what a scalar call (or the
#: decision service, on a session's clone) reads and writes.
ONE_ROW = np.zeros(1, dtype=int)
ONE_ROW.flags.writeable = False


class ThroughputPredictor(ABC):
    """Base class: predict throughput (Mbps) for the next download."""

    def reset(self) -> None:
        """Clear per-session state (default: nothing)."""

    @abstractmethod
    def predict(self, observation: PlayerObservation) -> float:
        """Point prediction of the next download's throughput in Mbps."""

    def predict_distribution(
        self, observation: PlayerObservation
    ) -> List[Tuple[float, float]]:
        """(throughput_mbps, probability) pairs; default is a point mass."""
        return [(self.predict(observation), 1.0)]


class HarmonicMeanPredictor(ThroughputPredictor):
    """Harmonic mean of the last ``window`` throughput samples.

    The harmonic mean down-weights transient spikes, which makes it the
    standard conservative estimator in the MPC family.
    """

    def __init__(self, window: int = 5, default_mbps: float = 1.0) -> None:
        require(window >= 1, "window must be >= 1")
        require(default_mbps > 0, "default_mbps must be positive")
        self.window = int(window)
        self.default_mbps = float(default_mbps)

    def predict(self, observation: PlayerObservation) -> float:
        return float(
            self.predict_batch(observation.throughput_history_mbps[None, :])[0]
        )

    def predict_batch(self, histories: np.ndarray) -> np.ndarray:
        """Predictions for a ``(rows, history)`` matrix of samples, oldest
        first: one per row, each computed from that row alone."""
        if histories.shape[1] == 0:
            return np.full(histories.shape[0], self.default_mbps)
        recent = histories[:, -self.window:]
        return recent.shape[1] / np.add.reduce(1.0 / recent, axis=1)


class EWMAPredictor(ThroughputPredictor):
    """Exponentially weighted moving average of past throughput samples."""

    def __init__(self, alpha: float = 0.4, default_mbps: float = 1.0) -> None:
        require(0 < alpha <= 1, "alpha must be in (0, 1]")
        require(default_mbps > 0, "default_mbps must be positive")
        self.alpha = float(alpha)
        self.default_mbps = float(default_mbps)

    def predict(self, observation: PlayerObservation) -> float:
        history = observation.throughput_history_mbps
        if history.size == 0:
            return self.default_mbps
        estimate = float(history[0])
        for sample in history[1:]:
            estimate = self.alpha * float(sample) + (1 - self.alpha) * estimate
        return estimate


class ErrorDistributionPredictor(ThroughputPredictor):
    """Harmonic-mean prediction with a learned multiplicative error model.

    Fugu (§5.2) considers "any throughput variation γ with predicted
    probability p(γ)".  This predictor tracks the historical ratio between
    the observed throughput and the prediction made one step earlier, bins
    the ratios, and exposes the binned distribution so a planner can compute
    expectations over throughput variation.
    """

    def __init__(
        self,
        window: int = 4,
        num_bins: int = 5,
        ratio_range: Tuple[float, float] = (0.4, 1.4),
        default_mbps: float = 1.0,
    ) -> None:
        require(window >= 1, "window must be >= 1")
        require(num_bins >= 1, "num_bins must be >= 1")
        require(0 < ratio_range[0] < ratio_range[1], "invalid ratio range")
        self.window = int(window)
        self.num_bins = int(num_bins)
        self.ratio_range = (float(ratio_range[0]), float(ratio_range[1]))
        self.default_mbps = float(default_mbps)
        self._base = HarmonicMeanPredictor(window=window, default_mbps=default_mbps)
        # Constant per-instance arrays, hoisted out of the per-decision path.
        lo, hi = self.ratio_range
        self._bin_centers = np.linspace(lo, hi, self.num_bins)
        self._bin_edges = np.linspace(lo, hi, self.num_bins + 1)
        # A clipped ratio's bin is the count of interior edges at or below
        # it: right-open bins, the last one closed, as ``np.histogram``
        # bins over ``_bin_edges``.
        self._inner_edges = self._bin_edges[1:-1]
        # Seed template for up to five bins; resampled onto the bin grid
        # for larger num_bins (the seed truncated the template instead,
        # silently dropping the upper bins' probability mass).
        template = np.array([0.1, 0.15, 0.5, 0.15, 0.1])
        if self.num_bins <= template.size:
            cold = template[: self.num_bins]
        else:
            cold = np.interp(
                np.linspace(0.0, 1.0, self.num_bins),
                np.linspace(0.0, 1.0, template.size),
                template,
            )
        self._cold_start_probs = cold / cold.sum()
        self._allocate(1)

    def _allocate(self, num_rows: int) -> None:
        """Fresh per-row state: ratio count, last prediction, bin counts."""
        self._num_ratios = np.zeros(num_rows, dtype=int)
        self._last_prediction = np.zeros(num_rows)
        self._bin_counts = np.zeros((num_rows, self.num_bins), dtype=int)

    def reset(self) -> None:
        self._allocate(1)

    def for_rows(self, num_rows: int) -> "ErrorDistributionPredictor":
        """A reset copy with the same parameters holding per-row state for
        ``num_rows`` sessions (row ``i`` is session ``i``'s predictor)."""
        clone = copy.copy(self)
        clone._allocate(num_rows)
        return clone

    def predict(self, observation: PlayerObservation) -> float:
        return float(
            self.predict_batch(
                ONE_ROW, observation.throughput_history_mbps[None, :]
            )[0]
        )

    def predict_batch(self, rows: np.ndarray, histories: np.ndarray) -> np.ndarray:
        """Point predictions for the state rows ``rows`` (distinct), whose
        throughput histories are the rows of ``histories``.

        Each row's ratio between its latest sample and its *previous*
        prediction is clipped to ``ratio_range`` and binned before the new
        prediction replaces the previous one.
        """
        prediction = self._base.predict_batch(histories)
        if histories.shape[1]:
            recorded = rows
            latest = histories[:, -1]
            previous = self._last_prediction[rows]
            if np.count_nonzero(previous) < rows.size:
                seen = previous > 0
                recorded, latest, previous = (
                    rows[seen], latest[seen], previous[seen]
                )
            if recorded.size:
                lo, hi = self.ratio_range
                ratios = np.minimum(np.maximum(latest / previous, lo), hi)
                bins = self._inner_edges.searchsorted(ratios, side="right")
                self._num_ratios[recorded] += 1
                self._bin_counts[recorded, bins] += 1
        self._last_prediction[rows] = prediction
        return prediction

    def predict_distribution(
        self, observation: PlayerObservation
    ) -> List[Tuple[float, float]]:
        """Discretised distribution over next-download throughput."""
        throughputs, probabilities = self.predict_distribution_batch(
            ONE_ROW, observation.throughput_history_mbps[None, :]
        )
        return list(zip(throughputs[0].tolist(), probabilities[0].tolist()))

    def predict_distribution_batch(
        self, rows: np.ndarray, histories: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(throughputs, probabilities)``, each ``(len(rows), num_bins)``:
        :meth:`predict_batch` scaled by the bin centres, weighted by the
        row's smoothed bin counts once it has recorded three ratios."""
        prediction = self.predict_batch(rows, histories)
        # Cold start: concentrated near the point prediction with thin
        # symmetric tails (strong pessimism here causes phantom stall risk
        # and gratuitous hedging early in a session).
        cold = self._num_ratios[rows] < 3
        if np.count_nonzero(cold) == rows.size:
            probabilities = self._cold_start_probs[None, :].repeat(
                rows.size, axis=0
            )
        else:
            smoothed = self._bin_counts[rows] + 0.5
            probabilities = smoothed / np.add.reduce(smoothed, axis=1)[:, None]
            probabilities[cold] = self._cold_start_probs
        return prediction[:, None] * self._bin_centers, probabilities

