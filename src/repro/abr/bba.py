"""BBA: buffer-based adaptation (Huang et al., SIGCOMM 2014).

BBA ignores throughput estimates entirely and maps the current buffer
occupancy to a bitrate through a linear "chunk map" between a reservoir and
a cushion: below the reservoir it plays the lowest bitrate, above the
cushion the highest, and in between it interpolates linearly.  It is the
weakest baseline in the paper's evaluation (the common denominator the QoE
gains in Figures 12–14 are measured against).
"""

from __future__ import annotations

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.utils.validation import require


class BufferBasedABR(ABRAlgorithm):
    """Buffer-based bitrate adaptation.

    Parameters
    ----------
    reservoir_s:
        Buffer level below which the lowest bitrate is selected.
    cushion_s:
        Buffer span over which the bitrate ramps from lowest to highest.
    """

    name = "BBA"

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 10.0) -> None:
        require(reservoir_s > 0, "reservoir_s must be positive")
        require(cushion_s > 0, "cushion_s must be positive")
        self.reservoir_s = float(reservoir_s)
        self.cushion_s = float(cushion_s)

    def decide(self, observation: PlayerObservation) -> Decision:
        """Map the buffer level to a bitrate level via the BBA chunk map."""
        level = self.levels_for_buffers(
            np.array([observation.buffer_s]),
            np.array([observation.ladder.num_levels]),
        )[0]
        return Decision(level=int(level))

    def levels_for_buffers(
        self, buffer_s: np.ndarray, num_levels: np.ndarray
    ) -> np.ndarray:
        """The chunk map over rows: each row's level for its buffer level
        (seconds) on a ladder of ``num_levels`` levels."""
        fraction = (buffer_s - self.reservoir_s) / self.cushion_s
        ramp = np.floor(fraction * (num_levels - 1) + 1e-9).astype(int)
        ramp = np.minimum(np.maximum(ramp, 0), num_levels - 1)
        return np.where(
            buffer_s <= self.reservoir_s,
            0,
            np.where(
                buffer_s >= self.reservoir_s + self.cushion_s,
                num_levels - 1,
                ramp,
            ),
        )
