"""ABR interface: what the player tells the algorithm and what it gets back.

Figure 10 of the paper shows the interface SENSEI needs: the traditional
inputs (buffer status, past throughput, next chunk sizes) plus the
*sensitivity weights of future chunks*; and the traditional output (bitrate
selection) plus *rebuffering time selection*.  The reproduction uses one
observation/decision pair for both traditional and SENSEI-augmented
algorithms — traditional algorithms simply ignore the weights and never
request a proactive stall.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require, require_non_negative
from repro.video.chunk import EncodingLadder


@dataclass(frozen=True)
class PlayerObservation:
    """Everything the player exposes to the ABR algorithm before a download.

    Attributes
    ----------
    chunk_index:
        Index of the chunk about to be downloaded.
    num_chunks:
        Total number of chunks in the video.
    buffer_s:
        Current playback buffer occupancy in seconds.
    last_level:
        Bitrate level of the previously downloaded chunk (-1 before the first).
    throughput_history_mbps:
        Measured download throughputs of past chunks, most recent last.
    download_time_history_s:
        Download durations of past chunks, most recent last.
    upcoming_sizes_bytes:
        (horizon, num_levels) matrix of chunk sizes for the next chunks,
        starting at ``chunk_index``; rows past the end of the video are
        truncated.
    upcoming_quality:
        (horizon, num_levels) matrix of VMAF-like quality for the same chunks.
    upcoming_weights:
        Sensitivity weights of the same chunks (all ones for weight-unaware
        players).
    chunk_duration_s:
        Playback duration of one chunk.
    ladder:
        The encoding ladder.
    buffer_capacity_s:
        Maximum buffer occupancy allowed by the player.
    """

    chunk_index: int
    num_chunks: int
    buffer_s: float
    last_level: int
    throughput_history_mbps: np.ndarray
    download_time_history_s: np.ndarray
    upcoming_sizes_bytes: np.ndarray
    upcoming_quality: np.ndarray
    upcoming_weights: np.ndarray
    chunk_duration_s: float
    ladder: EncodingLadder
    buffer_capacity_s: float = 60.0

    def __post_init__(self) -> None:
        require(0 <= self.chunk_index < self.num_chunks, "chunk_index out of range")
        require_non_negative(self.buffer_s, "buffer_s")
        require(self.upcoming_sizes_bytes.ndim == 2, "upcoming_sizes_bytes must be 2-D")
        require(
            self.upcoming_sizes_bytes.shape == self.upcoming_quality.shape,
            "sizes and quality matrices must align",
        )
        require(
            self.upcoming_weights.shape[0] == self.upcoming_sizes_bytes.shape[0],
            "weights must align with upcoming chunks",
        )

    @property
    def horizon(self) -> int:
        """Number of upcoming chunks described by this observation."""
        return int(self.upcoming_sizes_bytes.shape[0])

    @property
    def chunks_remaining(self) -> int:
        """Chunks left to download, including the current one."""
        return self.num_chunks - self.chunk_index

    def latest_throughput_mbps(self, default: float = 1.0) -> float:
        """Most recent measured throughput, or ``default`` if none yet."""
        if self.throughput_history_mbps.size == 0:
            return float(default)
        return float(self.throughput_history_mbps[-1])

    def next_chunk_sizes(self) -> np.ndarray:
        """Sizes (bytes per level) of the chunk about to be downloaded."""
        return self.upcoming_sizes_bytes[0]


@dataclass(frozen=True)
class Decision:
    """The ABR algorithm's decision for the next chunk.

    Attributes
    ----------
    level:
        Bitrate level to download the next chunk at.
    proactive_stall_s:
        Seconds of playback pause deliberately scheduled before the next
        chunk plays, even though the buffer is not empty (SENSEI's new
        action; 0 for traditional algorithms).
    """

    level: int
    proactive_stall_s: float = 0.0

    def __post_init__(self) -> None:
        require(self.level >= 0, "level must be >= 0")
        require_non_negative(self.proactive_stall_s, "proactive_stall_s")


class ABRAlgorithm(ABC):
    """Base class for ABR algorithms.

    Subclasses implement :meth:`decide`; the streaming session calls it once
    per chunk.  :meth:`reset` is called at the start of every session so
    stateful algorithms (throughput predictors, RL agents with recurrent
    features) can clear per-session state.
    """

    #: Human-readable name used in experiment reports.
    name: str = "abr"

    def reset(self) -> None:
        """Clear per-session state.  Default: nothing to clear."""

    @abstractmethod
    def decide(self, observation: PlayerObservation) -> Decision:
        """Choose the bitrate level (and optional proactive stall) for the
        chunk described by ``observation``."""

    # ------------------------------------------------------------- helpers

    @staticmethod
    def clamp_level(level: int, ladder: EncodingLadder) -> int:
        """Clamp a level index into the ladder's valid range."""
        return min(max(int(level), 0), ladder.num_levels - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

