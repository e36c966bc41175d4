"""Per-session precomputation: observation matrices and history rings.

The streaming session builds one :class:`~repro.abr.base.PlayerObservation`
per chunk.  Re-stacking the upcoming chunks' size/quality arrays
(``np.stack`` over ``horizon`` rows) and re-materialising the throughput
history from an ever-growing Python list at every chunk would be wasted
work:

* the (num_chunks, num_levels) size/quality matrices are a property of the
  *video*, so :class:`SessionPrecompute` materialises them once and serves
  read-only slices — an observation's ``upcoming_sizes_bytes`` is then just
  ``sizes[i:i + h]`` with no copy;
* the observation only ever sees the last ``history_length`` samples, so
  :class:`HistoryRing` stores exactly that many in a fixed ndarray instead
  of appending to an unbounded list.

Precomputes are cached on the :class:`~repro.video.encoder.EncodedVideo`
instance itself (videos are immutable once encoded), so a grid sweep that
streams the same video over many traces and ABRs pays the stacking cost
once.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import require
from repro.video.encoder import EncodedVideo

#: Attribute name under which the precompute is cached on an EncodedVideo.
_CACHE_ATTR = "_session_precompute_cache"


class SessionPrecompute:
    """Read-only per-video matrices the session control loop slices from.

    Attributes
    ----------
    sizes_bytes:
        (num_chunks, num_levels) chunk sizes, read-only.
    quality:
        (num_chunks, num_levels) VMAF-like quality scores, read-only.
    uniform_weights:
        (num_chunks,) ones, read-only: the weights of every unweighted
        work order on this video.
    """

    def __init__(self, encoded: EncodedVideo) -> None:
        self.encoded = encoded
        # Already stacked once and cached read-only on the video itself.
        self.sizes_bytes = encoded.sizes_matrix()
        self.quality = encoded.quality_matrix()
        self.num_chunks = encoded.num_chunks
        self.num_levels = encoded.ladder.num_levels
        # Plain-float mirror for the per-chunk scalar lookup on the session
        # hot path (native list indexing beats numpy scalar extraction;
        # ``tolist`` round-trips the exact doubles).
        self._sizes_rows = self.sizes_bytes.tolist()
        self.uniform_weights = np.ones(self.num_chunks)
        self.uniform_weights.setflags(write=False)

    @classmethod
    def of(cls, encoded: EncodedVideo) -> "SessionPrecompute":
        """The (cached) precompute of a video; built on first use."""
        cached = getattr(encoded, _CACHE_ATTR, None)
        if cached is None:
            cached = cls(encoded)
            setattr(encoded, _CACHE_ATTR, cached)
        return cached

    def upcoming(
        self, chunk_index: int, horizon: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(sizes, quality) views for ``horizon`` chunks from ``chunk_index``."""
        require(0 <= chunk_index < self.num_chunks, "chunk index out of range")
        stop = chunk_index + horizon
        return self.sizes_bytes[chunk_index:stop], self.quality[chunk_index:stop]

    def chunk_size_bytes(self, chunk_index: int, level: int) -> float:
        """Size in bytes of a chunk at a bitrate level (list lookup)."""
        return self._sizes_rows[chunk_index][level]


class HistoryRing:
    """Fixed-capacity ring buffer over the most recent float samples.

    Stands in for an unbounded ``List[float]`` history: the observation
    only ever consumes the last ``capacity`` samples, so older ones need not
    be retained at all.  :meth:`as_array` returns the retained samples oldest
    first, matching ``np.asarray(history[-capacity:])`` exactly.
    """

    def __init__(self, capacity: int) -> None:
        require(capacity >= 1, "ring capacity must be >= 1")
        self.capacity = int(capacity)
        self._buffer = np.empty(self.capacity, dtype=float)
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, value: float) -> None:
        """Append a sample, evicting the oldest once at capacity."""
        self._buffer[self._next] = value
        self._next = (self._next + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1

    #: List-compatible alias so the session loop reads the same either way.
    append = push

    def as_array(self) -> np.ndarray:
        """The retained samples, oldest first (a fresh array each call)."""
        if self._count < self.capacity:
            return self._buffer[: self._count].copy()
        if self._next == 0:
            return self._buffer.copy()
        return np.concatenate(
            [self._buffer[self._next:], self._buffer[: self._next]]
        )

    def last(self, default: float = 0.0) -> float:
        """Most recent sample, or ``default`` when empty."""
        if self._count == 0:
            return float(default)
        return float(self._buffer[(self._next - 1) % self.capacity])


class HistoryMatrix:
    """A whole shard's :class:`HistoryRing`\\ s as one (sessions, capacity)
    matrix with a shared write pointer.

    The lockstep engine appends one sample per session per chunk step, so
    every row's ring pointer advances in unison; a single shared pointer
    turns the per-session ``push`` loop into one column assignment and the
    per-session ``as_array`` stacking into one sliced gather.  Rows of
    sessions that finished early simply stop being written (and are never
    read again).  Row extraction matches :meth:`HistoryRing.as_array`
    sample for sample: oldest first, at most ``capacity`` entries.
    """

    def __init__(self, num_rows: int, capacity: int) -> None:
        require(num_rows >= 1, "need at least one row")
        require(capacity >= 1, "ring capacity must be >= 1")
        self.capacity = int(capacity)
        self._buffer = np.empty((num_rows, self.capacity), dtype=float)
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push_column(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Append one sample per row (for ``rows``), advancing the shared
        pointer once.  Every live row must be written every step."""
        self._buffer[rows, self._next] = values
        self._next = (self._next + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1

    def matrix(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), len(self)) samples, oldest first per row."""
        if self._count < self.capacity:
            return self._buffer[rows, : self._count]
        if self._next == 0:
            return self._buffer[rows]
        taken = self._buffer[rows]
        return np.concatenate(
            [taken[:, self._next:], taken[:, : self._next]], axis=1
        )

    def row(self, index: int) -> np.ndarray:
        """One row, oldest first — equals that row's ring ``as_array()``."""
        if self._count < self.capacity:
            return self._buffer[index, : self._count].copy()
        if self._next == 0:
            return self._buffer[index].copy()
        return np.concatenate(
            [self._buffer[index, self._next:], self._buffer[index, : self._next]]
        )
