"""Synthetic encoder: per-chunk sizes and visual quality per bitrate level.

The paper encodes real videos with H.264; the ABR stack only ever sees the
resulting per-chunk *sizes* (what must be downloaded) and per-chunk *visual
quality* (a VMAF-like score KSQI consumes).  The synthetic encoder produces
both from a standard rate–distortion model:

* chunk size  ≈ bitrate × duration, modulated by the chunk's spatial
  complexity and motion (complex/high-motion chunks are harder to encode and
  overshoot the nominal rate; simple chunks undershoot), plus VBR noise;
* visual quality follows a logarithmic rate–quality curve whose knee shifts
  with complexity (complex content needs more bits for the same quality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rand import spawn_rng
from repro.utils.validation import require
from repro.video.chunk import DEFAULT_LADDER, EncodingLadder
from repro.video.video import SourceVideo


@dataclass(frozen=True)
class EncodedChunk:
    """One chunk encoded at every ladder level.

    Attributes
    ----------
    sizes_bytes:
        Array of chunk sizes in bytes, one entry per ladder level.
    quality:
        Array of VMAF-like visual quality scores in [0, 100], per level.
    """

    sizes_bytes: np.ndarray
    quality: np.ndarray

    def __post_init__(self) -> None:
        require(self.sizes_bytes.ndim == 1, "sizes_bytes must be 1-D")
        require(self.quality.shape == self.sizes_bytes.shape, "shape mismatch")
        require(bool(np.all(self.sizes_bytes > 0)), "chunk sizes must be positive")
        require(
            bool(np.all(np.diff(self.sizes_bytes) > 0)),
            "chunk sizes must increase with bitrate level",
        )
        require(
            bool(np.all(np.diff(self.quality) >= 0)),
            "quality must be non-decreasing with bitrate level",
        )


@dataclass
class EncodedVideo:
    """A source video encoded at every level of a ladder."""

    source: SourceVideo
    ladder: EncodingLadder
    chunks: List[EncodedChunk]

    def __post_init__(self) -> None:
        require(
            len(self.chunks) == self.source.num_chunks,
            "one EncodedChunk per source chunk is required",
        )
        for chunk in self.chunks:
            require(
                chunk.sizes_bytes.size == self.ladder.num_levels,
                "encoded chunk does not match ladder",
            )

    def __getstate__(self) -> dict:
        """Pickle only the declared fields.

        Derived caches (underscore attributes, e.g. the cached size/quality
        matrices and the engine's per-video ``SessionPrecompute``) are
        rebuildable on the other side and would otherwise bloat every
        copy and pickle of a work order or result.
        """
        from repro.utils.pickling import public_state

        return public_state(self)

    # ----------------------------------------------------------- accessors

    @property
    def num_chunks(self) -> int:
        """Number of chunks."""
        return len(self.chunks)

    @property
    def chunk_duration_s(self) -> float:
        """Chunk duration in seconds."""
        return self.source.chunk_duration_s

    def chunk_size_bytes(self, chunk_index: int, level: int) -> float:
        """Size in bytes of a chunk at a bitrate level."""
        require(0 <= chunk_index < self.num_chunks, "chunk index out of range")
        return float(self.chunks[chunk_index].sizes_bytes[level])

    def chunk_quality(self, chunk_index: int, level: int) -> float:
        """VMAF-like quality (0-100) of a chunk at a bitrate level."""
        require(0 <= chunk_index < self.num_chunks, "chunk index out of range")
        return float(self.chunks[chunk_index].quality[level])

    def sizes_matrix(self) -> np.ndarray:
        """(num_chunks, num_levels) matrix of sizes in bytes.

        Stacked once per video and cached **read-only** — every consumer
        (sessions, QoE scoring, manifests) reads the same matrix.
        """
        cached = self.__dict__.get("_sizes_matrix")
        if cached is None:
            cached = np.stack([c.sizes_bytes for c in self.chunks])
            cached.setflags(write=False)
            self._sizes_matrix = cached
        return cached

    def quality_matrix(self) -> np.ndarray:
        """(num_chunks, num_levels) matrix of VMAF-like quality scores.

        Stacked once per video and cached **read-only**, like
        :meth:`sizes_matrix`.
        """
        cached = self.__dict__.get("_quality_matrix")
        if cached is None:
            cached = np.stack([c.quality for c in self.chunks])
            cached.setflags(write=False)
            self._quality_matrix = cached
        return cached

    def next_chunk_sizes(self, chunk_index: int) -> np.ndarray:
        """Sizes (bytes per level) of the chunk at ``chunk_index``; the
        standard ABR input."""
        require(0 <= chunk_index < self.num_chunks, "chunk index out of range")
        return self.chunks[chunk_index].sizes_bytes.copy()


class SyntheticEncoder:
    """Rate–distortion encoder producing :class:`EncodedVideo` objects.

    Parameters
    ----------
    vbr_noise:
        Relative standard deviation of per-chunk size variation around the
        nominal (complexity-adjusted) size.
    seed:
        Base seed; per-video randomness is derived from it and the video id.
    """

    def __init__(self, vbr_noise: float = 0.08, seed: int = 11) -> None:
        require(0.0 <= vbr_noise < 0.5, "vbr_noise must be in [0, 0.5)")
        self.vbr_noise = float(vbr_noise)
        self.seed = int(seed)

    def encode(
        self, video: SourceVideo, ladder: Optional[EncodingLadder] = None
    ) -> EncodedVideo:
        """Encode a source video at every level of a ladder."""
        ladder = ladder if ladder is not None else DEFAULT_LADDER
        rng = spawn_rng(self.seed, "encode", video.video_id, ladder.bitrates_kbps)
        chunks: List[EncodedChunk] = []
        for index in range(video.num_chunks):
            descriptor = video.descriptor(index)
            chunks.append(
                self._encode_chunk(
                    descriptor.complexity,
                    descriptor.motion,
                    video.chunk_duration_s,
                    ladder,
                    rng,
                )
            )
        return EncodedVideo(source=video, ladder=ladder, chunks=chunks)

    # --------------------------------------------------------------- internals

    def _encode_chunk(
        self,
        complexity: float,
        motion: float,
        duration_s: float,
        ladder: EncodingLadder,
        rng: np.random.Generator,
    ) -> EncodedChunk:
        bitrates = np.asarray(ladder.bitrates_kbps, dtype=float)
        # Encoding difficulty: hard chunks overshoot the nominal rate by up to
        # ~25%, easy chunks undershoot by up to ~15%.
        difficulty = 0.5 * complexity + 0.5 * motion
        size_factor = 0.85 + 0.4 * difficulty
        noise = 1.0 + self.vbr_noise * rng.standard_normal()
        noise = float(np.clip(noise, 0.6, 1.4))
        sizes_bits = bitrates * 1000.0 * duration_s * size_factor * noise
        sizes_bytes = sizes_bits / 8.0

        # Rate-quality: q(R) = 100 * (1 - exp(-R / R0)), with R0 growing with
        # complexity so that complex chunks need more bits for equal quality.
        r0 = 500.0 + 1800.0 * difficulty
        quality = 100.0 * (1.0 - np.exp(-bitrates / r0))
        quality = np.clip(quality, 1.0, 100.0)
        # Ensure strict monotonicity of sizes even after noise (same noise
        # multiplier per chunk keeps ordering, but guard anyway).
        sizes_bytes = np.maximum.accumulate(sizes_bytes + np.arange(sizes_bytes.size))
        return EncodedChunk(sizes_bytes=sizes_bytes, quality=quality)
