"""QoE model interface and shared per-chunk feature extraction.

Every model consumes a :class:`~repro.video.rendering.RenderedVideo` and
produces a scalar QoE prediction normalised to roughly [0, 1] (the paper
normalises every model's output range to [0, 1] before comparing, §2.2).
Additive models additionally expose per-chunk scores ``q_i`` so that SENSEI
can reweight them (Eq. 2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from repro.utils.validation import require
from repro.video.encoder import EncodedVideo
from repro.video.rendering import BLOCK_ROWS, RenderedVideo, RenderingBatch

#: Per-chunk feature names produced by :func:`chunk_feature_matrix`.
CHUNK_FEATURE_NAMES = (
    "visual_quality",      # VMAF-like quality of the played level, scaled to [0, 1]
    "stall_s",             # rebuffering seconds attributed to the chunk
    "switch_magnitude",    # |bitrate change| entering the chunk, scaled by the top rung
    "bitrate_norm",        # played bitrate over the top rung
    "motion",              # content motion descriptor (what LSTM-QoE keys off)
)


def chunk_feature_matrix(rendered: RenderedVideo) -> np.ndarray:
    """(num_chunks, len(CHUNK_FEATURE_NAMES)) matrix of observable features."""
    num_chunks = rendered.num_chunks
    top_bitrate = rendered.encoded.ladder.bitrates_kbps[-1]
    quality = rendered.quality_curve() / 100.0
    stalls = rendered.stalls_s
    switches = rendered.switch_magnitudes_kbps() / top_bitrate
    bitrates = rendered.bitrates_kbps() / top_bitrate
    motion = np.array(
        [rendered.source.descriptor(i).motion for i in range(num_chunks)]
    )
    return np.stack([quality, stalls, switches, bitrates, motion], axis=1)


class QoEModel(ABC):
    """Base class for QoE predictors."""

    #: Human-readable model name used in experiment reports.
    name: str = "qoe-model"

    @abstractmethod
    def score(self, rendered: RenderedVideo) -> float:
        """Predicted QoE of a rendering, normalised to roughly [0, 1]."""

    def score_many(self, renderings: Sequence[RenderedVideo]) -> np.ndarray:
        """Vectorised convenience wrapper over :meth:`score`."""
        return np.array([self.score(rendering) for rendering in renderings])

    def fit(
        self, renderings: Sequence[RenderedVideo], mos: Sequence[float]
    ) -> "QoEModel":
        """Train the model on (rendering, MOS) pairs.

        The default implementation is a no-op for models without trainable
        parameters; trainable models override it.
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class AdditiveQoEModel(QoEModel):
    """A QoE model of the additive form ``Q = (1/N) Σ q_i`` (Eq. 1).

    Subclasses implement :meth:`chunk_score_rows`, the scores of rows of
    levels and stalls; :meth:`chunk_scores_batch` feeds it a
    :class:`~repro.video.rendering.RenderingBatch` ``BLOCK_ROWS`` rows at a
    time, :meth:`chunk_scores` one rendering's row, and :meth:`score`
    averages that.
    SENSEI's reweighting (Eq. 2) replaces the uniform average with a
    sensitivity-weighted one — see
    :class:`repro.core.qoe_model.SenseiQoEModel`.
    """

    @abstractmethod
    def chunk_score_rows(
        self,
        encoded: EncodedVideo,
        levels: np.ndarray,
        stalls_s: np.ndarray,
        startup_delay_s: np.ndarray,
    ) -> np.ndarray:
        """``(rows, chunks)`` per-chunk QoE contributions ``q_i`` of
        renderings of ``encoded`` given as ``(rows, chunks)`` levels and
        stalls and ``(rows,)`` startup delays, as a new array."""

    def chunk_scores_batch(self, renderings: RenderingBatch) -> np.ndarray:
        """Per-chunk contributions ``q_i``, one row per rendering of the
        batch, scored ``BLOCK_ROWS`` rows at a time."""
        scores = np.empty(renderings.levels.shape)
        for start in range(0, len(renderings), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            scores[rows] = self.chunk_score_rows(
                renderings.encoded,
                renderings.levels[rows],
                renderings.stalls_s[rows],
                renderings.startup_delay_s[rows],
            )
        return scores

    def chunk_scores(self, rendered: RenderedVideo) -> np.ndarray:
        """Per-chunk QoE contributions ``q_i`` of one rendering."""
        return self.chunk_score_rows(
            rendered.encoded,
            rendered.levels[None],
            rendered.stalls_s[None],
            np.array([rendered.startup_delay_s]),
        )[0]

    def score(self, rendered: RenderedVideo) -> float:
        scores = self.chunk_scores(rendered)
        require(scores.shape == (rendered.num_chunks,), "one score per chunk required")
        return float(np.clip(np.mean(scores), 0.0, 1.0))

    def weighted_score(
        self, rendered: RenderedVideo, weights: np.ndarray
    ) -> float:
        """Sensitivity-weighted aggregate ``(1/N) Σ w_i q_i`` (Eq. 2)."""
        weights = np.asarray(weights, dtype=float)
        scores = self.chunk_scores(rendered)
        require(weights.shape == scores.shape, "weights must align with chunks")
        return float(np.clip(np.mean(weights * scores), 0.0, 1.0))
