"""Per-chunk sensitivity weights: SENSEI's key abstraction (§3, §4.2).

A :class:`SensitivityProfile` holds one positive weight per chunk of a
source video, normalised to mean 1, describing how much more (or less)
sensitive viewers are to quality incidents at that chunk.  Profiles are
inferred from crowdsourced MOS of rendered videos by solving the linear
system ``Q_j = (1/N) Σ_i w_i q_{i,j}`` with a non-negative regression, where
``q_{i,j}`` are the base QoE model's per-chunk scores (KSQI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.qoe.base import AdditiveQoEModel
from repro.utils.validation import require
from repro.video.rendering import RenderedVideo, RenderingBatch


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-chunk sensitivity weights of one source video.

    Attributes
    ----------
    video_id: the profiled source video.
    weights: positive weights, one per chunk, normalised to mean 1.
    num_ratings: total accepted ratings used to infer the weights.
    cost_usd: crowdsourcing cost of the profiling campaign.
    """

    video_id: str
    weights: np.ndarray
    num_ratings: int = 0
    cost_usd: float = 0.0

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        require(weights.ndim == 1 and weights.size >= 1, "weights must be 1-D")
        require(bool(np.all(weights > 0)), "weights must be strictly positive")

    @property
    def num_chunks(self) -> int:
        """Number of chunks covered by the profile."""
        return int(self.weights.size)

    def weight_of(self, chunk_index: int) -> float:
        """Weight of one chunk."""
        require(0 <= chunk_index < self.num_chunks, "chunk index out of range")
        return float(self.weights[chunk_index])

    def high_sensitivity_chunks(self, threshold: float = 1.2) -> np.ndarray:
        """Indices of chunks whose weight exceeds ``threshold`` × mean."""
        return np.flatnonzero(self.weights > threshold * float(np.mean(self.weights)))

    def low_sensitivity_chunks(self, threshold: float = 0.8) -> np.ndarray:
        """Indices of chunks whose weight is below ``threshold`` × mean."""
        return np.flatnonzero(self.weights < threshold * float(np.mean(self.weights)))

    def normalized(self) -> "SensitivityProfile":
        """Profile rescaled so the weights average exactly 1."""
        mean = float(np.mean(self.weights))
        require(mean > 0, "cannot normalise a zero profile")
        return SensitivityProfile(
            video_id=self.video_id,
            weights=self.weights / mean,
            num_ratings=self.num_ratings,
            cost_usd=self.cost_usd,
        )

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "video_id": self.video_id,
            "weights": self.weights.tolist(),
            "num_ratings": self.num_ratings,
            "cost_usd": self.cost_usd,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SensitivityProfile":
        """Inverse of :meth:`to_dict`."""
        return cls(
            video_id=str(payload["video_id"]),
            weights=np.asarray(payload["weights"], dtype=float),
            num_ratings=int(payload.get("num_ratings", 0)),
            cost_usd=float(payload.get("cost_usd", 0.0)),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the profile as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SensitivityProfile":
        """Load a profile saved with :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def uniform(cls, video_id: str, num_chunks: int) -> "SensitivityProfile":
        """A flat profile (what a weight-unaware system implicitly assumes)."""
        require(num_chunks >= 1, "num_chunks must be >= 1")
        return cls(video_id=video_id, weights=np.ones(num_chunks))


def infer_weights(
    renderings: Union[RenderingBatch, Sequence[RenderedVideo]],
    mos: Sequence[float],
    base_model: AdditiveQoEModel,
    video_id: Optional[str] = None,
    prior_strength: float = 0.3,
    weight_floor: float = 0.2,
    num_ratings: int = 0,
    cost_usd: float = 0.0,
) -> SensitivityProfile:
    """Infer a sensitivity profile from rated renderings of one video (§4.2).

    Solves the linear system ``Q_j = (1/N) Σ_i w_i q_{i,j}`` with a ridge
    penalty that shrinks the weights towards the uniform prior ``w_i = 1``:
    chunks whose sensitivity is not clearly distinguishable from average stay
    near 1 instead of being driven to extremes by rating noise (this also
    keeps the step-2 re-probe set small, §4.3).

    Parameters
    ----------
    renderings:
        Rendered videos of the *same* source video (the rows of the linear
        system), as a batch or a sequence; typically one per injected
        incident position, plus the pristine reference.
    mos:
        MOS of each rendering on the 1–5 Likert scale the surveys use.
    base_model:
        The additive base QoE model providing the per-chunk scores
        ``q_{i,j}`` (KSQI in the paper), typically fitted on the same
        campaign's ratings beforehand.
    prior_strength:
        Relative strength of the shrinkage towards uniform weights, scaled
        by the design matrix's own magnitude (0 disables shrinkage).
    weight_floor:
        Minimum weight after inference (keeps the profile strictly positive).
    """
    require(len(renderings) == len(mos), "renderings and MOS must align")
    require(len(renderings) >= 2, "need at least two rated renderings")
    require(prior_strength >= 0, "prior_strength must be >= 0")
    renderings = RenderingBatch.of(renderings)
    num_chunks = renderings.num_chunks

    mos_arr = np.asarray(list(mos), dtype=float)
    require(
        bool(np.all((mos_arr >= 1.0) & (mos_arr <= 5.0))),
        "MOS must be on the 1-5 Likert scale",
    )
    targets = (mos_arr - 1.0) / 4.0

    # Design matrix: row j holds q_{i,j} / N so that the solution directly
    # plays the role of the weights in Q = (1/N) Σ w_i q_i.  Divided in
    # place: one rows-by-chunks temporary fewer left in the heap.
    design = base_model.chunk_scores_batch(renderings)
    design /= num_chunks

    # Shrink towards the uniform prior: substitute w = 1 + delta and solve a
    # standard ridge problem for delta.
    gram_scale = float(np.mean(np.sum(design * design, axis=0)))
    alpha = prior_strength * max(gram_scale, 1e-12)
    residual_targets = targets - design @ np.ones(num_chunks)
    gram = design.T @ design + alpha * np.eye(num_chunks)
    delta = np.linalg.solve(gram, design.T @ residual_targets)
    weights = 1.0 + delta

    weights = np.maximum(weights, weight_floor)
    weights = weights / float(np.mean(weights))
    return SensitivityProfile(
        video_id=video_id or renderings.encoded.source.video_id,
        weights=weights,
        num_ratings=num_ratings,
        cost_usd=cost_usd,
    )
