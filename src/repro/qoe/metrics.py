"""Evaluation harness for QoE models: the metrics of Figures 2 and 15."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.qoe.base import QoEModel
from repro.utils.stats import (
    discordant_pair_fraction,
    mean_relative_error,
    pearson_correlation,
    spearman_correlation,
)
from repro.utils.validation import require
from repro.video.rendering import RenderedVideo


@dataclass(frozen=True)
class ModelEvaluation:
    """Accuracy summary of one QoE model on a test set.

    Attributes
    ----------
    model_name: name of the evaluated model.
    plcc: Pearson correlation with the true QoE (Figure 15).
    srcc: Spearman rank correlation with the true QoE (Figure 15).
    mean_relative_error: mean of |predicted - true| / true (Figure 2 x-axis).
    discordant_fraction: fraction of mis-ordered pairs (Figure 2 y-axis).
    num_samples: size of the test set.
    """

    model_name: str
    plcc: float
    srcc: float
    mean_relative_error: float
    discordant_fraction: float
    num_samples: int

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form for report tables."""
        return {
            "model": self.model_name,
            "plcc": self.plcc,
            "srcc": self.srcc,
            "mean_relative_error": self.mean_relative_error,
            "discordant_fraction": self.discordant_fraction,
            "num_samples": float(self.num_samples),
        }


def evaluate_model(
    model: QoEModel,
    renderings: Sequence[RenderedVideo],
    true_qoe: Sequence[float],
) -> ModelEvaluation:
    """Evaluate a QoE model against ground-truth QoE values in [0, 1]."""
    require(len(renderings) == len(true_qoe), "renderings and truth must align")
    require(len(renderings) >= 2, "need at least two test points")
    truth = np.asarray(list(true_qoe), dtype=float)
    predictions = model.score_many(renderings)
    return ModelEvaluation(
        model_name=model.name,
        plcc=pearson_correlation(predictions, truth),
        srcc=spearman_correlation(predictions, truth),
        mean_relative_error=mean_relative_error(predictions, truth),
        discordant_fraction=discordant_pair_fraction(truth, predictions),
        num_samples=len(renderings),
    )
