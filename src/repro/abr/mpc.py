"""RobustMPC-style model-predictive ABR.

Enumerates bitrate plans over a short horizon, evaluates them against a
conservative (discounted harmonic-mean) throughput prediction using the
KSQI per-chunk quality model, and commits the first step.  Kept primarily
as a well-understood reference point and as the shared ancestor of the Fugu
implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.abr.planner import enumerate_level_sequences, evaluate_candidates
from repro.abr.throughput import HarmonicMeanPredictor, ThroughputPredictor
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require


class ModelPredictiveABR(ABRAlgorithm):
    """MPC lookahead ABR with a robust throughput discount.

    Parameters
    ----------
    horizon:
        Number of future chunks planned over.
    robustness_discount:
        The throughput prediction is divided by (1 + discount), mirroring
        RobustMPC's pessimistic correction.
    quality_model:
        Per-chunk quality model used as the planning objective (KSQI).
    max_level_step:
        Optional cap on per-chunk level changes to prune the search space.
    """

    name = "MPC"

    def __init__(
        self,
        horizon: int = 4,
        robustness_discount: float = 0.25,
        quality_model: Optional[KSQIModel] = None,
        predictor: Optional[ThroughputPredictor] = None,
        max_level_step: Optional[int] = 2,
    ) -> None:
        require(horizon >= 1, "horizon must be >= 1")
        require(robustness_discount >= 0, "robustness_discount must be >= 0")
        self.horizon = int(horizon)
        self.robustness_discount = float(robustness_discount)
        self.quality_model = quality_model if quality_model is not None else KSQIModel()
        self.predictor = predictor if predictor is not None else HarmonicMeanPredictor()
        self.max_level_step = max_level_step

    def reset(self) -> None:
        self.predictor.reset()

    def conservative(self, predicted):
        """The one throughput scenario planned against: the prediction (a
        float or an array of them) with RobustMPC's discount applied."""
        return predicted / (1.0 + self.robustness_discount)

    def decide(self, observation: PlayerObservation) -> Decision:
        """Plan over the horizon and return the first step's level."""
        horizon = min(self.horizon, observation.horizon)
        conservative = self.conservative(self.predictor.predict(observation))
        candidates = enumerate_level_sequences(
            observation.ladder.num_levels,
            horizon,
            max_step=self.max_level_step,
            start_level=observation.last_level,
        )
        evaluation = evaluate_candidates(
            observation,
            candidates,
            throughput_scenarios=[(conservative, 1.0)],
            quality_model=self.quality_model,
        )
        return Decision(level=evaluation.best_level)
