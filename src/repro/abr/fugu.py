"""Fugu-style ABR: stochastic MPC over a learned throughput-error distribution.

Following the paper's description (§5.2, Eq. 3): before downloading chunk i,
Fugu considers the throughput prediction for the next ``h`` chunks; for every
throughput variation γ (with predicted probability p(γ)) and candidate
bitrate plan it simulates when each chunk would finish downloading,
estimates the per-chunk rebuffering time, and picks the plan maximising the
expected total per-chunk quality ``Σ_γ p(γ) Σ_j q(b_j, t_j(B, γ))``.

The quality model ``q(b, t)`` is KSQI, as in the paper's evaluation setup.
The throughput-error distribution is learned online by
:class:`~repro.abr.throughput.ErrorDistributionPredictor`, standing in for
Fugu's trained transmission-time predictor.
"""

from __future__ import annotations

from typing import Optional

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.abr.planner import enumerate_level_sequences, evaluate_candidates
from repro.abr.throughput import ErrorDistributionPredictor
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require


class FuguABR(ABRAlgorithm):
    """Fugu: expectation-over-throughput-variation planning.

    Parameters
    ----------
    horizon:
        Planning horizon in chunks (the paper uses h = 5; the default of 4
        keeps simulation-scale sweeps fast with negligible QoE difference).
    quality_model:
        Per-chunk quality model (KSQI).
    predictor:
        Probabilistic throughput predictor.
    max_level_step:
        Optional per-chunk level-change cap pruning the candidate set.
    """

    name = "Fugu"

    def __init__(
        self,
        horizon: int = 4,
        quality_model: Optional[KSQIModel] = None,
        predictor: Optional[ErrorDistributionPredictor] = None,
        max_level_step: Optional[int] = 2,
    ) -> None:
        require(horizon >= 1, "horizon must be >= 1")
        self.horizon = int(horizon)
        self.quality_model = quality_model if quality_model is not None else KSQIModel()
        self.predictor = (
            predictor if predictor is not None else ErrorDistributionPredictor()
        )
        self.max_level_step = max_level_step

    def reset(self) -> None:
        self.predictor.reset()

    def decide(self, observation: PlayerObservation) -> Decision:
        """Maximise expected plan quality over the throughput distribution."""
        horizon = min(self.horizon, observation.horizon)
        scenarios = self.predictor.predict_distribution(observation)
        candidates = enumerate_level_sequences(
            observation.ladder.num_levels,
            horizon,
            max_step=self.max_level_step,
            start_level=observation.last_level,
        )
        evaluation = evaluate_candidates(
            observation,
            candidates,
            throughput_scenarios=scenarios,
            quality_model=self.quality_model,
        )
        return Decision(level=evaluation.best_level)
