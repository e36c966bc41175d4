"""SENSEI's sensitivity-aware ABR variants (§5).

Both variants take the per-chunk weights of upcoming chunks as an extra
input, reweight the QoE objective (Eq. 4) and gain a new action — scheduling
a short proactive rebuffering at a chunk boundary even when the buffer is
not empty — so quality can be shifted from low- to high-sensitivity chunks.

* :class:`SenseiFuguABR` augments the Fugu/MPC planner: the plan score
  weights each chunk's quality by its sensitivity and the candidate set
  includes {0, 1, 2}-second proactive stalls before the next chunk.
* :class:`SenseiPensieveABR` augments the Pensieve agent: the weights of the
  next ``h`` chunks join the state, stall actions join the action space, and
  the reward is the weighted chunk quality.  It must be (re)trained like
  Pensieve; :func:`make_sensei_pensieve` builds a ready-to-train instance.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.abr.planner import enumerate_level_sequences, evaluate_candidates
from repro.abr.throughput import ErrorDistributionPredictor
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require

#: Rebuffering durations SENSEI may schedule at a chunk boundary (§5.2).
DEFAULT_STALL_OPTIONS_S = (0.0, 1.0, 2.0)


class SenseiFuguABR(ABRAlgorithm):
    """SENSEI applied to Fugu (Eq. 4): weighted objective + proactive stalls.

    Parameters
    ----------
    horizon:
        Planning horizon h (the paper picks 5; gains flatten beyond 4).
    quality_model:
        Per-chunk quality model q(b, t) (KSQI).
    predictor:
        Probabilistic throughput predictor (as in Fugu).
    stall_options_s:
        Proactive stall durations considered before the next chunk.
    max_level_step:
        Optional per-chunk level-change cap pruning the candidate set.
    min_stall_buffer_s:
        Proactive stalls are only considered when the buffer is at least this
        full, so the new action never *creates* an imminent involuntary stall.
    stall_risk_threshold_s:
        Proactive stalls are only considered when the best no-stall plan
        already predicts at least this much involuntary rebuffering over the
        horizon — i.e. the stall is insurance against a stall that is likely
        anyway, shifted to a low-sensitivity moment (Figure 11 c vs d), not
        gratuitous hedging.
    """

    name = "SENSEI-Fugu"

    def __init__(
        self,
        horizon: int = 4,
        quality_model: Optional[KSQIModel] = None,
        predictor: Optional[ErrorDistributionPredictor] = None,
        stall_options_s: Sequence[float] = DEFAULT_STALL_OPTIONS_S,
        max_level_step: Optional[int] = 2,
        min_stall_buffer_s: float = 4.0,
        stall_risk_threshold_s: float = 0.5,
        max_total_proactive_stall_s: float = 4.0,
    ) -> None:
        require(horizon >= 1, "horizon must be >= 1")
        self.horizon = int(horizon)
        self.quality_model = quality_model if quality_model is not None else KSQIModel()
        self.predictor = (
            predictor if predictor is not None else ErrorDistributionPredictor()
        )
        self.stall_options_s = tuple(float(s) for s in stall_options_s)
        self.max_level_step = max_level_step
        self.min_stall_buffer_s = float(min_stall_buffer_s)
        self.stall_risk_threshold_s = float(stall_risk_threshold_s)
        self.max_total_proactive_stall_s = float(max_total_proactive_stall_s)
        self._proactive_spent_s = 0.0

    def reset(self) -> None:
        self.predictor.reset()
        self._proactive_spent_s = 0.0

    def decide(self, observation: PlayerObservation) -> Decision:
        """Plan with the sensitivity-weighted objective (Eq. 4)."""
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
            weights=observation.upcoming_weights,
            stall_options_s=(0.0,),
        )
        # The new action (proactive rebuffering) is only worth considering
        # when a stall is likely anyway, shifting it to the present (lower
        # sensitivity) moment actually helps, the buffer can absorb it, and
        # the per-session stall budget is not exhausted.
        weights_ahead = observation.upcoming_weights[:horizon]
        shifting_helps = bool(
            weights_ahead.size > 1
            and float(np.max(weights_ahead[1:])) > float(weights_ahead[0]) * 1.05
        )
        stall_is_plausible = (
            evaluation.expected_rebuffer_s >= self.stall_risk_threshold_s
            and observation.buffer_s >= self.min_stall_buffer_s
            and shifting_helps
            and self._proactive_spent_s < self.max_total_proactive_stall_s
            and len(self.stall_options_s) > 1
        )
        if stall_is_plausible:
            remaining_budget = (
                self.max_total_proactive_stall_s - self._proactive_spent_s
            )
            allowed_stalls = tuple(
                s for s in self.stall_options_s if s <= remaining_budget + 1e-9
            )
            with_stalls = evaluate_candidates(
                observation,
                candidates,
                throughput_scenarios=scenarios,
                quality_model=self.quality_model,
                weights=observation.upcoming_weights,
                stall_options_s=allowed_stalls,
                )
            if with_stalls.best_score > evaluation.best_score:
                evaluation = with_stalls
        if evaluation.best_stall_s > 0:
            self._proactive_spent_s += evaluation.best_stall_s
        return Decision(
            level=evaluation.best_level,
            proactive_stall_s=evaluation.best_stall_s,
        )


class SenseiPensieveABR(PensieveABR):
    """SENSEI applied to Pensieve: augmented state, actions and reward.

    The class only changes the default configuration and the name; the
    state/action/reward plumbing in :class:`PensieveABR` already honours
    ``weight_horizon`` and ``stall_actions_s`` when they are non-trivial,
    and the training collector (:mod:`repro.training.collector`) reweights
    the reward whenever an episode carries per-video weights.
    """

    name = "SENSEI-Pensieve"
    policy_kind = "sensei-pensieve"

    def __init__(
        self,
        config: Optional[PensieveConfig] = None,
        quality_model: Optional[KSQIModel] = None,
        greedy: bool = True,
    ) -> None:
        if config is None:
            config = PensieveConfig(
                weight_horizon=5,
                stall_actions_s=(1.0, 2.0),
            )
        require(
            config.weight_horizon >= 1,
            "SENSEI-Pensieve needs weights in its state (weight_horizon >= 1)",
        )
        super().__init__(config=config, quality_model=quality_model, greedy=greedy)


def make_sensei_pensieve(
    num_levels: int = 5,
    history_length: int = 8,
    weight_horizon: int = 5,
    stall_actions_s: Tuple[float, ...] = (1.0, 2.0),
    hidden_dims: Tuple[int, ...] = (64, 32),
    seed: int = 47,
    quality_model: Optional[KSQIModel] = None,
) -> SenseiPensieveABR:
    """Build a SENSEI-Pensieve agent with an explicit configuration."""
    config = PensieveConfig(
        history_length=history_length,
        num_levels=num_levels,
        weight_horizon=weight_horizon,
        stall_actions_s=stall_actions_s,
        hidden_dims=hidden_dims,
        seed=seed,
    )
    return SenseiPensieveABR(config=config, quality_model=quality_model)
