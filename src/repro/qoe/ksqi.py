"""KSQI-like QoE model: additive linear over VMAF, rebuffering and switches.

KSQI (Duanmu et al.) combines VMAF, rebuffering ratio and quality switches
in a linear model.  It is the paper's strongest baseline, the base QoE model
the SENSEI variants reweight (Eq. 2), and the objective given to Pensieve
and Fugu in the evaluation (§7.1).  The model here is additive over chunks
(Eq. 1), with coefficients trainable from MOS data by least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ml.linreg import RidgeRegression
from repro.qoe.base import AdditiveQoEModel
from repro.utils.validation import require, require_non_negative
from repro.video.encoder import EncodedVideo
from repro.video.rendering import (
    RenderedVideo,
    bitrate_switches_kbps,
    played_bitrates_kbps,
    played_quality,
)


@dataclass
class KSQICoefficients:
    """Coefficients of the per-chunk KSQI score.

    ``q_i = intercept + quality_weight * vmaf_i/100
            - rebuffer_weight * stall_i - switch_weight * switch_i``
    where ``switch_i`` is the normalised bitrate change entering chunk i.

    The default rebuffering/switch penalties are calibrated so that a single
    salient incident moves the video-level (chunk-averaged) score by an
    amount comparable to what MOS studies report, rather than being diluted
    by the video length; :meth:`KSQIModel.fit` re-estimates them from data.
    """

    quality_weight: float = 0.9
    rebuffer_weight: float = 3.0
    switch_weight: float = 0.25
    startup_weight: float = 0.1
    intercept: float = 0.05

    def __post_init__(self) -> None:
        require_non_negative(self.quality_weight, "quality_weight")
        require_non_negative(self.rebuffer_weight, "rebuffer_weight")
        require_non_negative(self.switch_weight, "switch_weight")
        require_non_negative(self.startup_weight, "startup_weight")


class KSQIModel(AdditiveQoEModel):
    """Additive KSQI-style QoE model.

    Parameters
    ----------
    coefficients:
        Initial coefficients; :meth:`fit` re-estimates them from MOS data.
    """

    name = "KSQI"

    def __init__(self, coefficients: Optional[KSQICoefficients] = None) -> None:
        self.coefficients = coefficients if coefficients is not None else KSQICoefficients()

    # ---------------------------------------------------------- per-chunk q_i

    def chunk_score_rows(
        self,
        encoded: EncodedVideo,
        levels: np.ndarray,
        stalls_s: np.ndarray,
        startup_delay_s: np.ndarray,
    ) -> np.ndarray:
        """Per-chunk contributions ``q_i``, one row per rendering.

        Deliberately not clipped per chunk: a chunk hit by a long stall can
        contribute a large negative term, exactly as in the original additive
        formulation; only the aggregate is clipped to [0, 1].
        """
        coeffs = self.coefficients
        quality = played_quality(encoded, levels) / 100.0
        top_bitrate = encoded.ladder.bitrates_kbps[-1]
        switches = (
            bitrate_switches_kbps(played_bitrates_kbps(encoded, levels)) / top_bitrate
        )
        scores = (
            coeffs.intercept
            + coeffs.quality_weight * quality
            - coeffs.rebuffer_weight * stalls_s
            - coeffs.switch_weight * switches
        )
        # The startup penalty is charged to the first chunk.
        scores[:, 0] -= coeffs.startup_weight * startup_delay_s
        return scores

    def chunk_quality_function(
        self,
        bitrate_level: int,
        stall_s: float,
        vmaf: float,
        previous_bitrate_kbps: float,
        bitrate_kbps: float,
        top_bitrate_kbps: float,
    ) -> float:
        """The per-chunk quality estimate ``q(b, t)`` used by planner-style
        ABR algorithms (Fugu's Eq. 3), evaluated without a full rendering."""
        coeffs = self.coefficients
        switch = abs(bitrate_kbps - previous_bitrate_kbps) / top_bitrate_kbps
        score = (
            coeffs.intercept
            + coeffs.quality_weight * vmaf / 100.0
            - coeffs.rebuffer_weight * stall_s
            - coeffs.switch_weight * switch
        )
        return float(np.clip(score, 0.0, 1.0))

    # ------------------------------------------------------------------- fit

    def fit(
        self, renderings: Sequence[RenderedVideo], mos: Sequence[float]
    ) -> "KSQIModel":
        """Re-estimate the coefficients from (rendering, MOS) pairs.

        Fits a ridge regression of the MOS (normalised to [0, 1]) on the
        video-level averages of the per-chunk features, then maps the fitted
        signs back onto the non-negative coefficient convention.
        """
        require(len(renderings) == len(mos), "renderings and MOS must align")
        require(len(renderings) >= 4, "need at least four training points")
        mos_arr = np.asarray(list(mos), dtype=float)
        targets = (mos_arr - 1.0) / 4.0 if mos_arr.max() > 1.5 else mos_arr

        features = []
        for rendering in renderings:
            quality = rendering.quality_curve() / 100.0
            top = rendering.encoded.ladder.bitrates_kbps[-1]
            switches = rendering.switch_magnitudes_kbps() / top
            features.append(
                [
                    float(np.mean(quality)),
                    float(np.mean(rendering.stalls_s)),
                    float(np.mean(switches)),
                    float(rendering.startup_delay_s),
                ]
            )
        regression = RidgeRegression(alpha=1e-3).fit(np.asarray(features), targets)
        coeff = regression.coefficients
        self.coefficients = KSQICoefficients(
            quality_weight=max(0.05, float(coeff[0])),
            rebuffer_weight=max(0.01, float(-coeff[1])),
            switch_weight=max(0.0, float(-coeff[2])),
            startup_weight=max(0.0, float(-coeff[3])),
            intercept=float(np.clip(regression.intercept, -0.5, 0.5)),
        )
        return self
