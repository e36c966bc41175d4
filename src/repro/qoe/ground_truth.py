"""The ground-truth oracle: how "real users" experience a rendering.

The paper's central claim is that users' sensitivity to quality incidents
varies with the content of the moment and can only be observed by asking
them.  In the reproduction, this latent truth is modelled explicitly:

* every chunk has a **latent sensitivity** derived from its (hidden)
  ``key_moment`` descriptor — goals, climaxes and informational moments are
  markedly more sensitive than normal gameplay or scenic stretches;
* the **true QoE** of a rendering is a sensitivity-weighted aggregate of
  per-chunk imperfections (visual-quality loss, rebuffering, switches) plus
  a startup-delay penalty;
* simulated raters (:mod:`repro.crowd`) observe the true QoE through
  per-worker bias and noise, mirroring how MOS emerges from real MTurk
  campaigns.

Everything downstream — baseline QoE models, SENSEI's profiling pipeline,
ABR evaluation — treats the oracle as unobservable except through ratings,
exactly as the paper treats real users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.trace import trace_span
from repro.utils.validation import require, require_non_negative
from repro.video.rendering import RenderedVideo
from repro.video.video import SourceVideo


@dataclass(frozen=True)
class SensitivityParameters:
    """Parameters of the latent sensitivity model.

    Human reactions to quality incidents are *salient*: a single rebuffering
    event noticeably hurts the opinion of a multi-minute video rather than
    being averaged away over its length (this is what makes per-chunk
    profiling from MOS feasible at all).  Incident penalties are therefore
    summed per incident — weighted by the sensitivity of the chunk they hit —
    and saturate smoothly so that many incidents cannot push QoE below zero
    arbitrarily fast.

    Attributes
    ----------
    base_sensitivity:
        Sensitivity of a chunk with ``key_moment = 0``.
    key_moment_gain:
        How much a full-strength key moment raises sensitivity.
    rebuffer_penalty_per_s:
        QoE loss per second of stall at (normalised) unit sensitivity.
    switch_penalty:
        QoE loss per unit (normalised) bitrate switch at unit sensitivity.
    quality_loss_weight:
        QoE loss per unit of missing visual quality at unit sensitivity
        (applied as a per-chunk average: low bitrate is a sustained, not a
        salient, impairment).
    low_bitrate_salience:
        Extra penalty per chunk-second of *transient* bitrate dip below the
        locally prevailing bitrate, sensitivity weighted — this is what makes
        a deliberate bitrate drop at a key moment noticeable, while sustained
        low bitrate (a genuinely constrained network) is charged only through
        the quality-loss term.
    key_quality_salience:
        Salient penalty for playing a *high-sensitivity* chunk below its best
        achievable visual quality: a blurry goal moment is memorable on its
        own, not merely as a fraction of the video average.  This is the
        term that rewards aligning higher bitrate with higher sensitivity.
    startup_penalty_per_s:
        QoE loss per second of startup delay (not sensitivity weighted; the
        video has not started yet so content cannot modulate it).
    penalty_saturation:
        Asymptotic cap of the summed incident penalty (smooth saturation).
    """

    base_sensitivity: float = 0.25
    key_moment_gain: float = 2.0
    rebuffer_penalty_per_s: float = 0.12
    switch_penalty: float = 0.03
    quality_loss_weight: float = 0.35
    low_bitrate_salience: float = 0.05
    key_quality_salience: float = 0.15
    startup_penalty_per_s: float = 0.005
    penalty_saturation: float = 0.75

    def __post_init__(self) -> None:
        require(self.base_sensitivity > 0, "base_sensitivity must be positive")
        require_non_negative(self.key_moment_gain, "key_moment_gain")
        require_non_negative(self.rebuffer_penalty_per_s, "rebuffer_penalty_per_s")
        require_non_negative(self.switch_penalty, "switch_penalty")
        require_non_negative(self.quality_loss_weight, "quality_loss_weight")
        require_non_negative(self.low_bitrate_salience, "low_bitrate_salience")
        require_non_negative(self.key_quality_salience, "key_quality_salience")
        require_non_negative(self.startup_penalty_per_s, "startup_penalty_per_s")
        require(self.penalty_saturation > 0, "penalty_saturation must be positive")


#: Renderings :meth:`GroundTruthOracle.true_qoe_batch` scores at a time.
#: Its temporaries (a dozen rendering-by-chunk arrays and the 7-chunk
#: median windows) peak at 1.2 MB for the longest (149-chunk) video.
BLOCK_ROWS = 64


class GroundTruthOracle:
    """Latent dynamic-sensitivity model standing in for real viewers."""

    def __init__(self, parameters: Optional[SensitivityParameters] = None) -> None:
        self.parameters = parameters if parameters is not None else SensitivityParameters()

    # -------------------------------------------------------------- sensitivity

    def sensitivity_curve(self, video: SourceVideo) -> np.ndarray:
        """Latent per-chunk sensitivity of a source video.

        Values are positive and average close to 1 for a typical video, so
        they are directly comparable to the per-chunk weights SENSEI infers.
        """
        params = self.parameters
        key_moments = video.key_moment_curve()
        return params.base_sensitivity + params.key_moment_gain * key_moments

    def normalized_sensitivity(self, video: SourceVideo) -> np.ndarray:
        """Sensitivity rescaled to mean 1 (the convention SENSEI's weights use)."""
        curve = self.sensitivity_curve(video)
        return curve / float(np.mean(curve))

    # -------------------------------------------------------------------- QoE

    def true_qoe_batch(self, renderings: Sequence[RenderedVideo]) -> np.ndarray:
        """True QoE in [0, 1] — what MOS estimates — of renderings of one
        encoded video, in input order.  Per-video inputs are computed once
        and every term row-wise over rendering-by-chunk matrices; each value
        is bit-identical to scoring that rendering alone."""
        with trace_span("qoe.oracle"):
            require(
                len({(r.source.video_id, r.encoded.ladder) for r in renderings})
                == 1,
                "true_qoe_batch scores renderings of one video and one ladder",
            )
            sensitivity = self.normalized_sensitivity(renderings[0].source)
            return np.concatenate([
                self._true_qoe_rows(renderings[start:start + BLOCK_ROWS], sensitivity)
                for start in range(0, len(renderings), BLOCK_ROWS)
            ])

    def _true_qoe_rows(
        self, renderings: Sequence[RenderedVideo], sensitivity: np.ndarray
    ) -> np.ndarray:
        """:meth:`true_qoe_batch` over one block of at most ``BLOCK_ROWS``."""
        params = self.parameters
        encoded = renderings[0].encoded
        ladder = encoded.ladder
        top_bitrate = ladder.bitrates_kbps[-1]
        quality_matrix = encoded.quality_matrix()
        levels = np.stack([r.levels for r in renderings])
        stalls = np.stack([r.stalls_s for r in renderings])
        startup_delay = np.array([r.startup_delay_s for r in renderings])
        num_chunks = levels.shape[1]

        # Salient incidents: rebuffering, bitrate switches and time spent at
        # severely reduced bitrate.  They are *summed* over the video (with
        # saturation), not averaged, because a single incident stays
        # memorable regardless of how long the video is.
        bitrates = np.asarray(ladder.bitrates_kbps, dtype=float)[levels]
        switch_magnitudes = np.zeros_like(bitrates)
        switch_magnitudes[:, 1:] = np.abs(np.diff(bitrates, axis=1))
        stall_penalty = params.rebuffer_penalty_per_s * stalls
        switch_penalty = params.switch_penalty * (switch_magnitudes / top_bitrate)
        # Transient bitrate dips below the local (7-chunk median) bitrate.
        # Sustained low bitrate produces no dip and is charged only via the
        # quality loss.
        bitrate_norm = bitrates / top_bitrate
        dips = np.empty_like(bitrate_norm)
        if num_chunks >= 7:
            windows = np.lib.stride_tricks.sliding_window_view(bitrate_norm, 7, axis=1)
            interior = slice(3, num_chunks - 3)
            dips[:, interior] = np.maximum(
                0.0, np.median(windows, axis=2) - bitrate_norm[:, interior]
            )
            edge_indices = [*range(3), *range(num_chunks - 3, num_chunks)]
        else:
            edge_indices = range(num_chunks)
        for index in edge_indices:
            # Windows clipped by the ends: the median as np.median computes
            # it, from the sorted middle element(s).
            window = np.sort(bitrate_norm[:, max(0, index - 3):index + 4], axis=1)
            mid = window.shape[1] // 2
            if window.shape[1] % 2:
                local_reference = window[:, mid]
            else:
                local_reference = (window[:, mid - 1] + window[:, mid]) * 0.5
            dips[:, index] = np.maximum(0.0, local_reference - bitrate_norm[:, index])
        # Quadratic in the dip magnitude: a one-rung wobble is barely
        # noticeable, a drop to the lowest rung at a key moment clearly is.
        low_bitrate_penalty = (
            params.low_bitrate_salience * encoded.chunk_duration_s * dips ** 2
        )
        # Playing a highly sensitive chunk below its best achievable quality
        # is memorable in its own right (a blurry goal moment), independent
        # of how long the video is.
        quality = quality_matrix[np.arange(num_chunks), levels]
        best_quality = quality_matrix[:, ladder.highest_level]
        key_quality_penalty = (
            params.key_quality_salience
            * np.maximum(sensitivity - 1.0, 0.0)
            * ((best_quality - quality) / 100.0)
        )
        penalties = (
            sensitivity * (stall_penalty + switch_penalty + low_bitrate_penalty)
            + key_quality_penalty
        )
        # Smooth saturation caps the summed incident penalty.
        cap = params.penalty_saturation
        incident_penalty = cap * (1.0 - np.exp(-np.sum(penalties, axis=1) / cap))
        # Low bitrate is also a sustained impairment: the average
        # sensitivity-weighted visual-quality shortfall.
        quality_loss = np.mean(
            sensitivity * params.quality_loss_weight * (1.0 - quality / 100.0),
            axis=1,
        )
        # Startup delay is not sensitivity weighted: the video has not
        # started yet, so content cannot modulate it.
        startup_loss = params.startup_penalty_per_s * startup_delay
        return np.clip(1.0 - quality_loss - incident_penalty - startup_loss, 0.0, 1.0)

    def true_qoe_grouped(self, renderings: Sequence[RenderedVideo]) -> np.ndarray:
        """True QoE of any renderings, in order: one batch per video and ladder."""
        groups: Dict[tuple, List[int]] = {}
        for index, r in enumerate(renderings):
            groups.setdefault((r.source.video_id, r.encoded.ladder), []).append(index)
        values = np.empty(len(renderings))
        for indices in groups.values():
            values[indices] = self.true_qoe_batch([renderings[i] for i in indices])
        return values

    def true_qoe(self, rendered: RenderedVideo) -> float:
        """True QoE of one rendering (hot callers use :meth:`true_qoe_batch`)."""
        return float(self.true_qoe_batch([rendered])[0])

    def true_mos_batch(self, renderings: Sequence[RenderedVideo]) -> np.ndarray:
        """True QoE on the 1–5 Likert scale the surveys use, per rendering."""
        return 1.0 + 4.0 * self.true_qoe_batch(renderings)

    def true_mos(self, rendered: RenderedVideo) -> float:
        """True MOS of one rendering (hot callers use :meth:`true_mos_batch`)."""
        return float(self.true_mos_batch([rendered])[0])
