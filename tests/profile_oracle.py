"""Test-only oracle for the profiling pipeline's rendering columns.

These are the per-object bodies that :class:`repro.video.rendering.RenderingBatch`
and :func:`repro.video.rendering.inject_incidents` replaced: the two-step
scheduler built one :class:`RenderedVideo` per probe with ``inject_incident``
(a ``dataclasses.replace`` of the pristine rendering), KSQI scored one
rendering at a time from the rendering's own quality curve and switch
magnitudes, and weight inference stacked those per-rendering scores into its
design matrix.  ``tests/test_profile_batch.py`` requires the
batched forms to reproduce them bit for bit.  :func:`profile_video` runs the
whole two-step pipeline on these bodies, rating through the per-rating
campaign oracle of :mod:`tests.crowd_oracle`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.profiler import SenseiProfiler
from repro.core.scheduler import TwoStepScheduler
from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo
from repro.video.rendering import (
    INCIDENT_REBUFFERING,
    QualityIncident,
    RenderedVideo,
    render_pristine,
)
from tests import crowd_oracle


def inject_incident(
    rendering: RenderedVideo, incident: QualityIncident, render_id: str = ""
) -> RenderedVideo:
    """Return a copy of ``rendering`` with one quality incident injected."""
    n = rendering.num_chunks
    require(incident.chunk_index < n, "incident chunk index beyond video end")
    levels = rendering.levels.copy()
    stalls = rendering.stalls_s.copy()
    if incident.kind == INCIDENT_REBUFFERING:
        stalls[incident.chunk_index] += incident.stall_s
    else:
        require(
            incident.drop_to_level < rendering.encoded.ladder.num_levels,
            "drop_to_level out of range",
        )
        end = min(n, incident.chunk_index + incident.duration_chunks)
        for i in range(incident.chunk_index, end):
            levels[i] = min(int(levels[i]), incident.drop_to_level)
    if not render_id:
        render_id = (
            f"{rendering.encoded.source.video_id}/{incident.kind}"
            f"@{incident.chunk_index}"
        )
    return replace(rendering, levels=levels, stalls_s=stalls, render_id=render_id)


# ------------------------------------------------------------- schedules


def step1_schedule(
    scheduler: TwoStepScheduler, encoded: EncodedVideo
) -> List[RenderedVideo]:
    """One rendering per chunk with the probe stall, plus the reference."""
    pristine = render_pristine(encoded)
    renderings: List[RenderedVideo] = []
    if scheduler.config.include_reference:
        renderings.append(pristine.with_render_id(
            f"{encoded.source.video_id}/step1/reference"
        ))
    for chunk_index in range(encoded.num_chunks):
        incident = QualityIncident.rebuffering(
            chunk_index, scheduler.config.step1_stall_s
        )
        renderings.append(inject_incident(
            pristine, incident,
            render_id=f"{encoded.source.video_id}/step1/stall@{chunk_index}",
        ))
    return renderings


def step2_schedule(
    scheduler: TwoStepScheduler, encoded: EncodedVideo, step1_weights: np.ndarray
) -> List[RenderedVideo]:
    """Renderings probing only the high/low-sensitivity chunks."""
    config = scheduler.config
    return _probe_renderings(
        encoded,
        "step2",
        scheduler.select_chunks_to_reprobe(step1_weights).tolist(),
        range(config.step2_num_bitrate_levels),
        config.step2_rebuffer_lengths_s[: config.step2_num_rebuffer_lengths],
    )


def exhaustive_schedule(
    encoded: EncodedVideo,
    num_bitrate_levels: int = 5,
    rebuffer_lengths_s: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
) -> List[RenderedVideo]:
    """Every incident type at every chunk, after the pristine rendering."""
    pristine = render_pristine(encoded).with_render_id(
        f"{encoded.source.video_id}/full/pristine"
    )
    return [pristine] + _probe_renderings(
        encoded,
        "full",
        range(encoded.num_chunks),
        range(num_bitrate_levels - 1),
        rebuffer_lengths_s,
    )


def _probe_renderings(
    encoded: EncodedVideo,
    step: str,
    chunks: Sequence[int],
    drop_levels: Sequence[int],
    stalls_s: Sequence[float],
) -> List[RenderedVideo]:
    pristine = render_pristine(encoded)
    prefix = f"{encoded.source.video_id}/{step}/"
    renderings: List[RenderedVideo] = []
    for chunk_index in chunks:
        for level in drop_levels:
            renderings.append(inject_incident(
                pristine, QualityIncident.bitrate_drop(chunk_index, level),
                render_id=f"{prefix}drop{level}@{chunk_index}",
            ))
        for stall_s in stalls_s:
            renderings.append(inject_incident(
                pristine, QualityIncident.rebuffering(chunk_index, stall_s),
                render_id=f"{prefix}stall{stall_s:g}@{chunk_index}",
            ))
    return renderings


# ------------------------------------------------------- scores and weights


def quality_curve(rendered: RenderedVideo) -> np.ndarray:
    """Visual quality per chunk as played (0-100)."""
    levels = np.asarray(rendered.levels, dtype=int)
    return rendered.encoded.quality_matrix()[np.arange(levels.size), levels]


def switch_magnitudes_kbps(rendered: RenderedVideo) -> np.ndarray:
    """Absolute bitrate change (kbps) at each chunk boundary; first is 0."""
    ladder_rates = np.asarray(rendered.encoded.ladder.bitrates_kbps, dtype=float)
    rates = ladder_rates[np.asarray(rendered.levels, dtype=int)]
    return np.concatenate([[0.0], np.abs(np.diff(rates))])


def watch_duration_s(rendered: RenderedVideo) -> float:
    """Seconds of watching in full: playback, stalls and startup delay."""
    duration = rendered.num_chunks * rendered.chunk_duration_s
    return duration + float(np.sum(rendered.stalls_s)) + rendered.startup_delay_s


def ksqi_chunk_scores(model: KSQIModel, rendered: RenderedVideo) -> np.ndarray:
    """KSQI's per-chunk contributions ``q_i`` of one rendering."""
    coeffs = model.coefficients
    quality = quality_curve(rendered) / 100.0
    stalls = rendered.stalls_s
    top_bitrate = rendered.encoded.ladder.bitrates_kbps[-1]
    switches = switch_magnitudes_kbps(rendered) / top_bitrate
    scores = (
        coeffs.intercept
        + coeffs.quality_weight * quality
        - coeffs.rebuffer_weight * stalls
        - coeffs.switch_weight * switches
    )
    scores = scores.copy()
    scores[0] -= coeffs.startup_weight * rendered.startup_delay_s
    return scores


def design_matrix(
    model: KSQIModel, renderings: Sequence[RenderedVideo]
) -> np.ndarray:
    """Weight inference's design matrix: row j is ``q_{i,j} / N``."""
    return np.stack(
        [ksqi_chunk_scores(model, rendering) for rendering in renderings]
    ) / renderings[0].num_chunks


def solve_weights(
    design: np.ndarray,
    targets: np.ndarray,
    prior_strength: float = 0.3,
    weight_floor: float = 0.2,
) -> np.ndarray:
    """The ridge solve of weight inference, shrunk towards ``w = 1``."""
    num_chunks = design.shape[1]
    gram_scale = float(np.mean(np.sum(design * design, axis=0)))
    alpha = prior_strength * max(gram_scale, 1e-12)
    residual_targets = targets - design @ np.ones(num_chunks)
    gram = design.T @ design + alpha * np.eye(num_chunks)
    delta = np.linalg.solve(gram, design.T @ residual_targets)
    weights = np.maximum(1.0 + delta, weight_floor)
    return weights / float(np.mean(weights))


def infer_weights(
    renderings: Sequence[RenderedVideo], mos: Sequence[float], model: KSQIModel
) -> np.ndarray:
    """Weights from rated renderings, MOS read on the 1–5 scale."""
    targets = (np.asarray(list(mos), dtype=float) - 1.0) / 4.0
    return solve_weights(design_matrix(model, renderings), targets)


# ----------------------------------------------------------------- pipeline


def profile_video(
    profiler: SenseiProfiler, encoded: EncodedVideo
) -> Tuple[np.ndarray, float]:
    """``(weights, total cost)`` of ``profiler.profile_video(encoded)``
    (two-step, base model not refitted), built from per-object schedules,
    per-rating campaigns and the object-list design matrix.  Give it its
    own profiler: the worker pool is stateful."""
    scheduler = profiler.scheduler
    config = scheduler.config
    rated: List[RenderedVideo] = []
    mos: List[float] = []
    total_cost = 0.0

    def rate(renderings, ratings_per_rendering, seed_offset):
        nonlocal total_cost
        campaign = MTurkCampaign(
            oracle=profiler.oracle,
            worker_pool=profiler.worker_pool,
            cost_model=profiler.cost_model,
            config=CampaignConfig(
                ratings_per_rendering=ratings_per_rendering,
                seed=profiler.campaign_seed + seed_offset,
            ),
        )
        result = crowd_oracle.run_campaign(
            campaign, renderings, render_pristine(encoded)
        )
        total_cost += result.total_paid_usd
        for rendering in renderings:
            rated.append(rendering)
            mos.append(result.mos[rendering.render_id])

    rate(step1_schedule(scheduler, encoded), config.step1_ratings, 1)
    step1_weights = infer_weights(rated, mos, profiler.base_model)
    step2 = step2_schedule(scheduler, encoded, step1_weights)
    if step2 and config.step2_ratings > 0:
        rate(step2, config.step2_ratings, 2)
    return infer_weights(rated, mos, profiler.base_model), total_cost
