"""Test-only oracle for the ground-truth QoE.

These are the scalar, one-rendering-at-a-time bodies that
:meth:`repro.qoe.ground_truth.GroundTruthOracle.true_qoe_batch` replaced.
The batch stacks a video's renderings into rendering-by-chunk matrices and
computes the same elementwise operation sequence row-wise; it is required
to reproduce :func:`true_qoe` bit for bit (``tests/test_qoe_batch.py``).
The functions take the oracle as their first argument, so they read the
same parameters and the same normalised sensitivity the batch reads.
"""

from __future__ import annotations

import numpy as np

from repro.qoe.ground_truth import GroundTruthOracle
from repro.video.rendering import RenderedVideo


def chunk_incident_penalties(
    oracle: GroundTruthOracle, rendered: RenderedVideo
) -> np.ndarray:
    """Per-chunk salient-incident penalty (sensitivity weighted)."""
    params = oracle.parameters
    sensitivity = oracle.normalized_sensitivity(rendered.source)
    top_bitrate = rendered.encoded.ladder.bitrates_kbps[-1]
    stall_penalty = params.rebuffer_penalty_per_s * rendered.stalls_s
    switch_penalty = params.switch_penalty * (
        rendered.switch_magnitudes_kbps() / top_bitrate
    )
    bitrate_norm = rendered.bitrates_kbps() / top_bitrate
    num_chunks = bitrate_norm.size
    dips = np.empty(num_chunks)
    if num_chunks >= 7:
        windows = np.lib.stride_tricks.sliding_window_view(bitrate_norm, 7)
        interior = slice(3, num_chunks - 3)
        dips[interior] = np.maximum(
            0.0, np.median(windows, axis=1) - bitrate_norm[interior]
        )
        edge_indices = [*range(3), *range(num_chunks - 3, num_chunks)]
    else:
        edge_indices = range(num_chunks)
    for index in edge_indices:
        lo = max(0, index - 3)
        hi = min(num_chunks, index + 4)
        window = np.sort(bitrate_norm[lo:hi])
        mid = window.size // 2
        if window.size % 2:
            local_reference = float(window[mid])
        else:
            local_reference = float((window[mid - 1] + window[mid]) * 0.5)
        dips[index] = max(0.0, local_reference - bitrate_norm[index])
    low_bitrate_penalty = (
        params.low_bitrate_salience * rendered.chunk_duration_s * dips ** 2
    )
    top_level = rendered.encoded.ladder.highest_level
    best_quality = rendered.encoded.quality_matrix()[:, top_level]
    quality_shortfall = (best_quality - rendered.quality_curve()) / 100.0
    key_quality_penalty = (
        params.key_quality_salience
        * np.maximum(sensitivity - 1.0, 0.0)
        * quality_shortfall
    )
    return (
        sensitivity * (stall_penalty + switch_penalty + low_bitrate_penalty)
        + key_quality_penalty
    )


def sustained_quality_loss(
    oracle: GroundTruthOracle, rendered: RenderedVideo
) -> float:
    """Average sensitivity-weighted visual-quality shortfall in [0, ~1]."""
    params = oracle.parameters
    sensitivity = oracle.normalized_sensitivity(rendered.source)
    quality = rendered.quality_curve() / 100.0
    return float(
        np.mean(sensitivity * params.quality_loss_weight * (1.0 - quality))
    )


def chunk_experience(
    oracle: GroundTruthOracle, rendered: RenderedVideo
) -> np.ndarray:
    """Per-chunk experienced quality in [0, 1] (diagnostic view)."""
    params = oracle.parameters
    sensitivity = oracle.normalized_sensitivity(rendered.source)
    quality = rendered.quality_curve() / 100.0
    quality_loss = sensitivity * params.quality_loss_weight * (1.0 - quality)
    return np.clip(
        1.0 - quality_loss - chunk_incident_penalties(oracle, rendered), 0.0, 1.0
    )


def true_qoe(oracle: GroundTruthOracle, rendered: RenderedVideo) -> float:
    """The rendering's true QoE in [0, 1], one rendering at a time."""
    cap = oracle.parameters.penalty_saturation
    penalty = float(np.sum(chunk_incident_penalties(oracle, rendered)))
    incident_penalty = cap * (1.0 - np.exp(-penalty / cap))
    quality_loss = sustained_quality_loss(oracle, rendered)
    startup_loss = oracle.parameters.startup_penalty_per_s * rendered.startup_delay_s
    return float(
        np.clip(1.0 - quality_loss - incident_penalty - startup_loss, 0.0, 1.0)
    )
