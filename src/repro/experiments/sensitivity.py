"""Measurement-study experiments: Figures 1, 3, 4, 5, 20 and Table 1.

These reproduce §2.3's finding that quality sensitivity varies over time,
is largely agnostic to the incident type, and is not predicted by CV
highlight models (Appendix D).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.cv.highlights import all_highlight_models
from repro.experiments.common import ExperimentContext
from repro.experiments.registry import experiment
from repro.utils.stats import cdf_points, normalize_to_unit, spearman_correlation
from repro.video.encoder import EncodedVideo, SyntheticEncoder
from repro.video.rendering import QualityIncident, make_video_series, render_pristine
from repro.video.video import SourceVideo

#: The three low-quality incidents used throughout §2.3.
STANDARD_INCIDENTS = {
    "rebuffer_1s": QualityIncident.rebuffering(0, 1.0),
    "rebuffer_4s": QualityIncident.rebuffering(0, 4.0),
    "bitrate_drop_4s": QualityIncident.bitrate_drop(0, drop_to_level=0),
}


def qoe_gap(qoe: Sequence[float]) -> float:
    """(Qmax - Qmin) / Qmin over a series of QoE values (Figure 3's gap).

    A non-positive minimum is floored at 1e-9, so a series that bottoms out
    at zero yields a large finite gap rather than a division error.
    """
    values = np.asarray(qoe, dtype=float)
    q_min = float(values.min())
    return (float(values.max()) - q_min) / max(q_min, 1e-9)


def _series_true_qoe(item) -> List[float]:
    """True QoE of every rendering in one (video, incident) series.

    The batch engine's ``map_ordered`` item function; each item is an
    ``(oracle, encoded, incident)`` tuple.
    """
    oracle, encoded, incident = item
    return oracle.true_qoe_batch(make_video_series(encoded, incident)).tolist()


@experiment("table1", group="sensitivity", figures=("Table 1",))
def table1_video_set(context: ExperimentContext) -> Dict[str, object]:
    """Table 1: the 16-video test set (name, genre, length, source)."""
    rows = context.library.table1_rows()
    return {"rows": rows, "num_videos": len(rows)}


def _short_clip(context: ExperimentContext, video_id: str, num_chunks: int) -> EncodedVideo:
    """A short clip of a catalogue video containing a key moment.

    Figure 1 uses a 25-second excerpt of Soccer1 around the goal; the clip is
    therefore centred on the video's most quality-sensitive chunk so the
    excerpt spans both ordinary gameplay and the key moment.
    """
    source = context.library.source(video_id)
    sensitivity = context.oracle.sensitivity_curve(source)
    peak = int(np.argmax(sensitivity))
    start = int(np.clip(peak - num_chunks // 2, 0, source.num_chunks - num_chunks))
    clip_source = SourceVideo.from_descriptors(
        video_id=f"{video_id}-clip",
        genre=source.genre,
        descriptors=source.descriptors[start : start + num_chunks],
        chunk_duration_s=source.chunk_duration_s,
        name=f"{source.name} (clip)",
    )
    encoder = SyntheticEncoder(seed=context.seed + 2)
    return encoder.encode(clip_source, context.library.ladder)


@experiment("fig01", group="sensitivity", figures=("1",))
def fig01_video_series_mos(
    context: ExperimentContext,
    video_id: str = "soccer1",
    clip_chunks: int = 6,
    stall_s: float = 1.0,
) -> Dict[str, object]:
    """Figure 1: MOS of renderings with a 1-s stall at different positions.

    Returns the per-position MOS (from the simulated crowd) plus the latent
    true QoE, for a short clip of the requested video.
    """
    clip = _short_clip(context, video_id, clip_chunks)
    series = make_video_series(clip, QualityIncident.rebuffering(0, stall_s))
    campaign = MTurkCampaign(
        oracle=context.oracle,
        config=CampaignConfig(
            ratings_per_rendering=max(10, context.scale.step1_ratings),
            seed=context.seed + 5,
        ),
    )
    result = campaign.run(series, reference=render_pristine(clip))
    mos = [result.normalized_mos[r.render_id] for r in series]
    true_qoe = context.oracle.true_qoe_batch(series).tolist()
    return {
        "video_id": video_id,
        "positions_s": [i * clip.chunk_duration_s for i in range(len(series))],
        "mos": mos,
        "true_qoe": true_qoe,
        "max_min_gap": (max(mos) - min(mos)) / max(min(mos), 1e-9),
        "most_sensitive_chunk": int(np.argmin(mos)),
    }


@experiment("fig03", group="sensitivity", figures=("3",))
def fig03_qoe_gap_cdf(
    context: ExperimentContext,
    window_chunks: int = 3,
) -> Dict[str, object]:
    """Figure 3: CDF of the max–min QoE gap per video series.

    One series per (video, incident type); the gap is also recomputed inside
    sliding 12-second windows (3 chunks) to show the variability is local.
    """
    whole_video_gaps: List[float] = []
    windowed_gaps: List[float] = []
    items = [
        (context.oracle, encoded, incident)
        for encoded in context.videos()
        for incident in STANDARD_INCIDENTS.values()
    ]
    for series_qoe in context.runner.map_ordered(_series_true_qoe, items):
        qoe = np.array(series_qoe)
        whole_video_gaps.append(qoe_gap(qoe))
        for start in range(0, qoe.size - window_chunks + 1, window_chunks):
            windowed_gaps.append(qoe_gap(qoe[start : start + window_chunks]))
    whole_x, whole_cdf = cdf_points(whole_video_gaps)
    return {
        "num_series": len(whole_video_gaps),
        "whole_video_gaps": whole_video_gaps,
        "whole_video_cdf": (whole_x.tolist(), whole_cdf.tolist()),
        "windowed_gaps": windowed_gaps,
        "fraction_above_40pct": float(np.mean(np.array(whole_video_gaps) > 0.4)),
        "median_gap": float(np.median(whole_video_gaps)),
    }


@experiment("fig04", group="sensitivity", figures=("4",))
def fig04_incident_positions(
    context: ExperimentContext,
    video_id: str = "soccer1",
    clip_chunks: int = 6,
) -> Dict[str, object]:
    """Figure 4: QoE vs incident position for the three incident types."""
    clip = _short_clip(context, video_id, clip_chunks)
    curves: Dict[str, List[float]] = {}
    for name, incident in STANDARD_INCIDENTS.items():
        series = make_video_series(clip, incident)
        curves[name] = context.oracle.true_qoe_batch(series).tolist()
    rankings_agree = spearman_correlation(
        curves["rebuffer_1s"], curves["rebuffer_4s"]
    )
    return {
        "video_id": video_id,
        "positions_s": [i * clip.chunk_duration_s for i in range(clip.num_chunks)],
        "curves": curves,
        "rank_correlation_1s_vs_4s": rankings_agree,
    }


@experiment("fig05", group="sensitivity", figures=("5",))
def fig05_incident_rank_correlation(context: ExperimentContext) -> Dict[str, object]:
    """Figure 5: per-video rank correlation of QoE between incident types."""
    corr_1s_vs_4s: List[float] = []
    corr_1s_vs_drop: List[float] = []
    video_ids: List[str] = []
    videos = context.videos()
    incident_names = list(STANDARD_INCIDENTS)
    items = [
        (context.oracle, encoded, STANDARD_INCIDENTS[name])
        for encoded in videos
        for name in incident_names
    ]
    scored = context.runner.map_ordered(_series_true_qoe, items)
    for video_index, encoded in enumerate(videos):
        series_by_incident = {
            name: scored[video_index * len(incident_names) + offset]
            for offset, name in enumerate(incident_names)
        }
        video_ids.append(encoded.source.video_id)
        corr_1s_vs_4s.append(
            spearman_correlation(
                series_by_incident["rebuffer_1s"], series_by_incident["rebuffer_4s"]
            )
        )
        corr_1s_vs_drop.append(
            spearman_correlation(
                series_by_incident["rebuffer_1s"],
                series_by_incident["bitrate_drop_4s"],
            )
        )
    return {
        "video_ids": video_ids,
        "rank_correlation_1s_vs_4s": corr_1s_vs_4s,
        "rank_correlation_1s_vs_drop": corr_1s_vs_drop,
        "mean_1s_vs_4s": float(np.mean(corr_1s_vs_4s)),
        "mean_1s_vs_drop": float(np.mean(corr_1s_vs_drop)),
    }


@experiment("fig20", group="sensitivity", figures=("20",))
def fig20_cv_models(
    context: ExperimentContext,
    video_ids: Sequence[str] = ("lava", "tank", "animal", "soccer2"),
    num_chunks: int = 5,
) -> Dict[str, object]:
    """Figure 20 (Appendix D): CV highlight models vs user-study sensitivity.

    For each of the paper's four example videos, compare the normalised
    highlight scores of the three CV baselines against the (user-study)
    sensitivity of the first few chunks.
    """
    models = all_highlight_models()
    per_video: Dict[str, Dict[str, List[float]]] = {}
    correlations: Dict[str, List[float]] = {m.name: [] for m in models}
    for video_id in video_ids:
        source = context.library.source(video_id)
        truth = normalize_to_unit(
            context.oracle.sensitivity_curve(source)[:num_chunks]
        )
        per_video[video_id] = {"user_study": truth.tolist()}
        for model in models:
            scores = model.chunk_scores(source)[:num_chunks]
            per_video[video_id][model.name] = scores.tolist()
            correlations[model.name].append(
                spearman_correlation(scores, truth)
                if len(set(truth.tolist())) > 1
                else 0.0
            )
    return {
        "per_video": per_video,
        "mean_rank_correlation": {
            name: float(np.mean(values)) for name, values in correlations.items()
        },
    }
