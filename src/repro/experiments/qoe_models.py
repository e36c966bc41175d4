"""QoE-model accuracy and profiling-cost experiments: Figures 2, 15, 16, 12c
and the Appendix B rating-sanitisation statistics."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.rate import RateBasedABR
from repro.core.profiler import SenseiProfiler
from repro.core.scheduler import SchedulerConfig
from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.crowd.worker import WorkerPool
from repro.experiments.common import ExperimentContext
from repro.experiments.registry import experiment
from repro.player.simulator import simulate_session
from repro.qoe.ksqi import KSQIModel
from repro.qoe.lstm_qoe import LSTMQoEModel
from repro.qoe.metrics import evaluate_model
from repro.qoe.p1203 import P1203Model
from repro.utils.stats import pearson_correlation
from repro.video.rendering import RenderedVideo


def _streamed_dataset(
    context: ExperimentContext,
) -> Tuple[List[RenderedVideo], List[float]]:
    """Renderings produced by streaming every (ABR, video, trace) combination,
    labelled with their true QoE — the dataset of §2.2 / §7.3."""
    abrs = [BufferBasedABR(), RateBasedABR(), FuguABR()]
    renderings: List[RenderedVideo] = []
    for encoded in context.videos():
        for trace in context.traces():
            for abr in abrs:
                renderings.append(simulate_session(abr, encoded, trace).rendered)
    return renderings, context.oracle.true_qoe_grouped(renderings).tolist()


def _split(
    renderings: List[RenderedVideo], labels: List[float], train_fraction: float,
    seed: int,
) -> Tuple[List[RenderedVideo], List[float], List[RenderedVideo], List[float]]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(renderings))
    cut = max(4, int(train_fraction * len(renderings)))
    train_idx, test_idx = order[:cut], order[cut:]
    if test_idx.size == 0:
        test_idx = train_idx
    return (
        [renderings[i] for i in train_idx],
        [labels[i] for i in train_idx],
        [renderings[i] for i in test_idx],
        [labels[i] for i in test_idx],
    )


@experiment("fig02-15", group="qoe", figures=("2", "15"))
def fig02_fig15_model_accuracy(
    context: ExperimentContext,
    train_fraction: float = 0.6,
    lstm_epochs: int = 8,
) -> Dict[str, object]:
    """Figures 2 and 15: prediction error, discordant pairs, PLCC and SRCC of
    SENSEI's QoE model against KSQI, P.1203 and LSTM-QoE.

    All baselines are trained on the train split of the streamed-rendering
    dataset; SENSEI's model additionally uses the per-video weights from the
    context's profiling runs (its crowdsourcing step).
    """
    renderings, labels = _streamed_dataset(context)
    train_r, train_y, test_r, test_y = _split(
        renderings, labels, train_fraction, seed=context.seed + 41
    )

    ksqi = KSQIModel().fit(train_r, train_y)
    p1203 = P1203Model(seed=context.seed + 42).fit(train_r, train_y)
    lstm = LSTMQoEModel(epochs=lstm_epochs, seed=context.seed + 43).fit(
        train_r, train_y
    )
    sensei = context.sensei_qoe_model()
    sensei.fit(train_r, train_y)

    evaluations = [
        evaluate_model(model, test_r, test_y)
        for model in (sensei, ksqi, lstm, p1203)
    ]
    best_baseline_error = min(e.mean_relative_error for e in evaluations[1:])
    sensei_error = evaluations[0].mean_relative_error
    return {
        "num_renderings": len(renderings),
        "num_test": len(test_r),
        "evaluations": {e.model_name: e.as_dict() for e in evaluations},
        "sensei_error_reduction_vs_best_baseline": (
            (best_baseline_error - sensei_error) / max(best_baseline_error, 1e-9)
        ),
    }


@experiment("fig16", group="qoe", figures=("16",))
def fig16_cost_pruning_sweeps(
    context: ExperimentContext,
    video_id: str = "soccer1",
) -> Dict[str, object]:
    """Figure 16: QoE-model accuracy vs crowdsourcing cost for the four
    scheduler knobs (bitrate levels B, rebuffer lengths F, raters M, α).

    Accuracy is the Pearson correlation between the inferred weights and the
    latent sensitivity (the quantity the weights are supposed to estimate);
    cost is the campaign payment per source minute.
    """
    encoded = context.library.encoded(video_id)
    truth = context.oracle.normalized_sensitivity(encoded.source)

    def run_config(config: SchedulerConfig) -> Tuple[float, float]:
        profiler = SenseiProfiler(
            oracle=context.oracle,
            scheduler_config=config,
            campaign_seed=context.seed + 53,
        )
        result = profiler.profile_video(encoded)
        accuracy = pearson_correlation(result.profile.weights, truth)
        return accuracy, result.cost_per_source_minute_usd

    base = SchedulerConfig(
        step1_ratings=context.scale.step1_ratings,
        step2_ratings=context.scale.step2_ratings,
    )
    sweeps: Dict[str, List[Dict[str, float]]] = {}
    sweeps["num_bitrate_levels"] = [
        dict(zip(("value", "accuracy", "cost_usd_per_min"),
                 (b, *run_config(SchedulerConfig(
                     step1_ratings=base.step1_ratings,
                     step2_ratings=base.step2_ratings,
                     step2_num_bitrate_levels=b,
                 )))))
        for b in (0, 1, 2)
    ]
    sweeps["num_rebuffer_lengths"] = [
        dict(zip(("value", "accuracy", "cost_usd_per_min"),
                 (f, *run_config(SchedulerConfig(
                     step1_ratings=base.step1_ratings,
                     step2_ratings=base.step2_ratings,
                     step2_num_rebuffer_lengths=f,
                 )))))
        for f in (0, 1, 2)
    ]
    sweeps["raters_per_video"] = [
        dict(zip(("value", "accuracy", "cost_usd_per_min"),
                 (m, *run_config(SchedulerConfig(
                     step1_ratings=m,
                     step2_ratings=max(1, m // 2),
                 )))))
        for m in (4, 8, 12)
    ]
    sweeps["deviation_threshold"] = [
        dict(zip(("value", "accuracy", "cost_usd_per_min"),
                 (alpha, *run_config(SchedulerConfig(
                     step1_ratings=base.step1_ratings,
                     step2_ratings=base.step2_ratings,
                     deviation_threshold=alpha,
                 )))))
        for alpha in (0.0, 0.06, 0.2)
    ]
    return {"video_id": video_id, "sweeps": sweeps}


@experiment("fig12c", group="qoe", figures=("12c",))
def fig12c_cost_vs_qoe(
    context: ExperimentContext,
    video_id: str = "mountain",
) -> Dict[str, object]:
    """Figure 12c: crowdsourcing cost (USD per source minute) vs achieved QoE,
    with and without the two-step cost pruning.

    Uses the catalogue's shortest video (Mountain, 1:24) so the per-minute
    cost is comparable to the paper's 1-minute framing, and evaluates the
    resulting weights by streaming SENSEI-Fugu against Fugu.
    """
    encoded = context.library.encoded(video_id)
    arms = {}
    for name, use_two_step in (("pruned", True), ("exhaustive", False)):
        profiler = SenseiProfiler(
            oracle=context.oracle,
            scheduler_config=SchedulerConfig(
                step1_ratings=context.scale.step1_ratings,
                step2_ratings=context.scale.step2_ratings,
            ),
            campaign_seed=context.seed + 61,
            use_two_step=use_two_step,
        )
        result = profiler.profile_video(encoded)
        qoe_values = context.oracle.true_qoe_batch([
            simulate_session(
                context.make_sensei_fugu(), encoded, trace,
                chunk_weights=result.profile.weights,
            ).rendered
            for trace in context.traces()
        ])
        arms[name] = {
            "cost_usd_per_min": result.cost_per_source_minute_usd,
            "mean_qoe": float(np.mean(qoe_values)),
            "num_renderings": result.num_renderings,
        }
    baseline_qoe = float(np.mean(context.oracle.true_qoe_batch([
        simulate_session(context.make_fugu(), encoded, trace).rendered
        for trace in context.traces()
    ])))
    cost_saving = 1.0 - (
        arms["pruned"]["cost_usd_per_min"]
        / max(arms["exhaustive"]["cost_usd_per_min"], 1e-9)
    )
    return {
        "video_id": video_id,
        "arms": arms,
        "base_abr_qoe": baseline_qoe,
        "pruning_cost_saving": cost_saving,
    }


@experiment("appendix-b", group="qoe", figures=("Appendix B/C",))
def appendix_b_rating_sanitization(
    context: ExperimentContext,
    video_id: str = "soccer1",
    clip_chunks: int = 8,
) -> Dict[str, object]:
    """Appendix B/C: rejection-rate statistics of the simulated campaigns.

    Compares master-only recruitment against the full worker pool, mirroring
    the paper's observation that master Turkers are rejected far less often.
    """
    from repro.experiments.sensitivity import _short_clip
    from repro.video.rendering import QualityIncident, make_video_series, render_pristine

    clip = _short_clip(context, video_id, clip_chunks)
    series = make_video_series(clip, QualityIncident.rebuffering(0, 1.0))
    results = {}
    for label, masters_only, master_fraction in (
        ("masters_only", True, 0.8),
        ("all_workers", False, 0.3),
    ):
        campaign = MTurkCampaign(
            oracle=context.oracle,
            worker_pool=WorkerPool(
                master_fraction=master_fraction, seed=context.seed + 71
            ),
            config=CampaignConfig(
                ratings_per_rendering=10,
                masters_only=masters_only,
                seed=context.seed + 72,
            ),
        )
        outcome = campaign.run(series, reference=render_pristine(clip))
        results[label] = {
            "rejection_rate": outcome.rejection_rate(),
            "num_participants": outcome.num_participants,
            "total_paid_usd": outcome.total_paid_usd,
        }
    return results
