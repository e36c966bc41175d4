"""Narrated demo experiments: the ``examples/`` walk-throughs as registry
entries.

Each demo prints the same story its ``examples/*.py`` predecessor told and
returns the numbers as a dict, but builds *everything* from the
:class:`~repro.experiments.common.ExperimentContext` — so one spec seed
drives the library, the trace bank, the campaigns and the streams, where
the old scripts each wired their own seeds.  The scripts themselves remain
as thin shims over ``python -m repro run <demo>``.

Demos are registered ``cacheable=False``: their value is the narration, so
they always recompute instead of replaying a stored artifact.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.scheduler import SchedulerConfig, TwoStepScheduler
from repro.core.weights import infer_weights
from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.engine.runner import WorkOrder
from repro.experiments.abr_eval import bandwidth_saving_at_equal_qoe
from repro.experiments.common import ExperimentContext
from repro.experiments.registry import experiment
from repro.player.manifest import SenseiManifest, manifest_to_xml
from repro.qoe.ksqi import KSQIModel
from repro.utils.stats import spearman_correlation
from repro.video.encoder import SyntheticEncoder
from repro.video.rendering import render_pristine
from repro.video.video import SourceVideo


@experiment(
    "quickstart",
    group="demo",
    description="Profile one video, stream it with SENSEI, compare baselines",
    cacheable=False,
)
def quickstart(
    context: ExperimentContext,
    video_id: str = "soccer1",
    trace_index: int = 1,
) -> Dict[str, object]:
    """The full SENSEI loop on one catalogue video: profile sensitivity via
    a simulated crowd, embed the weights in a DASH manifest, then stream
    with BBA / Fugu / SENSEI-Fugu and compare true QoE."""
    encoded = context.library.encoded(video_id)
    print(f"Video: {encoded.source.name} "
          f"({encoded.num_chunks} chunks x {encoded.chunk_duration_s:.0f}s, "
          f"genre={encoded.source.genre})")

    # 1. Profile dynamic quality sensitivity via a simulated MTurk campaign.
    profiling = context.profiler().profile_video(encoded)
    weights = profiling.profile.weights
    print(f"\nProfiling cost: ${profiling.total_cost_usd:.1f} "
          f"(${profiling.cost_per_source_minute_usd:.1f} per source minute, "
          f"{profiling.num_renderings} rendered videos)")
    top_chunks = np.argsort(weights)[-3:][::-1]
    print("Most quality-sensitive chunks:",
          ", ".join(f"#{i} (w={weights[i]:.2f}, "
                    f"{encoded.source.descriptor(int(i)).label})"
                    for i in top_chunks))

    # 2. The weights travel to the player inside the DASH manifest.
    manifest = SenseiManifest.from_encoded(encoded, weights=weights)
    xml = manifest_to_xml(manifest)
    print(f"\nManifest with sensei:weights extension: {len(xml)} bytes of XML")

    # 3. Stream over a context trace with three ABR algorithms.
    traces = context.traces()
    trace = traces[min(trace_index, len(traces) - 1)]
    print(f"\nStreaming over trace '{trace.name}' "
          f"(mean {trace.mean_mbps:.2f} Mbps)\n")
    print(f"{'ABR':14s} {'true QoE':>9s} {'bitrate':>9s} {'stalls':>7s} {'switches':>9s}")
    orders = [
        WorkOrder(abr=abr, encoded=encoded, trace=trace,
                  chunk_weights=weights if use_weights else None)
        for abr, use_weights in (
            (context.make_bba(), False),
            (context.make_fugu(), False),
            (context.make_sensei_fugu(), True),
        )
    ]
    rows = []
    for order, result in zip(orders, context.runner.run_orders(orders)):
        qoe = context.oracle.true_qoe(result.rendered)
        print(f"{order.abr.name:14s} {qoe:9.3f} "
              f"{result.average_bitrate_kbps:7.0f}kb {result.total_stall_s:6.1f}s "
              f"{result.rendered.num_switches():9d}")
        rows.append({
            "abr": order.abr.name,
            "true_qoe": qoe,
            "average_bitrate_kbps": float(result.average_bitrate_kbps),
            "total_stall_s": float(result.total_stall_s),
            "num_switches": int(result.rendered.num_switches()),
        })
    return {
        "video_id": video_id,
        "trace": trace.name,
        "profiling_cost_usd": float(profiling.total_cost_usd),
        "cost_per_source_minute_usd": float(
            profiling.cost_per_source_minute_usd
        ),
        "num_renderings": int(profiling.num_renderings),
        "manifest_bytes": len(xml),
        "top_chunks": [int(i) for i in top_chunks],
        "rows": rows,
    }


@experiment(
    "bandwidth-savings",
    group="demo",
    description="Same QoE with less bandwidth (the Fig. 12b scenario)",
    cacheable=False,
)
def bandwidth_savings(
    context: ExperimentContext,
    video_ids: Optional[Sequence[str]] = None,
    trace_index: int = 3,
    scaling_ratios: Sequence[float] = (0.4, 0.55, 0.7, 0.85, 1.0),
) -> Dict[str, object]:
    """Scale one trace down step by step and read off how much less
    bandwidth SENSEI needs to match the base ABR's full-bandwidth QoE."""
    video_ids = list(video_ids or context.video_ids()[:3])
    traces = context.traces()
    base_trace = traces[min(trace_index, len(traces) - 1)]
    algorithms = {
        "BBA": (context.make_bba, False),
        "Fugu": (context.make_fugu, False),
        "SENSEI-Fugu": (context.make_sensei_fugu, True),
    }

    print(f"Base trace '{base_trace.name}', mean {base_trace.mean_mbps:.2f} Mbps")
    print(f"\n{'bandwidth scale':>15s} " + " ".join(f"{n:>12s}" for n in algorithms))
    # One work order per (ratio, algorithm, video), dispatched in a single
    # batch so the lockstep core plans the whole sweep together.
    labels, orders = [], []
    for ratio in scaling_ratios:
        trace = base_trace.scaled(ratio)
        for name, (factory, use_weights) in algorithms.items():
            for vid in video_ids:
                labels.append((ratio, name))
                orders.append(WorkOrder(
                    abr=factory(), encoded=context.library.encoded(vid),
                    trace=trace,
                    chunk_weights=context.weights(vid) if use_weights else None,
                ))
    results = context.runner.run_orders(orders)
    qoe: Dict[tuple, list] = {label: [] for label in labels}
    for label, result in zip(labels, results):
        qoe[label].append(context.oracle.true_qoe(result.rendered))
    curves: Dict[str, list] = {name: [] for name in algorithms}
    for ratio in scaling_ratios:
        row = f"{ratio:>14.0%} "
        for name in algorithms:
            mean_qoe = float(np.mean(qoe[(ratio, name)]))
            curves[name].append(mean_qoe)
            row += f" {mean_qoe:12.3f}"
        print(row)

    target = curves["Fugu"][-1]
    saving = bandwidth_saving_at_equal_qoe(
        scaling_ratios, curves["SENSEI-Fugu"], curves["Fugu"]
    )
    print(f"\nFugu's QoE at full bandwidth: {target:.3f}")
    print(f"SENSEI reaches that QoE with ~{saving:.0%} less bandwidth")
    return {
        "video_ids": video_ids,
        "trace": base_trace.name,
        "scaling_ratios": list(scaling_ratios),
        "curves": curves,
        "fugu_full_bandwidth_qoe": target,
        "bandwidth_saving_at_equal_qoe": saving,
    }


@experiment(
    "profile-video",
    group="demo",
    description="Walk through the two-step profiling pipeline chunk by chunk",
    cacheable=False,
)
def profile_video(
    context: ExperimentContext,
    duration_s: float = 60.0,
    chunk_duration_s: float = 4.0,
) -> Dict[str, object]:
    """Open up the profiling pipeline (§4) on a short synthetic sports clip:
    step-1 schedule, raw crowd MOS, step-2 re-probes, final weights vs the
    latent sensitivity the simulated viewers actually used."""
    video = SourceVideo.synthesize(
        "demo-match", "sports",
        duration_s=duration_s, chunk_duration_s=chunk_duration_s,
        seed=context.seed + 81,
    )
    encoded = SyntheticEncoder(seed=context.seed + 82).encode(video)
    print(f"Profiling '{video.name}': {video.num_chunks} chunks, "
          f"labels = {video.chunk_labels()}")

    scheduler = TwoStepScheduler(SchedulerConfig(
        step1_ratings=max(10, context.scale.step1_ratings),
        step2_ratings=max(5, context.scale.step2_ratings),
    ))
    step1 = scheduler.step1_schedule(encoded)
    print(f"\nStep 1 publishes {len(step1.renderings)} renderings "
          f"({step1.ratings_per_rendering} ratings each)")

    campaign = MTurkCampaign(
        oracle=context.oracle,
        config=CampaignConfig(
            ratings_per_rendering=step1.ratings_per_rendering,
            seed=context.seed + 83,
        ),
    )
    result1 = campaign.run(step1.renderings, reference=render_pristine(encoded))
    print(f"Step 1 campaign: {result1.num_participants} participants, "
          f"{result1.rejection_rate():.0%} rejected, "
          f"${result1.total_paid_usd:.1f} paid")

    base_model = KSQIModel()
    rated = [r for r in step1.renderings if r.render_id in result1.mos]
    mos = [result1.mos[r.render_id] for r in rated]
    step1_profile = infer_weights(rated, mos, base_model=base_model)

    reprobe = scheduler.select_chunks_to_reprobe(step1_profile.weights)
    print(f"\nStep 2 re-probes {len(reprobe)} chunks: {list(map(int, reprobe))}")
    step2 = scheduler.step2_schedule(encoded, step1_profile.weights)
    result2 = campaign.run(step2.renderings, reference=render_pristine(encoded))

    all_renderings = rated + [
        r for r in step2.renderings if r.render_id in result2.mos
    ]
    all_mos = mos + [
        result2.mos[r.render_id]
        for r in step2.renderings if r.render_id in result2.mos
    ]
    profile = infer_weights(all_renderings, all_mos, base_model=base_model)

    truth = context.oracle.normalized_sensitivity(video)
    print("\nchunk  label             weight   latent sensitivity")
    for index in range(video.num_chunks):
        print(f"{index:5d}  {video.chunk_labels()[index]:16s} "
              f"{profile.weights[index]:6.2f}   {truth[index]:6.2f}")
    correlation = spearman_correlation(profile.weights, truth)
    print(f"\nSpearman correlation(weights, latent sensitivity) = "
          f"{correlation:.2f}")
    return {
        "num_chunks": int(video.num_chunks),
        "step1_renderings": len(step1.renderings),
        "reprobed_chunks": [int(i) for i in reprobe],
        "weights": [float(w) for w in profile.weights],
        "latent_sensitivity": [float(s) for s in truth],
        "rank_correlation": float(correlation),
    }
