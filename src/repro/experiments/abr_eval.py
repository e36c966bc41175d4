"""End-to-end ABR experiments: Figures 6, 12a, 12b, 13, 14, 17, 18 and the
headline §7.2 numbers."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.offline import OfflineOptimalABR
from repro.engine.runner import BatchRunner, WorkOrder
from repro.experiments.common import ExperimentContext
from repro.experiments.registry import experiment
from repro.qoe.ksqi import KSQIModel
from repro.utils.stats import cdf_points


# --------------------------------------------------------------------------
# Figure 6: idealised (offline) sensitivity-aware vs -unaware ABR.
# --------------------------------------------------------------------------

@experiment("fig06", group="abr", figures=("6",))
def fig06_potential_gains(
    context: ExperimentContext,
    video_ids: Optional[Sequence[str]] = None,
    trace_index: int = 1,
    scaling_ratios: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    beam_width: int = 24,
) -> Dict[str, object]:
    """Figure 6: QoE of two offline-optimal ABRs (aware / unaware of dynamic
    sensitivity) as the throughput trace is rescaled."""
    video_ids = list(video_ids or context.video_ids()[:2])
    base_trace = context.traces()[min(trace_index, len(context.traces()) - 1)]
    aware_curve: List[float] = []
    unaware_curve: List[float] = []
    throughputs: List[float] = []
    for ratio in scaling_ratios:
        trace = base_trace.scaled(ratio)
        throughputs.append(trace.mean_mbps)
        aware_scores, unaware_scores = [], []
        for video_id in video_ids:
            encoded = context.library.encoded(video_id)
            truth_weights = context.oracle.normalized_sensitivity(encoded.source)
            unaware = OfflineOptimalABR(
                quality_model=KSQIModel(), beam_width=beam_width
            )
            aware = OfflineOptimalABR(
                quality_model=KSQIModel(),
                weights=truth_weights,
                allow_proactive_stalls=True,
                beam_width=beam_width,
            )
            unaware_scores.append(
                context.oracle.true_qoe(unaware.plan(encoded, trace))
            )
            aware_scores.append(context.oracle.true_qoe(aware.plan(encoded, trace)))
        aware_curve.append(float(np.mean(aware_scores)))
        unaware_curve.append(float(np.mean(unaware_scores)))
    gains = [
        (a - u) / max(u, 1e-9) for a, u in zip(aware_curve, unaware_curve)
    ]
    return {
        "scaling_ratios": list(scaling_ratios),
        "mean_throughputs_mbps": throughputs,
        "aware_qoe": aware_curve,
        "unaware_qoe": unaware_curve,
        "relative_gains": gains,
        "max_gain": max(gains),
    }


# --------------------------------------------------------------------------
# Figures 12a/13/14 and the headline numbers: gains over BBA.
# --------------------------------------------------------------------------

def _evaluate_grid(
    context: ExperimentContext,
    include_pensieve: bool = False,
    runner: Optional[BatchRunner] = None,
) -> Dict[str, Dict[Tuple[str, str], float]]:
    """True QoE of each ABR on every (video, trace) pair.

    The whole grid is dispatched through the batch engine: work orders are
    built in the seed's (video, trace, algorithm) nesting order, executed by
    ``runner`` (the context's runner by default — serial unless configured
    otherwise), and scored by the oracle in the parent process, one batched
    call per video.

    When the registry attached a finished-cell cache to the context
    (``context.cell_cache``), cells already scored by an earlier run of the
    same (scale, seed, checkpoints) context are reused instead of
    re-simulated, and every freshly scored cell is persisted — an
    interrupted grid resumes where it stopped.
    """
    runner = runner if runner is not None else context.runner
    cache = getattr(context, "cell_cache", None)
    # Factories, not instances: the RL policies (the expensive ones — ad-hoc
    # training when no checkpoint exists) only materialise when some cell of
    # theirs actually misses the cache.
    algorithms: Dict[str, Tuple[Callable[[], object], bool]] = {
        "BBA": (context.make_bba, False),
        "Fugu": (context.make_fugu, False),
        "SENSEI": (context.make_sensei_fugu, True),
    }
    cell_suffix: Dict[str, str] = {}
    if include_pensieve:
        algorithms["Pensieve"] = (context.trained_pensieve, False)
        algorithms["SENSEI-Pensieve"] = (context.trained_sensei_pensieve, True)
        # RL cells embed the policy's provenance (checkpoint name + save
        # index, or ad-hoc training), so cached cells from one checkpoint
        # generation are never served for another.
        cell_suffix["Pensieve"] = (
            "/" + context.trained_policy_provenance("pensieve")
        )
        cell_suffix["SENSEI-Pensieve"] = (
            "/" + context.trained_policy_provenance("sensei-pensieve")
        )
    instances: Dict[str, object] = {}
    scores: Dict[str, Dict[Tuple[str, str], float]] = {
        name: {} for name in algorithms
    }
    keys: List[Tuple[str, str, str, str]] = []
    orders: List[WorkOrder] = []
    for encoded in context.videos():
        video_id = encoded.source.video_id
        for trace in context.traces():
            for name, (factory, use_weights) in algorithms.items():
                cell_key = (
                    f"grid/{name}/{video_id}/{trace.name}"
                    f"{cell_suffix.get(name, '')}"
                )
                cached = cache.get(cell_key) if cache is not None else None
                # Insert the cell slot now (even when pending) so score-dict
                # iteration order always matches the seed nesting order,
                # whether a cell was resumed from cache or freshly computed.
                scores[name][(video_id, trace.name)] = (
                    float(cached) if cached is not None else None
                )
                if cached is not None:
                    continue
                if name not in instances:
                    instances[name] = factory()
                weights = context.weights(video_id) if use_weights else None
                keys.append((name, video_id, trace.name, cell_key))
                orders.append(
                    WorkOrder(
                        abr=instances[name], encoded=encoded, trace=trace,
                        chunk_weights=weights,
                    )
                )
    results = runner.run_orders(orders)
    qoes = context.oracle.true_qoe_grouped([r.rendered for r in results])
    for (name, video_id, trace_name, cell_key), qoe in zip(keys, qoes.tolist()):
        scores[name][(video_id, trace_name)] = qoe
        if cache is not None:
            cache.put(cell_key, qoe)
    return scores


@experiment("fig12a", group="abr", figures=("12a",), supports_pensieve=True)
def fig12a_qoe_gain_cdf(
    context: ExperimentContext, include_pensieve: bool = False
) -> Dict[str, object]:
    """Figure 12a: CDF of per-(video, trace) QoE gain over BBA."""
    scores = _evaluate_grid(context, include_pensieve=include_pensieve)
    baseline = scores["BBA"]
    gains: Dict[str, List[float]] = {}
    for name, values in scores.items():
        if name == "BBA":
            continue
        gains[name] = [
            context.gain_over(values[key], max(baseline[key], 1e-3))
            for key in values
        ]
    summary = {}
    for name, values in gains.items():
        xs, cdf = cdf_points(values)
        summary[name] = {
            "gains": values,
            "cdf": (xs.tolist(), cdf.tolist()),
            "median_gain": float(np.median(values)),
            "mean_gain": float(np.mean(values)),
        }
    return {"per_algorithm": summary, "num_pairs": len(baseline)}


@experiment("fig13", group="abr", figures=("13",))
def fig13_gain_per_video(context: ExperimentContext) -> Dict[str, object]:
    """Figure 13: mean QoE gain over BBA per source video, grouped by genre."""
    scores = _evaluate_grid(context)
    rows = []
    for encoded in context.videos():
        video_id = encoded.source.video_id
        per_algo = {}
        for name in ("SENSEI", "Fugu"):
            gains = [
                context.gain_over(
                    scores[name][(video_id, trace.name)],
                    max(scores["BBA"][(video_id, trace.name)], 1e-3),
                )
                for trace in context.traces()
            ]
            per_algo[name] = float(np.mean(gains))
        rows.append(
            {
                "video_id": video_id,
                "genre": encoded.source.genre,
                **{f"{name}_gain": value for name, value in per_algo.items()},
            }
        )
    return {"rows": rows}


@experiment("fig14", group="abr", figures=("14",))
def fig14_gain_per_trace(context: ExperimentContext) -> Dict[str, object]:
    """Figure 14: mean QoE gain over BBA per trace (ordered by throughput)."""
    scores = _evaluate_grid(context)
    rows = []
    for trace in context.traces():
        per_algo = {}
        for name in ("SENSEI", "Fugu"):
            gains = [
                context.gain_over(
                    scores[name][(encoded.source.video_id, trace.name)],
                    max(scores["BBA"][(encoded.source.video_id, trace.name)], 1e-3),
                )
                for encoded in context.videos()
            ]
            per_algo[name] = float(np.mean(gains))
        rows.append(
            {
                "trace": trace.name,
                "mean_throughput_mbps": trace.mean_mbps,
                **{f"{name}_gain": value for name, value in per_algo.items()},
            }
        )
    low_half = rows[: max(1, len(rows) // 2)]
    high_half = rows[len(rows) // 2:] or low_half
    return {
        "rows": rows,
        "sensei_gain_low_throughput": float(
            np.mean([r["SENSEI_gain"] for r in low_half])
        ),
        "sensei_gain_high_throughput": float(
            np.mean([r["SENSEI_gain"] for r in high_half])
        ),
    }


@experiment("headline", group="abr", figures=("§7.2",))
def headline_numbers(context: ExperimentContext) -> Dict[str, object]:
    """§7.2 headline: mean QoE gain of SENSEI over its base ABR and over BBA."""
    scores = _evaluate_grid(context)
    keys = list(scores["BBA"].keys())
    sensei = np.array([scores["SENSEI"][k] for k in keys])
    fugu = np.array([scores["Fugu"][k] for k in keys])
    bba = np.maximum(np.array([scores["BBA"][k] for k in keys]), 1e-3)
    return {
        "mean_qoe": {
            "SENSEI": float(sensei.mean()),
            "Fugu": float(fugu.mean()),
            "BBA": float(bba.mean()),
        },
        "sensei_gain_over_base_mean": float(np.mean(sensei / np.maximum(fugu, 1e-3) - 1)),
        "sensei_gain_over_bba_median": float(np.median(sensei / bba - 1)),
        "fugu_gain_over_bba_median": float(np.median(fugu / bba - 1)),
    }


# --------------------------------------------------------------------------
# Figure 12b: QoE vs bandwidth usage (bandwidth savings at equal QoE).
# --------------------------------------------------------------------------

@experiment("fig12b", group="abr", figures=("12b",))
def fig12b_bandwidth_usage(
    context: ExperimentContext,
    trace_index: int = 2,
    scaling_ratios: Sequence[float] = (0.4, 0.6, 0.8, 1.0),
) -> Dict[str, object]:
    """Figure 12b: mean QoE as the available bandwidth is scaled down.

    The bandwidth saving at equal QoE is read off the two curves: the ratio
    at which SENSEI reaches the QoE the baseline only reaches at full scale.
    """
    base_trace = context.traces()[min(trace_index, len(context.traces()) - 1)]
    curves: Dict[str, List[float]] = {"SENSEI": [], "Fugu": [], "BBA": []}
    for ratio in scaling_ratios:
        trace = base_trace.scaled(ratio)
        for name in curves:
            qoe_values = []
            for encoded in context.videos():
                if name == "SENSEI":
                    abr, use_weights = context.make_sensei_fugu(), True
                elif name == "Fugu":
                    abr, use_weights = context.make_fugu(), False
                else:
                    abr, use_weights = context.make_bba(), False
                qoe_values.append(
                    context.stream_qoe(abr, encoded, trace, use_weights=use_weights)
                )
            curves[name].append(float(np.mean(qoe_values)))

    target_qoe = curves["Fugu"][-1]
    savings = 0.0
    for ratio, qoe in zip(scaling_ratios, curves["SENSEI"]):
        if qoe >= target_qoe:
            savings = 1.0 - ratio
            break
    return {
        "scaling_ratios": list(scaling_ratios),
        "curves": curves,
        "bandwidth_saving_at_equal_qoe": savings,
    }


# --------------------------------------------------------------------------
# Figure 17: robustness to added throughput variance.
# --------------------------------------------------------------------------

@experiment("fig17", group="abr", figures=("17",), supports_pensieve=True)
def fig17_bandwidth_variance(
    context: ExperimentContext,
    trace_index: int = 2,
    noise_levels_mbps: Sequence[float] = (0.0, 0.3, 0.6, 1.0),
    include_pensieve: bool = False,
) -> Dict[str, object]:
    """Figure 17: QoE of SENSEI vs its base ABR as Gaussian throughput noise
    grows (the paper adds zero-mean noise to one trace)."""
    base_trace = context.traces()[min(trace_index, len(context.traces()) - 1)]
    pairs = [("Fugu", context.make_fugu, False),
             ("SENSEI-Fugu", context.make_sensei_fugu, True)]
    if include_pensieve:
        pairs += [
            ("Pensieve", context.trained_pensieve, False),
            ("SENSEI-Pensieve", context.trained_sensei_pensieve, True),
        ]
    curves: Dict[str, List[float]] = {name: [] for name, _, _ in pairs}
    stds: List[float] = []
    for sigma in noise_levels_mbps:
        trace = base_trace.with_added_noise(sigma, seed=context.seed + 91)
        stds.append(trace.std_kbps)
        for name, factory, use_weights in pairs:
            qoe_values = [
                context.stream_qoe(
                    factory(), encoded, trace, use_weights=use_weights
                )
                for encoded in context.videos()
            ]
            curves[name].append(float(np.mean(qoe_values)))
    return {
        "throughput_std_kbps": stds,
        "curves": curves,
    }


# --------------------------------------------------------------------------
# Figure 18: where SENSEI's gains come from.
# --------------------------------------------------------------------------

@experiment("fig18a", group="abr", figures=("18a",), always_uses_checkpoints=True)
def fig18a_base_abr_comparison(context: ExperimentContext) -> Dict[str, object]:
    """Figure 18a: gain over BBA when SENSEI is applied to Fugu vs Pensieve."""
    scores = _evaluate_grid(context, include_pensieve=True)
    keys = list(scores["BBA"].keys())
    bba = np.maximum(np.array([scores["BBA"][k] for k in keys]), 1e-3)

    def mean_gain(name: str) -> float:
        values = np.array([scores[name][k] for k in keys])
        return float(np.mean(values / bba - 1))

    return {
        "fugu": {"base": mean_gain("Fugu"), "sensei": mean_gain("SENSEI")},
        "pensieve": {
            "base": mean_gain("Pensieve"),
            "sensei": mean_gain("SENSEI-Pensieve"),
        },
    }


@experiment("fig18b", group="abr", figures=("18b",))
def fig18b_gain_breakdown(context: ExperimentContext) -> Dict[str, object]:
    """Figure 18b: decomposing SENSEI's gain into (1) the reweighted QoE
    objective (bitrate adaptation only) and (2) the new proactive-stall
    action (full SENSEI)."""
    from repro.core.sensei_abr import SenseiFuguABR

    bitrate_only = SenseiFuguABR(stall_options_s=(0.0,))
    arms = {
        "base_abr_with_ksqi": (context.make_fugu(), False),
        "only_bitrate_adaptation": (bitrate_only, True),
        "full_sensei": (context.make_sensei_fugu(), True),
    }
    bba_scores = []
    arm_scores: Dict[str, List[float]] = {name: [] for name in arms}
    for encoded in context.videos():
        for trace in context.traces():
            bba_scores.append(
                context.stream_qoe(context.make_bba(), encoded, trace)
            )
            for name, (abr, use_weights) in arms.items():
                arm_scores[name].append(
                    context.stream_qoe(abr, encoded, trace, use_weights=use_weights)
                )
    bba_arr = np.maximum(np.array(bba_scores), 1e-3)
    return {
        name: float(np.mean(np.array(values) / bba_arr - 1))
        for name, values in arm_scores.items()
    }
