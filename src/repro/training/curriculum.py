"""Scenario curricula: which episodes a policy trains and evaluates on.

Pensieve's generalisation hinges on the diversity of the network conditions
it sees during training; the paper retrains the SENSEI-Pensieve variant on
the same trace mix it is evaluated under (§5.2, §7.1).  A
:class:`ScenarioCurriculum` samples :class:`EpisodeSpec`s — fully seeded
(video, trace, weights) work units — across four regimes:

* ``bank``      — the evaluation :class:`~repro.network.bank.TraceBank` mix
  (the distribution the policy is ultimately scored on);
* ``handover``  — Markov traces with frequent regime jumps, the cellular
  handover pattern that punishes slow-reacting policies;
* ``congestion``— traces that start healthy and collapse partway through
  (congestion onset), so the policy sees non-stationary conditions;
* ``cellular``  — scaled-down HSDPA-like traces pinned to the low-bandwidth
  band where bitrate decisions are hardest.

Every spec carries its own episode seed derived from (curriculum seed,
round, position), so an episode can be reproduced with no other
context — the property the collector's lockstep ≡ serial guarantee rests
on.  Held-out specs draw from a seed namespace disjoint
from every training round; they deliberately stay on the bank (evaluation)
distribution, so they measure progress on the target trace mix rather than
generalisation to unseen networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.synthetic import (
    FCCLikeGenerator,
    HSDPALikeGenerator,
    MarkovTraceGenerator,
)
from repro.network.trace import ThroughputTrace
from repro.utils.rand import derive_seed, spawn_rng
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo

#: The regimes a curriculum can mix, in canonical order.
REGIMES = ("bank", "handover", "congestion", "cellular")

#: Default regime mix: half on the evaluation distribution, half stress.
DEFAULT_REGIME_MIX: Dict[str, float] = {
    "bank": 0.5,
    "handover": 0.2,
    "congestion": 0.15,
    "cellular": 0.15,
}


@dataclass(frozen=True)
class EpisodeSpec:
    """One fully determined training or evaluation episode.

    Attributes
    ----------
    encoded: the video to stream.
    trace: the throughput trace to stream over.
    chunk_weights: per-chunk sensitivity weights (``None`` = uniform).
    seed: exploration seed; the episode is a pure function of (policy
        parameters, this seed).
    regime: which curriculum regime produced the spec.
    """

    encoded: EncodedVideo
    trace: ThroughputTrace
    chunk_weights: Optional[np.ndarray]
    seed: int
    regime: str = "bank"


def congestion_onset_trace(
    base: ThroughputTrace, onset_fraction: float = 0.4, ratio: float = 0.3
) -> ThroughputTrace:
    """A copy of ``base`` whose bandwidth collapses to ``ratio`` of itself
    after ``onset_fraction`` of the trace — the congestion-onset regime."""
    require(0 < onset_fraction < 1, "onset_fraction must be in (0, 1)")
    require(0 < ratio <= 1, "ratio must be in (0, 1]")
    timestamps = np.array(base.timestamps_s)
    bandwidths = np.array(base.bandwidths_mbps)
    onset_s = float(timestamps[-1]) * onset_fraction
    bandwidths = np.where(timestamps < onset_s, bandwidths, bandwidths * ratio)
    return ThroughputTrace(
        timestamps_s=timestamps,
        bandwidths_mbps=np.maximum(bandwidths, 0.05),
        name=f"{base.name}-congested",
    )


@dataclass(frozen=True)
class CurriculumConfig:
    """Knobs of a scenario curriculum (see ``docs/TRAINING.md``).

    Attributes
    ----------
    regime_mix: fraction of each round drawn from each regime; fractions
        are renormalised, regimes with weight 0 never appear.
    traces_per_regime: how many synthetic traces each stress regime keeps.
    trace_duration_s: duration of generated stress traces.
    congestion_onset_fraction / congestion_ratio: shape of the congestion
        regime's collapse.
    cellular_scale: scaling applied to HSDPA-like traces in the
        low-bandwidth cellular regime.
    seed: master seed; every episode seed is derived from it.
    """

    regime_mix: Tuple[Tuple[str, float], ...] = tuple(
        sorted(DEFAULT_REGIME_MIX.items())
    )
    traces_per_regime: int = 4
    trace_duration_s: float = 600.0
    congestion_onset_fraction: float = 0.4
    congestion_ratio: float = 0.3
    cellular_scale: float = 0.6
    seed: int = 29

    def __post_init__(self) -> None:
        mix = dict(self.regime_mix)
        require(bool(mix), "regime_mix must not be empty")
        for regime, weight in mix.items():
            require(regime in REGIMES, f"unknown regime {regime!r}")
            require(weight >= 0, "regime weights must be >= 0")
        require(sum(mix.values()) > 0, "regime_mix must have positive mass")
        require(self.traces_per_regime >= 1, "traces_per_regime must be >= 1")

    @property
    def mix(self) -> Dict[str, float]:
        """Normalised regime mix as a dict."""
        mix = {k: v for k, v in self.regime_mix if v > 0}
        total = sum(mix.values())
        return {k: v / total for k, v in mix.items()}


class ScenarioCurriculum:
    """Samples seeded episode specs across videos and trace regimes.

    Parameters
    ----------
    videos:
        Training videos (library entries or synthetic).
    bank_traces:
        The evaluation-distribution traces (``bank`` regime), typically
        :meth:`TraceBank.traces`.
    weights_by_video:
        Optional per-video sensitivity weights keyed by video id; episodes
        of videos absent from the map stream with uniform weights.
    config:
        Curriculum knobs; defaults to :class:`CurriculumConfig`.
    """

    def __init__(
        self,
        videos: Sequence[EncodedVideo],
        bank_traces: Sequence[ThroughputTrace],
        weights_by_video: Optional[Dict[str, np.ndarray]] = None,
        config: Optional[CurriculumConfig] = None,
    ) -> None:
        require(bool(videos), "need at least one training video")
        require(bool(bank_traces), "need at least one bank trace")
        self.videos = list(videos)
        self.bank_traces = list(bank_traces)
        self.weights_by_video = dict(weights_by_video or {})
        self.config = config if config is not None else CurriculumConfig()
        self._regime_traces: Dict[str, List[ThroughputTrace]] = {}

    # -------------------------------------------------------------- sampling

    def training_specs(self, count: int, round_index: int = 0) -> List[EpisodeSpec]:
        """``count`` episode specs for one training round.

        Deterministic in (curriculum seed, ``round_index``): two curricula
        built from the same inputs return identical spec lists, whichever
        process asks.  Regime counts follow the configured mix (largest
        remainders get the leftover episodes), and specs interleave regimes
        so truncated rounds still see diversity.
        """
        require(count >= 1, "count must be >= 1")
        mix = self.config.mix
        quotas = self._regime_quotas(count, mix)
        rng = spawn_rng(self.config.seed, "curriculum", round_index)
        per_regime: List[List[EpisodeSpec]] = []
        for regime in sorted(quotas):
            specs = []
            for position in range(quotas[regime]):
                specs.append(
                    self._spec(regime, rng, ("train", round_index, regime, position))
                )
            per_regime.append(specs)
        # Round-robin interleave so any prefix of the round mixes regimes.
        interleaved: List[EpisodeSpec] = []
        cursor = 0
        while len(interleaved) < count:
            progressed = False
            for specs in per_regime:
                if cursor < len(specs):
                    interleaved.append(specs[cursor])
                    progressed = True
            require(progressed, "internal: quota bookkeeping out of sync")
            cursor += 1
        return interleaved

    def holdout_specs(self, count: int) -> List[EpisodeSpec]:
        """Held-out evaluation specs on the bank distribution.

        Seeds live in a namespace disjoint from every training round, and
        the video/trace pairing cycles deterministically over the grid, so
        repeated evaluations score the same episodes.
        """
        require(count >= 1, "count must be >= 1")
        specs: List[EpisodeSpec] = []
        for position in range(count):
            encoded = self.videos[position % len(self.videos)]
            trace = self.bank_traces[
                (position // len(self.videos)) % len(self.bank_traces)
            ]
            specs.append(
                EpisodeSpec(
                    encoded=encoded,
                    trace=trace,
                    chunk_weights=self._weights(encoded),
                    seed=derive_seed(self.config.seed, "holdout", position),
                    regime="bank",
                )
            )
        return specs

    # ------------------------------------------------------------- internals

    def _spec(
        self, regime: str, rng: np.random.Generator, labels: Tuple
    ) -> EpisodeSpec:
        encoded = self.videos[int(rng.integers(0, len(self.videos)))]
        traces = self._traces_for(regime)
        trace = traces[int(rng.integers(0, len(traces)))]
        return EpisodeSpec(
            encoded=encoded,
            trace=trace,
            chunk_weights=self._weights(encoded),
            seed=derive_seed(self.config.seed, *labels),
            regime=regime,
        )

    def _weights(self, encoded: EncodedVideo) -> Optional[np.ndarray]:
        return self.weights_by_video.get(encoded.source.video_id)

    def _regime_quotas(self, count: int, mix: Dict[str, float]) -> Dict[str, int]:
        """Integer episode counts per regime (largest-remainder rounding)."""
        raw = {regime: count * weight for regime, weight in mix.items()}
        quotas = {regime: int(value) for regime, value in raw.items()}
        leftover = count - sum(quotas.values())
        by_remainder = sorted(
            raw, key=lambda regime: (raw[regime] - quotas[regime], regime),
            reverse=True,
        )
        for regime in by_remainder[:leftover]:
            quotas[regime] += 1
        return {regime: quota for regime, quota in quotas.items() if quota > 0}

    def _traces_for(self, regime: str) -> List[ThroughputTrace]:
        """The (cached) trace pool of a regime."""
        if regime == "bank":
            return self.bank_traces
        if regime not in self._regime_traces:
            cfg = self.config
            count = cfg.traces_per_regime
            if regime == "handover":
                generator = MarkovTraceGenerator(
                    capacity_levels_mbps=(0.3, 0.7, 1.3, 2.2, 3.3, 4.5),
                    switch_probability=0.18,
                    noise_sigma=0.3,
                    seed=derive_seed(cfg.seed, "handover"),
                )
                traces = generator.generate_many(
                    count, cfg.trace_duration_s, prefix="handover"
                )
            elif regime == "congestion":
                generator = FCCLikeGenerator(
                    seed=derive_seed(cfg.seed, "congestion")
                )
                healthy = generator.generate_many(
                    count, cfg.trace_duration_s, prefix="congestion"
                )
                traces = [
                    congestion_onset_trace(
                        trace,
                        onset_fraction=cfg.congestion_onset_fraction,
                        ratio=cfg.congestion_ratio,
                    )
                    for trace in healthy
                ]
            elif regime == "cellular":
                generator = HSDPALikeGenerator(
                    seed=derive_seed(cfg.seed, "cellular")
                )
                traces = [
                    trace.scaled(cfg.cellular_scale)
                    for trace in generator.generate_many(
                        count, cfg.trace_duration_s, prefix="cellular"
                    )
                ]
            else:  # pragma: no cover - guarded by CurriculumConfig
                raise ValueError(f"unknown regime {regime!r}")
            self._regime_traces[regime] = traces
        return self._regime_traces[regime]
