"""Simulated crowdsourcing workers (Turkers).

Each worker observes a rendering's *true* QoE (from the ground-truth oracle)
through personal bias and noise, may occasionally not watch the video in
full or answer carelessly, and confirms which quality incident they saw.
"Master" workers (Appendix C) are more reliable and less noisy, matching the
paper's observation that their rejection rate is over 4x lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.rand import spawn_rng
from repro.utils.validation import require, require_probability
from repro.video.rendering import RenderedVideo


@dataclass(frozen=True)
class WorkerProfile:
    """Latent characteristics of one simulated worker.

    Attributes
    ----------
    worker_id: stable identifier.
    bias: additive shift of the worker's ratings on the 1–5 scale.
    noise_sigma: standard deviation of per-rating noise (1–5 scale).
    attention: probability of watching a video in full and answering the
        incident-confirmation question correctly.
    is_master: whether the worker belongs to the "master Turker" pool.
    """

    worker_id: str
    bias: float
    noise_sigma: float
    attention: float
    is_master: bool = True

    def __post_init__(self) -> None:
        require(bool(self.worker_id), "worker_id must be non-empty")
        require(self.noise_sigma >= 0, "noise_sigma must be >= 0")
        require_probability(self.attention, "attention")


@dataclass(frozen=True)
class WorkerRating:
    """One worker's response to one rendered video.

    Attributes
    ----------
    worker_id: who rated.
    render_id: which rendering.
    score: the 1–5 Likert rating.
    watched_fully: whether the worker watched the whole video.
    incident_confirmed: whether the post-video incident question was answered
        consistently with the rendering's actual incidents.
    watch_time_s: seconds of video watched (for cost accounting).
    """

    worker_id: str
    render_id: str
    score: float
    watched_fully: bool
    incident_confirmed: bool
    watch_time_s: float


class SimulatedWorker:
    """A worker that turns true QoE into noisy Likert ratings."""

    def __init__(self, profile: WorkerProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = spawn_rng(seed, "worker", profile.worker_id)

    def rate(self, rendered: RenderedVideo, true_mos: float) -> WorkerRating:
        """Rate one rendering whose latent true MOS (1–5) is ``true_mos``."""
        require(1.0 <= true_mos <= 5.0, "true_mos must be on the 1-5 scale")
        attentive = bool(self._rng.random() < self.profile.attention)
        watched_fully = attentive or bool(self._rng.random() < 0.5)
        incident_confirmed = attentive or bool(self._rng.random() < 0.3)
        if attentive:
            raw = true_mos + self.profile.bias
            raw += self.profile.noise_sigma * self._rng.standard_normal()
        else:
            # Careless response: weak correlation with the truth.
            raw = 0.3 * true_mos + 0.7 * self._rng.uniform(1.0, 5.0)
        # Python's round() rounds half to even, as np.round does.
        score = min(max(round(raw * 2.0) / 2.0, 1.0), 5.0)
        watch_time = rendered.watch_duration_s
        if not watched_fully:
            watch_time *= float(self._rng.uniform(0.3, 0.9))
        return WorkerRating(
            worker_id=self.profile.worker_id,
            render_id=rendered.render_id,
            score=score,
            watched_fully=watched_fully,
            incident_confirmed=incident_confirmed,
            watch_time_s=watch_time,
        )


class WorkerPool:
    """A population of simulated workers to draw survey participants from.

    Parameters
    ----------
    size: number of distinct workers in the pool.
    master_fraction: fraction of master Turkers (more attentive, less noisy).
    seed: base seed for worker characteristics and sampling.
    """

    def __init__(self, size: int = 200, master_fraction: float = 0.8, seed: int = 23) -> None:
        require(size >= 1, "pool size must be >= 1")
        require_probability(master_fraction, "master_fraction")
        self.size = int(size)
        self.master_fraction = float(master_fraction)
        self.seed = int(seed)
        self._profiles = self._build_profiles()
        self._draw_rng = spawn_rng(seed, "pool-draws")

    def _build_profiles(self) -> List[WorkerProfile]:
        rng = spawn_rng(self.seed, "pool-profiles")
        profiles: List[WorkerProfile] = []
        for index in range(self.size):
            is_master = bool(rng.random() < self.master_fraction)
            bias = float(rng.normal(0.0, 0.2 if is_master else 0.45))
            noise = float(abs(rng.normal(0.25 if is_master else 0.6, 0.08)))
            attention = float(
                np.clip(rng.normal(0.985 if is_master else 0.9, 0.015), 0.5, 1.0)
            )
            profiles.append(
                WorkerProfile(
                    worker_id=f"worker-{index:04d}",
                    bias=bias,
                    noise_sigma=noise,
                    attention=attention,
                    is_master=is_master,
                )
            )
        return profiles

    @property
    def profiles(self) -> List[WorkerProfile]:
        """All worker profiles in the pool."""
        return list(self._profiles)

    def sample_workers(
        self, count: int, masters_only: bool = True
    ) -> List[SimulatedWorker]:
        """Sample ``count`` workers (with replacement across calls, without
        replacement within one call when possible)."""
        require(count >= 1, "count must be >= 1")
        candidates = [
            p for p in self._profiles if p.is_master or not masters_only
        ]
        require(bool(candidates), "no eligible workers in the pool")
        replace = count > len(candidates)
        chosen_indices = self._draw_rng.choice(
            len(candidates), size=count, replace=replace
        )
        return [
            SimulatedWorker(candidates[int(i)], seed=self.seed + 1)
            for i in np.atleast_1d(chosen_indices)
        ]
