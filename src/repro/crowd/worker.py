"""Simulated crowdsourcing workers (Turkers).

Each worker observes a rendering's *true* QoE (from the ground-truth oracle)
through personal bias and noise, may occasionally not watch the video in
full or answer carelessly, and confirms which quality incident they saw.
"Master" workers (Appendix C) are more reliable and less noisy, matching the
paper's observation that their rejection rate is over 4x lower.

No draw depends on what is rated, so :class:`WorkerPool` draws each
worker's per-position outcomes once, for the campaign to score surveys from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.utils.rand import spawn_rng
from repro.utils.validation import require, require_probability


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


class WorkerPool:
    """A population of simulated workers to draw survey participants from.

    The pool keeps a *draw table* of each worker it hands out: per position
    in a survey, the terms of ``raw = (true_mos * slope + offset) + noise``,
    watched in full, incident confirmed, and the watched fraction (1.0 when
    watched in full), drawn from the worker's stream in the order one rating
    draws them.  That stream starts over at every survey, so a worker makes
    the same attention and noise draws, position by position, in every
    survey (across videos and a video's two profiling steps): a correlation
    no real rater has.

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
        self._streams: Dict[int, np.random.Generator] = {}
        self._drawn = np.zeros(self.size, dtype=np.intp)
        self._table = np.zeros((6, self.size, 0))

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

    def sample_workers(self, count: int, masters_only: bool = True) -> np.ndarray:
        """Pool indices of ``count`` participants (with replacement across
        calls, without replacement within one call when possible)."""
        require(count >= 1, "count must be >= 1")
        candidates = np.flatnonzero(
            [p.is_master or not masters_only for p in self._profiles]
        )
        require(candidates.size > 0, "no eligible workers in the pool")
        return candidates[
            self._draw_rng.choice(
                candidates.size, size=count, replace=count > candidates.size
            )
        ]

    def draws(self, workers: np.ndarray, length: int) -> np.ndarray:
        """The table's rows for the first ``length`` ratings of each of
        ``workers`` (pool indices), as a ``(6, len(workers), length)`` array."""
        grow = length - self._table.shape[2]
        if grow > 0:
            self._table = np.pad(self._table, ((0, 0), (0, 0), (0, grow)))
        for index in np.unique(workers[self._drawn[workers] < length]).tolist():
            profile = self._profiles[index]
            if index not in self._streams:
                seed = self.seed + 1
                self._streams[index] = spawn_rng(seed, "worker", profile.worker_id)
            rng = self._streams[index]
            for position in range(self._drawn[index], length):
                attentive = rng.random() < profile.attention
                watched = attentive or rng.random() < 0.5
                confirmed = attentive or rng.random() < 0.3
                if attentive:
                    sigma = profile.noise_sigma
                    score = (1.0, profile.bias, sigma * rng.standard_normal())
                else:
                    # Careless response: weak correlation with the truth.
                    score = (0.3, 0.0, 0.7 * rng.uniform(1.0, 5.0))
                fraction = 1.0 if watched else rng.uniform(0.3, 0.9)
                self._table[:, index, position] = (*score, watched, confirmed, fraction)
            self._drawn[index] = length
        return self._table[:, workers, :length]
