"""Test-only oracle for the crowdsourcing campaign.

These are the per-rating bodies that the columnar
:meth:`repro.crowd.campaign.MTurkCampaign.run` replaced: a
:class:`SimulatedWorker` built per survey, whose stream starts over at each
survey, rates one rendering at a time into a :class:`WorkerRating`, and a
survey loop applies the rejection rules to those objects one participant at
a time.  The campaign is required to reproduce :func:`run_campaign` bit for
bit (``tests/test_crowd_batch.py``).  Participants are sampled here from
the pool's own draw stream exactly as the campaign samples them.

The survey plan here is the one the columnar
:func:`repro.crowd.survey.build_survey_plan` replaced: a greedy packer that
places one shuffled slot at a time into lists of positions
(:func:`build_survey_plan`), and one ``rng.permutation`` per survey for its
viewing order (:func:`presentation_order`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.crowd.campaign import MTurkCampaign, RatingRecord
from repro.crowd.worker import WorkerPool, WorkerProfile, WorkerRating
from repro.utils.rand import spawn_rng
from repro.utils.validation import require
from repro.video.rendering import RenderedVideo, render_pristine


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


def build_survey_plan(
    num_renderings: int,
    ratings_per_rendering: int,
    videos_per_survey: int = 5,
    seed: int = 29,
) -> List[List[int]]:
    """Each survey's rendering positions (reference excluded), packed one
    shuffled slot at a time."""
    rng = spawn_rng(seed, "survey-plan", num_renderings, ratings_per_rendering)
    slots: List[int] = []
    for index in range(num_renderings):
        slots.extend([index] * ratings_per_rendering)
    shuffled = [slots[i] for i in rng.permutation(len(slots)).tolist()]

    surveys: List[List[int]] = []
    current: List[int] = []
    pending: List[int] = []
    for slot in shuffled:
        if slot in current or len(current) >= videos_per_survey:
            pending.append(slot)
        else:
            current.append(slot)
        if len(current) >= videos_per_survey:
            surveys.append(current)
            current = []
            # Retry pending slots into the fresh survey.
            still_pending: List[int] = []
            for pending_slot in pending:
                if pending_slot not in current and len(current) < videos_per_survey:
                    current.append(pending_slot)
                else:
                    still_pending.append(pending_slot)
            pending = still_pending
    # Flush leftovers: keep appending surveys until every slot is placed.
    leftovers = current + pending
    while leftovers:
        batch: List[int] = []
        remaining: List[int] = []
        for slot in leftovers:
            if slot not in batch and len(batch) < videos_per_survey:
                batch.append(slot)
            else:
                remaining.append(slot)
        surveys.append(batch)
        leftovers = remaining
    return surveys


def presentation_order(
    indices: List[int], reference: int, rng: np.random.Generator
) -> List[int]:
    """A survey's videos, the reference last, in a randomised viewing order."""
    videos = indices + [reference]
    return [videos[i] for i in rng.permutation(len(videos)).tolist()]


def sample_workers(
    pool: WorkerPool, count: int, masters_only: bool = True
) -> List[SimulatedWorker]:
    """``count`` freshly seeded workers, drawn from the pool's stream."""
    candidates = [p for p in pool.profiles if p.is_master or not masters_only]
    require(bool(candidates), "no eligible workers in the pool")
    replace = count > len(candidates)
    chosen = pool._draw_rng.choice(len(candidates), size=count, replace=replace)
    return [
        SimulatedWorker(candidates[int(i)], seed=pool.seed + 1)
        for i in np.atleast_1d(chosen)
    ]


@dataclass
class OracleResult:
    """The fields of :class:`repro.crowd.campaign.CampaignResult`."""

    mos: Dict[str, float] = field(default_factory=dict)
    normalized_mos: Dict[str, float] = field(default_factory=dict)
    records: List[RatingRecord] = field(default_factory=list)
    num_participants: int = 0
    num_rejected_participants: int = 0
    total_paid_usd: float = 0.0
    total_watch_seconds: float = 0.0


def run_campaign(
    campaign: MTurkCampaign,
    renderings: Sequence[RenderedVideo],
    reference: Optional[RenderedVideo] = None,
) -> OracleResult:
    """What ``campaign.run(renderings, reference)`` returns, rated one
    rating at a time."""
    if reference is None:
        reference = render_pristine(renderings[0].encoded)
    scored = [*renderings, reference]
    true_mos = campaign.oracle.true_mos_batch(scored).tolist()
    mos_by_id = dict(zip((r.render_id for r in scored), true_mos))
    config = campaign.config
    plan = build_survey_plan(
        len(renderings),
        ratings_per_rendering=config.ratings_per_rendering,
        videos_per_survey=config.videos_per_survey,
        seed=config.seed,
    )
    workers = sample_workers(campaign.worker_pool, len(plan), config.masters_only)
    order_rng = spawn_rng(config.seed, "viewing-order")

    result = OracleResult()
    scores: Dict[str, List[float]] = {r.render_id: [] for r in renderings}
    for survey, worker in zip(plan, workers):
        order = presentation_order(survey, len(renderings), order_rng)
        records, accepted_participant, watch_seconds = _run_survey(
            [scored[i] for i in order],
            worker, reference, mos_by_id,
        )
        result.records.extend(records)
        result.num_participants += 1
        if accepted_participant:
            result.total_watch_seconds += watch_seconds
            result.total_paid_usd += campaign.cost_model.payment_for_watch_time(
                watch_seconds
            )
            for record in records:
                if record.accepted and record.rating.render_id in scores:
                    scores[record.rating.render_id].append(record.rating.score)
        else:
            result.num_rejected_participants += 1

    for render_id, values in scores.items():
        mos = float(np.mean(values)) if values else 3.0
        result.mos[render_id] = mos
        result.normalized_mos[render_id] = (mos - 1.0) / 4.0
    return result


def _run_survey(
    videos: Sequence[RenderedVideo],
    worker: SimulatedWorker,
    reference: RenderedVideo,
    mos_by_id: Dict[str, float],
):
    """Run one participant through one survey; apply rejection rules."""
    ratings: List[WorkerRating] = []
    reference_score: Optional[float] = None
    watch_seconds = 0.0
    for video in videos:
        rating = worker.rate(video, mos_by_id[video.render_id])
        watch_seconds += rating.watch_time_s
        if video.render_id == reference.render_id:
            reference_score = rating.score
        ratings.append(rating)

    rejection_reason = ""
    if any(not rating.watched_fully for rating in ratings):
        rejection_reason = "did not watch all videos in full"
    elif any(not rating.incident_confirmed for rating in ratings):
        rejection_reason = "inconsistent incident confirmation"
    elif reference_score is not None and any(
        rating.score >= reference_score + 1.0
        for rating in ratings
        if rating.render_id != reference.render_id
    ):
        rejection_reason = "rated a degraded video well above the reference"

    accepted = rejection_reason == ""
    records = [
        RatingRecord(
            rating=rating,
            accepted=accepted and rating.render_id != reference.render_id,
            rejection_reason=rejection_reason,
        )
        for rating in ratings
    ]
    return records, accepted, watch_seconds
