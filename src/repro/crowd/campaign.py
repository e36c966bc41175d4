"""MTurk campaign simulation: run surveys, sanitise ratings, aggregate MOS.

Implements the quality-control measures of §4.1 and Appendix B:

* a pristine reference video is embedded in every survey; a participant who
  rates any other rendering above the reference is rejected;
* participants who do not watch a video in full are rejected;
* participants whose incident confirmation is inconsistent are rejected;
* viewing order is randomised per participant;
* rejected participants are not paid.

The campaign returns the per-rendering MOS over accepted ratings along with
cost and rejection statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.crowd.cost import CostModel
from repro.crowd.survey import Survey, build_survey_plan
from repro.crowd.worker import SimulatedWorker, WorkerPool, WorkerRating
from repro.qoe.ground_truth import GroundTruthOracle
from repro.utils.rand import spawn_rng
from repro.utils.validation import require
from repro.video.rendering import RenderedVideo, render_pristine


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters.

    Attributes
    ----------
    ratings_per_rendering:
        How many accepted ratings each rendering should target.
    videos_per_survey:
        Rendered videos per participant (K in §4.1), excluding the reference.
    masters_only:
        Restrict recruitment to master Turkers (Appendix C).
    seed:
        Seed for order randomisation and participant sampling.
    """

    ratings_per_rendering: int = 10
    videos_per_survey: int = 5
    masters_only: bool = True
    seed: int = 31

    def __post_init__(self) -> None:
        require(self.ratings_per_rendering >= 1, "ratings_per_rendering must be >= 1")
        require(self.videos_per_survey >= 1, "videos_per_survey must be >= 1")


@dataclass(frozen=True)
class RatingRecord:
    """One rating together with its acceptance status."""

    rating: WorkerRating
    accepted: bool
    rejection_reason: str = ""


@dataclass
class CampaignResult:
    """Outcome of a campaign.

    Attributes
    ----------
    mos: mean opinion score (1–5) per render_id over accepted ratings.
    normalized_mos: MOS rescaled to [0, 1] per render_id.
    records: every individual rating with its acceptance decision.
    num_participants: surveys answered.
    num_rejected_participants: participants whose ratings were discarded.
    total_paid_usd: total payment to accepted participants.
    total_watch_seconds: video-seconds watched by accepted participants.
    """

    mos: Dict[str, float] = field(default_factory=dict)
    normalized_mos: Dict[str, float] = field(default_factory=dict)
    records: List[RatingRecord] = field(default_factory=list)
    num_participants: int = 0
    num_rejected_participants: int = 0
    total_paid_usd: float = 0.0
    total_watch_seconds: float = 0.0

    def rejection_rate(self) -> float:
        """Fraction of participants rejected."""
        if self.num_participants == 0:
            return 0.0
        return self.num_rejected_participants / self.num_participants


def _require_unique_ids(renderings: Sequence[RenderedVideo]) -> None:
    """Scores and ratings are keyed by render id, and a rating under the
    reference's id counts as a reference rating, so no id may name two
    renderings."""
    seen: set = set()
    for rendered in renderings:
        require(
            rendered.render_id not in seen,
            "render ids must be unique within a campaign: "
            f"{rendered.render_id!r} names two renderings",
        )
        seen.add(rendered.render_id)


class MTurkCampaign:
    """Simulated MTurk campaign over a set of rendered videos."""

    def __init__(
        self,
        oracle: GroundTruthOracle,
        worker_pool: Optional[WorkerPool] = None,
        cost_model: Optional[CostModel] = None,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        self.oracle = oracle
        self.config = config if config is not None else CampaignConfig()
        self.worker_pool = (
            worker_pool if worker_pool is not None
            else WorkerPool(seed=self.config.seed + 1)
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()

    # ------------------------------------------------------------------ run

    def run(
        self,
        renderings: Sequence[RenderedVideo],
        reference: Optional[RenderedVideo] = None,
    ) -> CampaignResult:
        """Collect ratings for the given renderings and aggregate MOS."""
        require(bool(renderings), "need at least one rendering")
        if reference is None:
            reference = render_pristine(renderings[0].encoded)
        # The oracle is a pure function of the rendering: score every
        # rendering (and the reference) once, in one batched call, and let
        # the survey loop look scores up.
        scored = [*renderings, reference]
        _require_unique_ids(scored)
        true_mos = self.oracle.true_mos_batch(scored).tolist()
        mos_by_id = dict(zip((r.render_id for r in scored), true_mos))
        plan = build_survey_plan(
            renderings,
            reference,
            ratings_per_rendering=self.config.ratings_per_rendering,
            videos_per_survey=self.config.videos_per_survey,
            seed=self.config.seed,
        )
        workers = self.worker_pool.sample_workers(
            plan.num_participants(), masters_only=self.config.masters_only
        )
        order_rng = spawn_rng(self.config.seed, "viewing-order")

        result = CampaignResult()
        scores: Dict[str, List[float]] = {r.render_id: [] for r in renderings}
        for survey, worker in zip(plan.surveys, workers):
            records, accepted_participant, watch_seconds = self._run_survey(
                survey, worker, reference, order_rng, mos_by_id
            )
            result.records.extend(records)
            result.num_participants += 1
            if accepted_participant:
                result.total_watch_seconds += watch_seconds
                result.total_paid_usd += self.cost_model.payment_for_watch_time(
                    watch_seconds
                )
                for record in records:
                    if record.accepted and record.rating.render_id in scores:
                        scores[record.rating.render_id].append(record.rating.score)
            else:
                result.num_rejected_participants += 1

        for render_id, values in scores.items():
            # No accepted ratings at all: fall back to the scale midpoint.
            mos = float(np.mean(values)) if values else 3.0
            result.mos[render_id] = mos
            result.normalized_mos[render_id] = (mos - 1.0) / 4.0
        return result

    # ------------------------------------------------------------ internals

    def _run_survey(
        self,
        survey: Survey,
        worker: SimulatedWorker,
        reference: RenderedVideo,
        order_rng: np.random.Generator,
        mos_by_id: Dict[str, float],
    ):
        """Run one participant through one survey; apply rejection rules."""
        videos = survey.presentation_order(order_rng)
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
