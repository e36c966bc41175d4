"""MTurk campaign simulation: run surveys, sanitise ratings, aggregate MOS.

Implements the quality-control measures of §4.1 and Appendix B:

* a pristine reference video is embedded in every survey; a participant who
  rates any other rendering above the reference is rejected;
* participants who do not watch a video in full are rejected;
* participants whose incident confirmation is inconsistent are rejected;
* viewing order is randomised per participant;
* rejected participants are not paid.

The campaign returns the per-rendering MOS over accepted ratings along with
cost and rejection statistics.  Each survey is a row of ratings, scored from
the pool's per-worker draw table with the float operations of one rating,
and the ratings are kept as columns (:class:`RatingColumns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.crowd.cost import CostModel
from repro.crowd.survey import build_survey_plan
from repro.crowd.worker import WorkerPool, WorkerRating
from repro.qoe.ground_truth import GroundTruthOracle
from repro.utils.rand import spawn_rng
from repro.utils.validation import require
from repro.video.rendering import RenderedVideo, RenderingBatch, render_pristine


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


#: Rejection reasons by code; code 0 accepts the participant.
REJECTION_REASONS = (
    "",
    "did not watch all videos in full",
    "inconsistent incident confirmation",
    "rated a degraded video well above the reference",
)


class RatingColumns(NamedTuple):
    """A campaign's ratings, one entry per rating in survey order (and each
    survey's viewing order): the fields of :class:`WorkerRating` and
    :class:`RatingRecord` as arrays."""

    worker_id: np.ndarray
    render_id: np.ndarray
    score: np.ndarray
    watched_fully: np.ndarray
    incident_confirmed: np.ndarray
    watch_time_s: np.ndarray
    accepted: np.ndarray
    rejection_reason: np.ndarray


@dataclass
class CampaignResult:
    """Outcome of a campaign.

    Attributes
    ----------
    mos: mean opinion score (1–5) per render_id over accepted ratings.
    normalized_mos: MOS rescaled to [0, 1] per render_id.
    ratings: every individual rating and its participant's verdict.
    num_participants: surveys answered.
    num_rejected_participants: participants whose ratings were discarded.
    num_accepted_ratings: ratings the MOS averages.
    total_paid_usd: total payment to accepted participants.
    total_watch_seconds: video-seconds watched by accepted participants.
    """

    mos: Dict[str, float]
    normalized_mos: Dict[str, float]
    ratings: RatingColumns
    num_participants: int
    num_rejected_participants: int
    num_accepted_ratings: int
    total_paid_usd: float
    total_watch_seconds: float

    @property
    def records(self) -> List[RatingRecord]:
        """Every rating with its acceptance decision, built on access."""
        columns = (column.tolist() for column in self.ratings)
        return [
            RatingRecord(WorkerRating(*rating), accepted, reason)
            for *rating, accepted, reason in zip(*columns)
        ]

    def rejection_rate(self) -> float:
        """Fraction of participants rejected."""
        if self.num_participants == 0:
            return 0.0
        return self.num_rejected_participants / self.num_participants


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
        renderings: Union[RenderingBatch, Sequence[RenderedVideo]],
        reference: Optional[RenderedVideo] = None,
    ) -> CampaignResult:
        """Collect ratings for the renderings of one video (a batch or a
        sequence) and aggregate MOS."""
        require(bool(renderings), "need at least one rendering")
        renderings = RenderingBatch.of(renderings)
        if reference is None:
            reference = render_pristine(renderings.encoded)
        # The oracle is a pure function of the rendering: score every
        # rendering (and the reference, row ``ref``) once, in one batched
        # call, and let the surveys look scores up by row.  Ratings are
        # keyed by render id, so no id may name two renderings.
        scored = RenderingBatch.concat([renderings, RenderingBatch.of([reference])])
        render_ids = list(scored.render_ids)
        index_of = {render_id: i for i, render_id in enumerate(render_ids)}
        for i, render_id in enumerate(render_ids):
            require(
                index_of[render_id] == i,
                f"render ids must be unique within a campaign: {render_id!r} "
                "names two renderings",
            )
        ref = len(renderings)
        true_mos = self.oracle.true_mos_batch(scored)
        seconds = scored.watch_duration_s
        plan = build_survey_plan(
            ref,
            ratings_per_rendering=self.config.ratings_per_rendering,
            videos_per_survey=self.config.videos_per_survey,
            seed=self.config.seed,
        )
        workers = self.worker_pool.sample_workers(
            plan.num_participants(), masters_only=self.config.masters_only
        )
        # Row s: survey s in viewing order, padded with ``ref``; column k:
        # the participant's k-th rating, from the worker's k-th draws.
        shown = plan.viewing_orders(spawn_rng(self.config.seed, "viewing-order"))
        valid = plan.live
        slope, offset, noise, watched, confirmed, fraction = self.worker_pool.draws(
            workers, shown.shape[1]
        )
        # (mos + bias) + sigma * z when attentive, 0.3 * mos + 0.7 * u when
        # careless: the table's 1.0 and 0.0 terms leave both exact.
        raw = (true_mos[shown] * slope + offset) + noise
        # np.rint rounds half to even, as Python's round() does.
        score = np.clip(np.rint(raw * 2.0) / 2.0, 1.0, 5.0)
        watched = (watched > 0.0) | ~valid
        confirmed = (confirmed > 0.0) | ~valid
        watch = np.where(valid, seconds[shown] * fraction, 0.0)
        is_reference = valid & (shown == ref)
        above = valid & ~is_reference & (score >= score[is_reference][:, None] + 1.0)
        # The rejection rules in order: the first that applies is the reason.
        reasons = np.select(
            [~watched.all(axis=1), ~confirmed.all(axis=1), above.any(axis=1)], [1, 2, 3]
        )
        accepted = reasons == 0

        # Sums run in survey and viewing order, as one rating at a time would.
        total_paid = total_watch = 0.0
        for survey_seconds in np.cumsum(watch, axis=1)[accepted, -1].tolist():
            total_watch += survey_seconds
            total_paid += self.cost_model.payment_for_watch_time(survey_seconds)
        # MOS is the mean of a rendering's accepted scores.  Scores are
        # multiples of 0.5, so every partial sum is exact in any order, and
        # sum / count is np.mean over them bit for bit.
        rated = valid & ~is_reference & accepted[:, None]
        rated_ids = shown[rated]
        counts = np.bincount(rated_ids, minlength=ref)
        # No accepted ratings at all: fall back to the scale midpoint.
        means = np.full(ref, 3.0)
        sums = np.bincount(rated_ids, weights=score[rated], minlength=ref)
        np.divide(sums, counts, out=means, where=counts > 0)
        mos = dict(zip(render_ids, means.tolist()))
        names = np.array([p.worker_id for p in self.worker_pool.profiles], object)
        survey = np.nonzero(valid)[0]
        return CampaignResult(
            mos=mos,
            normalized_mos={key: (value - 1.0) / 4.0 for key, value in mos.items()},
            ratings=RatingColumns(
                names[workers[survey]],
                np.array(render_ids, object)[shown[valid]],
                *(grid[valid] for grid in (score, watched, confirmed, watch, rated)),
                np.array(REJECTION_REASONS, object)[reasons[survey]],
            ),
            num_participants=len(accepted),
            num_rejected_participants=int(len(accepted) - accepted.sum()),
            num_accepted_ratings=int(rated_ids.size),
            total_paid_usd=total_paid,
            total_watch_seconds=total_watch,
        )
