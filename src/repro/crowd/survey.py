"""Survey assembly: grouping rendered videos into rateable surveys.

Each survey shows a participant K rendered videos (in randomised order) plus
one pristine *reference* video used for calibration and rejection (Appendix
B).  The plan builder spreads the required number of ratings per rendering
across surveys while respecting the per-participant video limit that the
paper uses to prevent fatigue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.utils.rand import spawn_rng
from repro.utils.validation import require


@dataclass
class Survey:
    """One participant's assignment: a handful of renderings plus a reference.

    Videos are positions in the campaign's rendering list, the reference
    being the position after the last rendering.

    Attributes
    ----------
    survey_id: stable identifier.
    indices: the positions of the renderings to rate (reference excluded).
    reference: the position of the pristine reference rendering.
    """

    survey_id: str
    indices: List[int]
    reference: int

    def __post_init__(self) -> None:
        require(bool(self.indices), "a survey needs at least one rendering")

    def presentation_order(self, rng: np.random.Generator) -> List[int]:
        """All videos (including the reference) in a randomised viewing order."""
        videos = self.indices + [self.reference]
        return [videos[i] for i in rng.permutation(len(videos)).tolist()]

    def total_video_seconds(self, watch_seconds: Sequence[float]) -> float:
        """Total length of video a participant watches in this survey, given
        the watch seconds of every position."""
        return float(sum(watch_seconds[i] for i in self.indices + [self.reference]))


@dataclass
class SurveyPlan:
    """A full campaign plan: surveys plus the required rating multiplicity."""

    surveys: List[Survey] = field(default_factory=list)
    ratings_per_rendering: int = 10

    def num_participants(self) -> int:
        """Each survey is answered by exactly one participant."""
        return len(self.surveys)

    def total_video_seconds(self, watch_seconds: Sequence[float]) -> float:
        """Total video-seconds watched across the whole plan."""
        return float(
            sum(survey.total_video_seconds(watch_seconds) for survey in self.surveys)
        )


def build_survey_plan(
    num_renderings: int,
    ratings_per_rendering: int,
    videos_per_survey: int = 5,
    seed: int = 29,
) -> SurveyPlan:
    """Spread ``num_renderings`` renderings (positions ``0 .. n-1``; the
    reference is position ``n``) across surveys so each gets the requested
    ratings.

    Every rendering appears in exactly ``ratings_per_rendering`` surveys;
    every survey contains at most ``videos_per_survey`` renderings (plus the
    reference video).  Assignment is randomised but seeded.
    """
    require(num_renderings >= 1, "need at least one rendering to rate")
    require(ratings_per_rendering >= 1, "ratings_per_rendering must be >= 1")
    require(videos_per_survey >= 1, "videos_per_survey must be >= 1")
    rng = spawn_rng(seed, "survey-plan", num_renderings, ratings_per_rendering)

    # Build the multiset of rendering slots and shuffle it, then cut into
    # surveys of at most ``videos_per_survey`` slots, avoiding duplicates of
    # the same rendering within one survey where possible.
    slots: List[int] = []
    for index in range(num_renderings):
        slots.extend([index] * ratings_per_rendering)
    shuffled = [slots[i] for i in rng.permutation(len(slots)).tolist()]

    surveys: List[Survey] = []
    current: List[int] = []
    pending: List[int] = []
    for slot in shuffled:
        if slot in current or len(current) >= videos_per_survey:
            pending.append(slot)
        else:
            current.append(slot)
        if len(current) >= videos_per_survey:
            surveys.append(_make_survey(len(surveys), current, num_renderings))
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
        surveys.append(_make_survey(len(surveys), batch, num_renderings))
        leftovers = remaining

    return SurveyPlan(surveys=surveys, ratings_per_rendering=ratings_per_rendering)


def _make_survey(index: int, slot_indices: List[int], reference: int) -> Survey:
    return Survey(
        survey_id=f"survey-{index:04d}", indices=slot_indices, reference=reference
    )
