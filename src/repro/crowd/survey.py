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
from repro.video.rendering import RenderedVideo


@dataclass
class Survey:
    """One participant's assignment: a handful of renderings plus a reference.

    Attributes
    ----------
    survey_id: stable identifier.
    renderings: the rendered videos to rate (reference excluded).
    reference: the pristine reference rendering.
    """

    survey_id: str
    renderings: List[RenderedVideo]
    reference: RenderedVideo

    def __post_init__(self) -> None:
        require(bool(self.renderings), "a survey needs at least one rendering")

    def presentation_order(self, rng: np.random.Generator) -> List[RenderedVideo]:
        """All videos (including the reference) in a randomised viewing order."""
        videos = list(self.renderings) + [self.reference]
        order = rng.permutation(len(videos))
        return [videos[int(i)] for i in order]

    def total_video_seconds(self) -> float:
        """Total length of video a participant watches in this survey."""
        videos = list(self.renderings) + [self.reference]
        return float(sum(v.watch_duration_s for v in videos))


@dataclass
class SurveyPlan:
    """A full campaign plan: surveys plus the required rating multiplicity."""

    surveys: List[Survey] = field(default_factory=list)
    ratings_per_rendering: int = 10

    def num_participants(self) -> int:
        """Each survey is answered by exactly one participant."""
        return len(self.surveys)

    def total_video_seconds(self) -> float:
        """Total video-seconds watched across the whole plan."""
        return float(sum(survey.total_video_seconds() for survey in self.surveys))


def build_survey_plan(
    renderings: Sequence[RenderedVideo],
    reference: RenderedVideo,
    ratings_per_rendering: int,
    videos_per_survey: int = 5,
    seed: int = 29,
) -> SurveyPlan:
    """Spread renderings across surveys so each gets the requested ratings.

    Every rendering appears in exactly ``ratings_per_rendering`` surveys;
    every survey contains at most ``videos_per_survey`` renderings (plus the
    reference video).  Assignment is randomised but seeded.
    """
    require(bool(renderings), "need at least one rendering to rate")
    require(ratings_per_rendering >= 1, "ratings_per_rendering must be >= 1")
    require(videos_per_survey >= 1, "videos_per_survey must be >= 1")
    rng = spawn_rng(seed, "survey-plan", len(renderings), ratings_per_rendering)

    # Build the multiset of rendering slots and shuffle it, then cut into
    # surveys of at most ``videos_per_survey`` slots, avoiding duplicates of
    # the same rendering within one survey where possible.
    slots: List[int] = []
    for index in range(len(renderings)):
        slots.extend([index] * ratings_per_rendering)
    order = rng.permutation(len(slots))
    shuffled = [slots[int(i)] for i in order]

    surveys: List[Survey] = []
    current: List[int] = []
    pending: List[int] = []
    for slot in shuffled:
        if slot in current or len(current) >= videos_per_survey:
            pending.append(slot)
        else:
            current.append(slot)
        if len(current) >= videos_per_survey:
            surveys.append(_make_survey(len(surveys), current, renderings, reference))
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
        surveys.append(_make_survey(len(surveys), batch, renderings, reference))
        leftovers = remaining

    return SurveyPlan(surveys=surveys, ratings_per_rendering=ratings_per_rendering)


def _make_survey(
    index: int,
    slot_indices: Sequence[int],
    renderings: Sequence[RenderedVideo],
    reference: RenderedVideo,
) -> Survey:
    return Survey(
        survey_id=f"survey-{index:04d}",
        renderings=[renderings[i] for i in slot_indices],
        reference=reference,
    )
