"""Survey assembly: grouping rendered videos into rateable surveys.

Each survey shows a participant K rendered videos (in randomised order) plus
one pristine *reference* video used for calibration and rejection (Appendix
B).  The plan builder spreads the required number of ratings per rendering
across surveys while respecting the per-participant video limit that the
paper uses to prevent fatigue.  A plan is columnar: one row of positions
per survey.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.utils.rand import spawn_rng
from repro.utils.validation import require


@dataclass(frozen=True)
class SurveyPlan:
    """A full campaign plan, one row per survey.

    Videos are positions in the campaign's rendering list, the reference
    being the position ``n`` after the last rendering.

    Attributes
    ----------
    positions:
        ``(surveys, width)`` positions.  Row ``s`` holds the renderings to
        rate, then the reference in its last live column
        ``lengths[s] - 1``, then padding with the reference; ``width`` is
        the longest survey's length.
    lengths:
        Videos per survey, the reference included.
    ratings_per_rendering:
        The rating multiplicity the plan was built for.
    """

    positions: np.ndarray
    lengths: np.ndarray
    ratings_per_rendering: int = 10

    @property
    def live(self) -> np.ndarray:
        """``(surveys, width)`` mask of the columns each survey shows."""
        return np.arange(self.positions.shape[1]) < self.lengths[:, None]

    def num_participants(self) -> int:
        """Each survey is answered by exactly one participant."""
        return len(self.lengths)

    def total_video_seconds(self, watch_seconds: Sequence[float]) -> float:
        """Total video-seconds watched across the whole plan, given the
        watch seconds of every position."""
        return float(np.asarray(watch_seconds)[self.positions[self.live]].sum())

    def viewing_orders(self, rng: np.random.Generator) -> np.ndarray:
        """Every survey's videos (reference included) in a randomised viewing
        order, padded as :attr:`positions` is.

        Row ``s`` is its live videos reordered by ``rng.permutation``, drawn
        survey after survey.  ``rng.permuted`` shuffles each row of a block
        with the Fisher-Yates walk ``permutation`` uses, in row order, so
        one call per run of equal-length surveys makes the same draws and
        leaves ``rng`` in the same state."""
        shown = self.positions.copy()
        starts = (np.flatnonzero(np.diff(self.lengths)) + 1).tolist()
        for start, stop in zip([0, *starts], [*starts, len(self.lengths)]):
            width = int(self.lengths[start])
            shown[start:stop, :width] = rng.permuted(
                shown[start:stop, :width], axis=1
            )
        return shown


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
    size = videos_per_survey

    # Build the multiset of rendering slots and shuffle it, then cut into
    # surveys of at most ``videos_per_survey`` slots, avoiding duplicates of
    # the same rendering within one survey where possible.
    slots = np.repeat(np.arange(num_renderings), ratings_per_rendering)
    shuffled = slots[rng.permutation(len(slots))]
    # With no survey open (and so nothing pending: a fresh survey takes the
    # first pending slot), ``size`` distinct slots in a row fill one survey
    # on their own, so the loop jumps over them whole.
    whole = _distinct_windows(shuffled, size).tolist()

    lengths: List[int] = []
    taken: List[int] = []  # every survey's slots, survey after survey
    current: List[int] = []
    pending: List[int] = []
    values = shuffled.tolist()
    index = 0
    while index < len(values):
        if not current and whole[index]:
            taken += values[index:index + size]
            lengths.append(size)
            index += size
            continue
        slot = values[index]
        index += 1
        if slot in current or len(current) >= size:
            pending.append(slot)
        else:
            current.append(slot)
        if len(current) >= size:
            taken += current
            lengths.append(size)
            current = []
            # Retry pending slots into the fresh survey.
            still_pending: List[int] = []
            for pending_slot in pending:
                if pending_slot not in current and len(current) < size:
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
            if slot not in batch and len(batch) < size:
                batch.append(slot)
            else:
                remaining.append(slot)
        taken += batch
        lengths.append(len(batch))
        leftovers = remaining

    counts = np.array(lengths)
    positions = np.full((len(counts), counts.max() + 1), num_renderings)
    positions[:, :-1][np.arange(counts.max()) < counts[:, None]] = taken
    return SurveyPlan(positions, counts + 1, ratings_per_rendering)


def _distinct_windows(values: np.ndarray, size: int) -> np.ndarray:
    """Whether the ``size`` values from each position on hold no value
    twice (``False`` where fewer than ``size`` remain)."""
    # Each value's previous occurrence, from one stable sort: a window is
    # distinct when none of its values occurred since the window began.
    order = np.argsort(values, kind="stable")
    repeat = values[order[1:]] == values[order[:-1]]
    previous = np.full(len(values), -1)
    previous[order[1:][repeat]] = order[:-1][repeat]
    latest = previous[:max(0, len(values) - size + 1)].copy()
    for offset in range(1, size):
        np.maximum(latest, previous[offset:len(latest) + offset], out=latest)
    whole = np.zeros(len(values), dtype=bool)
    whole[:len(latest)] = latest < np.arange(len(latest))
    return whole
