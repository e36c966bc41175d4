"""Two-step rendered-video scheduler: cutting crowdsourcing cost (§4.3).

Step 1 renders the source video with a single 1-second rebuffering event at
every chunk and asks ``M1`` participants to rate each rendering.  The
weights inferred from these ratings are noisy but good enough to identify
the chunks whose sensitivity clearly deviates from the average.  Step 2
re-probes only those chunks (weights more than ``α`` away from the mean)
with additional incident types — ``B`` reduced bitrate levels and ``F``
rebuffering durations — rated by ``M2`` participants each.

The paper's empirically chosen sweet spot is B=2, F=1, M1=10, M2=5, α=6%
(Figure 16); those are the defaults here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import require, require_probability
from repro.video.encoder import EncodedVideo
from repro.video.rendering import RenderingBatch, inject_incidents, render_pristine


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the two-step scheduler (the axes of Figure 16).

    Attributes
    ----------
    step1_ratings: participants per rendering in step 1 (M1).
    step2_ratings: participants per rendering in step 2 (M2).
    step1_stall_s: the probe incident used in step 1 (1-s rebuffering).
    step2_num_bitrate_levels: how many reduced bitrate levels step 2 probes (B).
    step2_num_rebuffer_lengths: how many rebuffering durations step 2 probes (F).
    step2_rebuffer_lengths_s: the pool of stall durations step 2 draws from.
    deviation_threshold: α — relative deviation from the mean weight needed
        for a chunk to be re-probed in step 2.
    include_reference: include the pristine rendering in step 1 (used for
        calibration and as a regression anchor).
    """

    step1_ratings: int = 10
    step2_ratings: int = 5
    step1_stall_s: float = 1.0
    step2_num_bitrate_levels: int = 2
    step2_num_rebuffer_lengths: int = 1
    step2_rebuffer_lengths_s: Sequence[float] = (2.0, 4.0, 3.0, 5.0)
    deviation_threshold: float = 0.06
    include_reference: bool = True

    def __post_init__(self) -> None:
        require(self.step1_ratings >= 1, "step1_ratings must be >= 1")
        require(self.step2_ratings >= 0, "step2_ratings must be >= 0")
        require(self.step1_stall_s > 0, "step1_stall_s must be positive")
        require(
            self.step2_num_bitrate_levels >= 0,
            "step2_num_bitrate_levels must be >= 0",
        )
        require(
            self.step2_num_rebuffer_lengths >= 0,
            "step2_num_rebuffer_lengths must be >= 0",
        )
        require_probability(self.deviation_threshold, "deviation_threshold")


@dataclass
class RenderingSchedule:
    """A batch of renderings to publish, plus the ratings each should get."""

    renderings: RenderingBatch
    ratings_per_rendering: int = 10
    step: int = 1

    def total_video_seconds(self) -> float:
        """Total rendered-video seconds, counting the rating multiplicity.

        This is the quantity campaign cost is proportional to (§4.3).
        """
        per_view = sum(self.renderings.watch_duration_s.tolist())
        return float(per_view * self.ratings_per_rendering)


class TwoStepScheduler:
    """Decides which rendered videos to publish in each profiling step."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config if config is not None else SchedulerConfig()

    # ---------------------------------------------------------------- step 1

    def step1_schedule(self, encoded: EncodedVideo) -> RenderingSchedule:
        """One rendering per chunk with the probe stall, plus the reference."""
        return RenderingSchedule(
            renderings=_probe_renderings(
                encoded,
                "step1",
                range(encoded.num_chunks),
                [("stall", self.config.step1_stall_s, 0, 0)],
                lead="reference" if self.config.include_reference else "",
            ),
            ratings_per_rendering=self.config.step1_ratings,
            step=1,
        )

    # ---------------------------------------------------------------- step 2

    def select_chunks_to_reprobe(self, step1_weights: np.ndarray) -> np.ndarray:
        """Chunks whose step-1 weight deviates from the mean by more than α."""
        weights = np.asarray(step1_weights, dtype=float)
        require(weights.size >= 1, "step1 weights must be non-empty")
        mean = float(np.mean(weights))
        deviation = np.abs(weights - mean) / max(mean, 1e-9)
        return np.flatnonzero(deviation > self.config.deviation_threshold)

    def step2_schedule(
        self, encoded: EncodedVideo, step1_weights: np.ndarray
    ) -> RenderingSchedule:
        """Renderings probing only the high/low-sensitivity chunks (step 2)."""
        config = self.config
        return RenderingSchedule(
            renderings=_probe_renderings(
                encoded,
                "step2",
                self.select_chunks_to_reprobe(step1_weights).tolist(),
                _grid_probes(
                    range(config.step2_num_bitrate_levels),
                    config.step2_rebuffer_lengths_s[
                        : config.step2_num_rebuffer_lengths
                    ],
                ),
            ),
            ratings_per_rendering=config.step2_ratings,
            step=2,
        )

    # ------------------------------------------------------------ exhaustive

    def exhaustive_schedule(
        self,
        encoded: EncodedVideo,
        num_bitrate_levels: int = 5,
        rebuffer_lengths_s: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
        ratings_per_rendering: int = 30,
    ) -> RenderingSchedule:
        """The un-pruned strawman: every incident type at every chunk.

        This is the "SENSEI w/o cost pruning" arm of Figure 12c, used to
        quantify how much the two-step scheduler saves.
        """
        # The pristine row has its own id: under the survey reference's id
        # every rating of it would be discarded as a reference rating.
        return RenderingSchedule(
            renderings=_probe_renderings(
                encoded,
                "full",
                range(encoded.num_chunks),
                _grid_probes(range(num_bitrate_levels - 1), rebuffer_lengths_s),
                lead="pristine",
            ),
            ratings_per_rendering=ratings_per_rendering,
            step=0,
        )


#: A probe: ``(name, stall_s, drop_to_level, drop_chunks)``, the incidents
#: of one row of :func:`~repro.video.rendering.inject_incidents`.
Probe = Tuple[str, float, int, int]


def _grid_probes(
    drop_levels: Sequence[int], stalls_s: Sequence[float]
) -> List[Probe]:
    """One probe per reduced bitrate level, then one per stall length."""
    require(
        all(stall_s > 0 for stall_s in stalls_s),
        "a rebuffering probe needs stall_s > 0",
    )
    return [(f"drop{level}", 0.0, level, 1) for level in drop_levels] + [
        (f"stall{stall_s:g}", stall_s, 0, 0) for stall_s in stalls_s
    ]


def _probe_renderings(
    encoded: EncodedVideo,
    step: str,
    chunks: Sequence[int],
    probes: Sequence[Probe],
    lead: str = "",
) -> RenderingBatch:
    """Per chunk, one rendering per probe injected into the pristine
    rendering, after an incident-free first row named ``lead`` if given."""
    prefix = f"{encoded.source.video_id}/{step}/"
    rows = [(f"{prefix}{lead}", 0, 0.0, 0, 0)] if lead else []
    rows += [
        (f"{prefix}{name}@{chunk}", chunk, stall_s, level, span)
        for chunk in chunks
        for name, stall_s, level, span in probes
    ]
    render_ids, chunk, stall_s, level, span = list(zip(*rows)) or [()] * 5
    return inject_incidents(
        render_pristine(encoded), render_ids, chunk,
        stall_s=stall_s, drop_to_level=level, drop_chunks=span,
    )
