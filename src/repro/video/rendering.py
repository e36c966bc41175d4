"""Rendered videos: what a viewer actually experiences.

A *rendered video* is a specific playback of an encoded video: the bitrate
level of every chunk, the rebuffering (stall) time incurred right before
every chunk, and the startup delay.  It is the common currency of the whole
system:

* the streaming simulator (:mod:`repro.player`) produces one per session;
* the crowdsourcing pipeline (:mod:`repro.crowd`) asks simulated raters to
  rate them;
* every QoE model (:mod:`repro.qoe`) scores them;
* SENSEI's profiling step (§4) injects *quality incidents* into an otherwise
  pristine rendering to build the video series of Figures 1, 3, 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.validation import require, require_non_negative
from repro.video.encoder import EncodedVideo

#: Supported incident kinds (§2.3 uses exactly these).
INCIDENT_REBUFFERING = "rebuffering"
INCIDENT_BITRATE_DROP = "bitrate_drop"
INCIDENT_KINDS = (INCIDENT_REBUFFERING, INCIDENT_BITRATE_DROP)


@dataclass(frozen=True)
class QualityIncident:
    """A deliberately injected low-quality incident (§2.3, §4.3).

    Attributes
    ----------
    kind:
        ``"rebuffering"`` or ``"bitrate_drop"``.
    chunk_index:
        The chunk at which the incident occurs.
    stall_s:
        Stall duration in seconds (rebuffering incidents).
    drop_to_level:
        Target bitrate level during a bitrate-drop incident.
    duration_chunks:
        How many consecutive chunks a bitrate drop spans (the paper uses a
        4-second drop, i.e. one 4-second chunk, but longer drops are allowed).
    """

    kind: str
    chunk_index: int
    stall_s: float = 0.0
    drop_to_level: int = 0
    duration_chunks: int = 1

    def __post_init__(self) -> None:
        require(self.kind in INCIDENT_KINDS, f"unknown incident kind {self.kind!r}")
        require(self.chunk_index >= 0, "chunk_index must be >= 0")
        require_non_negative(self.stall_s, "stall_s")
        require(self.duration_chunks >= 1, "duration_chunks must be >= 1")
        if self.kind == INCIDENT_REBUFFERING:
            require(self.stall_s > 0, "a rebuffering incident needs stall_s > 0")

    @classmethod
    def rebuffering(cls, chunk_index: int, stall_s: float) -> "QualityIncident":
        """A stall of ``stall_s`` seconds right before ``chunk_index``."""
        return cls(kind=INCIDENT_REBUFFERING, chunk_index=chunk_index, stall_s=stall_s)

    @classmethod
    def bitrate_drop(
        cls, chunk_index: int, drop_to_level: int = 0, duration_chunks: int = 1
    ) -> "QualityIncident":
        """A bitrate drop to ``drop_to_level`` for ``duration_chunks`` chunks."""
        return cls(
            kind=INCIDENT_BITRATE_DROP,
            chunk_index=chunk_index,
            drop_to_level=drop_to_level,
            duration_chunks=duration_chunks,
        )


@dataclass(frozen=True)
class RenderedVideo:
    """One playback of an encoded video, as experienced by a viewer.

    Attributes
    ----------
    encoded:
        The underlying encoded video.
    levels:
        Bitrate level index per chunk.
    stalls_s:
        Rebuffering time (seconds) incurred immediately before each chunk.
    startup_delay_s:
        Delay before the first chunk starts playing.
    render_id:
        Free-form identifier used by the crowdsourcing pipeline and reports.
    """

    encoded: EncodedVideo
    levels: np.ndarray
    stalls_s: np.ndarray
    startup_delay_s: float = 0.0
    render_id: str = ""

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=int)
        stalls = np.asarray(self.stalls_s, dtype=float)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "stalls_s", stalls)
        n = self.encoded.num_chunks
        require(levels.shape == (n,), "levels must have one entry per chunk")
        require(stalls.shape == (n,), "stalls_s must have one entry per chunk")
        require(bool(np.all(levels >= 0)), "levels must be >= 0")
        require(
            bool(np.all(levels < self.encoded.ladder.num_levels)),
            "levels must be valid ladder indices",
        )
        require(bool(np.all(stalls >= 0)), "stall times must be >= 0")
        require_non_negative(self.startup_delay_s, "startup_delay_s")

    # ----------------------------------------------------------- accessors

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the rendering."""
        return self.encoded.num_chunks

    @property
    def chunk_duration_s(self) -> float:
        """Chunk duration in seconds."""
        return self.encoded.chunk_duration_s

    @property
    def source(self):
        """The underlying source video."""
        return self.encoded.source

    def bitrate_kbps(self, chunk_index: int) -> float:
        """Bitrate (kbps) at which a chunk was played."""
        return self.encoded.ladder.bitrate_of(int(self.levels[chunk_index]))

    def bitrates_kbps(self) -> np.ndarray:
        """Bitrate per chunk in kbps."""
        ladder_rates = np.asarray(self.encoded.ladder.bitrates_kbps, dtype=float)
        return ladder_rates[np.asarray(self.levels, dtype=int)]

    def chunk_quality(self, chunk_index: int) -> float:
        """VMAF-like visual quality of a chunk as played."""
        return self.encoded.chunk_quality(chunk_index, int(self.levels[chunk_index]))

    def quality_curve(self) -> np.ndarray:
        """Visual quality per chunk as played (0-100)."""
        levels = np.asarray(self.levels, dtype=int)
        return self.encoded.quality_matrix()[np.arange(levels.size), levels]

    def total_stall_s(self) -> float:
        """Total rebuffering time excluding startup delay."""
        return float(np.sum(self.stalls_s))

    @cached_property
    def watch_duration_s(self) -> float:
        """Seconds of watching in full: playback, stalls and startup delay."""
        duration = self.num_chunks * self.chunk_duration_s
        return duration + self.total_stall_s() + self.startup_delay_s

    def rebuffering_ratio(self) -> float:
        """Total stall time divided by playback duration."""
        return self.total_stall_s() / (self.num_chunks * self.chunk_duration_s)

    def total_bytes(self) -> float:
        """Total bytes downloaded for the played levels."""
        return float(
            sum(
                self.encoded.chunk_size_bytes(i, int(self.levels[i]))
                for i in range(self.num_chunks)
            )
        )

    def average_bitrate_kbps(self) -> float:
        """Mean played bitrate in kbps."""
        return float(np.mean(self.bitrates_kbps()))

    def num_switches(self) -> int:
        """Number of chunk boundaries where the bitrate level changes."""
        return int(np.sum(np.diff(self.levels) != 0))

    def switch_magnitudes_kbps(self) -> np.ndarray:
        """Absolute bitrate change (kbps) at each chunk boundary; first is 0."""
        rates = self.bitrates_kbps()
        return np.concatenate([[0.0], np.abs(np.diff(rates))])

    def incident_summary(self) -> str:
        """Human-readable summary of quality incidents in this rendering."""
        parts: List[str] = []
        if self.startup_delay_s > 0:
            parts.append(f"startup {self.startup_delay_s:.1f}s")
        for i, stall in enumerate(self.stalls_s):
            if stall > 0:
                parts.append(f"stall {stall:.1f}s @chunk {i}")
        top = self.encoded.ladder.highest_level
        drops = [i for i in range(self.num_chunks) if self.levels[i] < top]
        if drops and len(drops) < self.num_chunks:
            parts.append(f"{len(drops)} chunks below top bitrate")
        return "; ".join(parts) if parts else "pristine"

    # ---------------------------------------------------------- derivation

    def with_render_id(self, render_id: str) -> "RenderedVideo":
        """Copy of this rendering with a new identifier."""
        return replace(self, render_id=render_id)


def render_pristine(encoded: EncodedVideo, render_id: str = "") -> RenderedVideo:
    """The reference rendering: highest bitrate everywhere, no stalls.

    This is the "reference video" each crowdsourcing survey embeds for
    calibration (Appendix B).
    """
    top = encoded.ladder.highest_level
    return RenderedVideo(
        encoded=encoded,
        levels=np.full(encoded.num_chunks, top, dtype=int),
        stalls_s=np.zeros(encoded.num_chunks),
        startup_delay_s=0.0,
        render_id=render_id or f"{encoded.source.video_id}/pristine",
    )


def inject_incident(
    rendering: RenderedVideo, incident: QualityIncident, render_id: str = ""
) -> RenderedVideo:
    """Return a copy of ``rendering`` with one quality incident injected."""
    n = rendering.num_chunks
    require(incident.chunk_index < n, "incident chunk index beyond video end")
    levels = rendering.levels.copy()
    stalls = rendering.stalls_s.copy()
    if incident.kind == INCIDENT_REBUFFERING:
        stalls[incident.chunk_index] += incident.stall_s
    else:
        require(
            incident.drop_to_level < rendering.encoded.ladder.num_levels,
            "drop_to_level out of range",
        )
        end = min(n, incident.chunk_index + incident.duration_chunks)
        for i in range(incident.chunk_index, end):
            levels[i] = min(int(levels[i]), incident.drop_to_level)
    if not render_id:
        render_id = (
            f"{rendering.encoded.source.video_id}/{incident.kind}"
            f"@{incident.chunk_index}"
        )
    return replace(rendering, levels=levels, stalls_s=stalls, render_id=render_id)


def make_video_series(
    encoded: EncodedVideo,
    incident_template: QualityIncident,
    chunk_indices: Optional[Sequence[int]] = None,
) -> List[RenderedVideo]:
    """Build the *video series* of §2.3: one rendering per incident position.

    Every rendering has the same (pristine) content except for the incident
    from ``incident_template`` moved to a different chunk.
    """
    pristine = render_pristine(encoded)
    if chunk_indices is None:
        chunk_indices = range(encoded.num_chunks)
    series: List[RenderedVideo] = []
    for chunk_index in chunk_indices:
        incident = replace(incident_template, chunk_index=int(chunk_index))
        series.append(inject_incident(pristine, incident))
    require(bool(series), "video series must contain at least one rendering")
    return series
