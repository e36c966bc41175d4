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
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

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


# ------------------------------------------------ renderings as level/stall rows
#
# The arithmetic of a rendering, once, over ``(rows, chunks)`` level and
# stall arrays (a 1-D array is one row): a :class:`RenderedVideo` calls it
# on its own row, a :class:`RenderingBatch` and the batched scorers on
# their matrices, so every row's values are the same bits either way.


def rendering_columns(
    encoded: EncodedVideo,
    levels: ArrayLike,
    stalls_s: ArrayLike,
    startup_delay_s: ArrayLike,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, chunks)`` levels and stalls and ``(rows,)`` startup delays
    of renderings of ``encoded``, as int and float arrays, checked."""
    levels = np.asarray(levels, dtype=int)
    stalls = np.asarray(stalls_s, dtype=float)
    startup = np.asarray(startup_delay_s, dtype=float)
    shape = (startup.size, encoded.num_chunks)
    require(levels.shape == shape, "levels must have one entry per chunk")
    require(stalls.shape == shape, "stalls_s must have one entry per chunk")
    require(bool(np.all(levels >= 0)), "levels must be >= 0")
    require(
        bool(np.all(levels < encoded.ladder.num_levels)),
        "levels must be valid ladder indices",
    )
    require(bool(np.all(stalls >= 0)), "stall times must be >= 0")
    require(not np.any(startup < 0), "startup_delay_s must be >= 0")
    return levels, stalls, startup


def watch_seconds(
    encoded: EncodedVideo, stalls_s: np.ndarray, startup_delay_s: ArrayLike
) -> np.ndarray:
    """Per row, seconds of watching in full: playback, stalls and startup."""
    duration = encoded.num_chunks * encoded.chunk_duration_s
    return duration + np.sum(stalls_s, axis=-1) + startup_delay_s


def played_quality(encoded: EncodedVideo, levels: np.ndarray) -> np.ndarray:
    """Visual quality (0-100) of every chunk as played at ``levels``."""
    return encoded.quality_matrix()[np.arange(encoded.num_chunks), levels]


def played_bitrates_kbps(encoded: EncodedVideo, levels: np.ndarray) -> np.ndarray:
    """Bitrate (kbps) of every chunk as played at ``levels``."""
    return np.asarray(encoded.ladder.bitrates_kbps, dtype=float)[levels]


def bitrate_switches_kbps(bitrates_kbps: np.ndarray) -> np.ndarray:
    """|Bitrate change| (kbps) entering each chunk, none entering the first."""
    switches = np.zeros_like(bitrates_kbps)
    switches[..., 1:] = np.abs(np.diff(bitrates_kbps, axis=-1))
    return switches


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
        levels, stalls, _ = rendering_columns(
            self.encoded,
            np.asarray(self.levels)[None],
            np.asarray(self.stalls_s)[None],
            [self.startup_delay_s],
        )
        object.__setattr__(self, "levels", levels[0])
        object.__setattr__(self, "stalls_s", stalls[0])

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
        return played_bitrates_kbps(self.encoded, self.levels)

    def chunk_quality(self, chunk_index: int) -> float:
        """VMAF-like visual quality of a chunk as played."""
        return self.encoded.chunk_quality(chunk_index, int(self.levels[chunk_index]))

    def quality_curve(self) -> np.ndarray:
        """Visual quality per chunk as played (0-100)."""
        return played_quality(self.encoded, self.levels)

    def total_stall_s(self) -> float:
        """Total rebuffering time excluding startup delay."""
        return float(np.sum(self.stalls_s))

    @cached_property
    def watch_duration_s(self) -> float:
        """Seconds of watching in full: playback, stalls and startup delay."""
        return float(watch_seconds(self.encoded, self.stalls_s, self.startup_delay_s))

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
        return bitrate_switches_kbps(self.bitrates_kbps())

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


#: Rows a scorer of a :class:`RenderingBatch` (the ground-truth oracle,
#: KSQI) takes at a time: it bounds their rows-by-chunks temporaries, which
#: freed after every call would otherwise grow the heap.
BLOCK_ROWS = 64


def _video_key(encoded: EncodedVideo) -> tuple:
    return encoded.source.video_id, encoded.ladder


@dataclass(frozen=True)
class RenderingBatch:
    """Renderings of one video as columns: row ``r`` is one playback.

    This is what the profiling pipeline schedules, rates, scores and infers
    weights from.  Indexing or iterating builds a :class:`RenderedVideo`
    per row on access.

    Attributes
    ----------
    encoded:
        The encoded video every row plays (any encoding of one video on
        one ladder; the first row's when stacked).
    levels:
        ``(rows, chunks)`` bitrate level per chunk.
    stalls_s:
        ``(rows, chunks)`` rebuffering time right before each chunk.
    startup_delay_s:
        ``(rows,)`` delay before the first chunk plays.
    render_ids:
        One identifier per row.
    """

    encoded: EncodedVideo
    levels: np.ndarray
    stalls_s: np.ndarray
    startup_delay_s: np.ndarray
    render_ids: Tuple[str, ...]

    def __post_init__(self) -> None:
        render_ids = tuple(self.render_ids)
        require(
            np.shape(self.startup_delay_s) == (len(render_ids),),
            "one startup delay per rendering",
        )
        levels, stalls, startup = rendering_columns(
            self.encoded, self.levels, self.stalls_s, self.startup_delay_s
        )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "stalls_s", stalls)
        object.__setattr__(self, "startup_delay_s", startup)
        object.__setattr__(self, "render_ids", render_ids)

    @classmethod
    def of(
        cls, renderings: Union["RenderingBatch", Sequence[RenderedVideo]]
    ) -> "RenderingBatch":
        """``renderings`` as a batch: a batch as it is, a non-empty
        sequence of renderings of one video and one ladder stacked."""
        if isinstance(renderings, cls):
            return renderings
        require(bool(renderings), "a rendering batch needs at least one rendering")
        require(
            len({_video_key(r.encoded) for r in renderings}) == 1,
            "a rendering batch holds renderings of one video and one ladder",
        )
        return cls(
            encoded=renderings[0].encoded,
            levels=np.stack([r.levels for r in renderings]),
            stalls_s=np.stack([r.stalls_s for r in renderings]),
            startup_delay_s=np.array([r.startup_delay_s for r in renderings]),
            render_ids=[r.render_id for r in renderings],
        )

    @classmethod
    def concat(cls, batches: Sequence["RenderingBatch"]) -> "RenderingBatch":
        """The rows of ``batches`` (of one video and one ladder), in order."""
        require(
            len({_video_key(b.encoded) for b in batches}) == 1,
            "a rendering batch holds renderings of one video and one ladder",
        )
        return cls(
            encoded=batches[0].encoded,
            levels=np.concatenate([b.levels for b in batches]),
            stalls_s=np.concatenate([b.stalls_s for b in batches]),
            startup_delay_s=np.concatenate([b.startup_delay_s for b in batches]),
            render_ids=[i for b in batches for i in b.render_ids],
        )

    def __len__(self) -> int:
        return len(self.render_ids)

    def __getitem__(self, row: int) -> RenderedVideo:
        return RenderedVideo(
            encoded=self.encoded,
            levels=self.levels[row].copy(),
            stalls_s=self.stalls_s[row].copy(),
            startup_delay_s=float(self.startup_delay_s[row]),
            render_id=self.render_ids[row],
        )

    def __iter__(self) -> Iterator[RenderedVideo]:
        return (self[row] for row in range(len(self)))

    @property
    def num_chunks(self) -> int:
        """Number of chunks per rendering."""
        return self.encoded.num_chunks

    @property
    def watch_duration_s(self) -> np.ndarray:
        """Per row, :attr:`RenderedVideo.watch_duration_s`."""
        return watch_seconds(self.encoded, self.stalls_s, self.startup_delay_s)


def inject_incidents(
    rendering: RenderedVideo,
    render_ids: Sequence[str],
    chunk_index: ArrayLike,
    stall_s: ArrayLike = 0.0,
    drop_to_level: ArrayLike = 0,
    drop_chunks: ArrayLike = 0,
) -> RenderingBatch:
    """``rendering`` once per render id, each row with its own incidents.

    Row ``r`` gets ``stall_s[r]`` more seconds of rebuffering right before
    chunk ``chunk_index[r]``, and its level capped at ``drop_to_level[r]``
    for the ``drop_chunks[r]`` chunks from there (cut at the video's end).
    A zero stall and zero drop chunks leave the row as ``rendering`` plays.
    Scalars apply to every row.
    """
    rows = len(render_ids)
    num_chunks = rendering.num_chunks
    chunk, stall, drop, span = (
        np.broadcast_to(np.asarray(values, dtype=dtype), (rows,))
        for values, dtype in (
            (chunk_index, int), (stall_s, float), (drop_to_level, int),
            (drop_chunks, int),
        )
    )
    require(
        bool(np.all((chunk >= 0) & (chunk < num_chunks))),
        "incident chunk index beyond video end",
    )
    require(
        bool(np.all(drop[span > 0] < rendering.encoded.ladder.num_levels)),
        "drop_to_level out of range",
    )
    stalls = np.tile(rendering.stalls_s, (rows, 1))
    stalled = np.flatnonzero(stall)
    stalls[stalled, chunk[stalled]] += stall[stalled]
    levels = np.tile(rendering.levels, (rows, 1))
    columns = np.arange(num_chunks)
    dropped = (columns >= chunk[:, None]) & (columns < (chunk + span)[:, None])
    np.minimum(levels, drop[:, None], out=levels, where=dropped)
    return RenderingBatch(
        encoded=rendering.encoded,
        levels=levels,
        stalls_s=stalls,
        startup_delay_s=np.full(rows, rendering.startup_delay_s),
        render_ids=render_ids,
    )


def _incident_columns(incident: QualityIncident) -> dict:
    """An incident as :func:`inject_incidents` keywords."""
    if incident.kind == INCIDENT_REBUFFERING:
        return {"stall_s": incident.stall_s}
    return {
        "drop_to_level": incident.drop_to_level,
        "drop_chunks": incident.duration_chunks,
    }


def inject_incident(
    rendering: RenderedVideo, incident: QualityIncident, render_id: str = ""
) -> RenderedVideo:
    """Return a copy of ``rendering`` with one quality incident injected."""
    if not render_id:
        render_id = (
            f"{rendering.encoded.source.video_id}/{incident.kind}"
            f"@{incident.chunk_index}"
        )
    return inject_incidents(
        rendering, [render_id], incident.chunk_index,
        **_incident_columns(incident),
    )[0]


def make_video_series(
    encoded: EncodedVideo,
    incident_template: QualityIncident,
    chunk_indices: Optional[Sequence[int]] = None,
) -> List[RenderedVideo]:
    """Build the *video series* of §2.3: one rendering per incident position.

    Every rendering has the same (pristine) content except for the incident
    from ``incident_template`` moved to a different chunk.
    """
    if chunk_indices is None:
        chunk_indices = range(encoded.num_chunks)
    chunks = [int(chunk_index) for chunk_index in chunk_indices]
    require(bool(chunks), "video series must contain at least one rendering")
    prefix = f"{encoded.source.video_id}/{incident_template.kind}@"
    return list(inject_incidents(
        render_pristine(encoded),
        [f"{prefix}{chunk_index}" for chunk_index in chunks],
        chunks,
        **_incident_columns(incident_template),
    ))
