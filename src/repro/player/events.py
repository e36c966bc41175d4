"""Event records produced by a streaming session.

These are the raw materials for the evaluation: per-chunk download records
(throughput measurements), stall events (rebuffering and proactive stalls)
and a consolidated timeline used by debugging and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.utils.validation import require, require_non_negative

#: Stall causes.
STALL_REBUFFER = "rebuffer"          # buffer ran dry
STALL_PROACTIVE = "proactive"        # deliberately scheduled by the ABR
STALL_STARTUP = "startup"            # initial join delay


@dataclass(frozen=True, slots=True)
class DownloadRecord:
    """One chunk download.

    Attributes
    ----------
    chunk_index: index of the downloaded chunk.
    level: bitrate level downloaded.
    size_bytes: bytes transferred.
    start_time_s / duration_s: wall-clock start and duration of the download.
    throughput_mbps: measured goodput for this download.
    buffer_before_s / buffer_after_s: buffer occupancy around the download.
    """

    chunk_index: int
    level: int
    size_bytes: float
    start_time_s: float
    duration_s: float
    throughput_mbps: float
    buffer_before_s: float
    buffer_after_s: float

    def __post_init__(self) -> None:
        require(self.chunk_index >= 0, "chunk_index must be >= 0")
        require(self.level >= 0, "level must be >= 0")
        require(self.size_bytes > 0, "size_bytes must be positive")
        require_non_negative(self.start_time_s, "start_time_s")
        require(self.duration_s > 0, "duration_s must be positive")
        require(self.throughput_mbps > 0, "throughput must be positive")


@dataclass(frozen=True, slots=True)
class StallEvent:
    """A playback interruption.

    Attributes
    ----------
    cause: ``"rebuffer"``, ``"proactive"`` or ``"startup"``.
    chunk_index: the chunk whose playback the stall preceded.
    start_time_s: wall-clock time the stall began.
    duration_s: stall length in seconds.
    """

    cause: str
    chunk_index: int
    start_time_s: float
    duration_s: float

    def __post_init__(self) -> None:
        require(
            self.cause in (STALL_REBUFFER, STALL_PROACTIVE, STALL_STARTUP),
            f"unknown stall cause {self.cause!r}",
        )
        require(self.chunk_index >= 0, "chunk_index must be >= 0")
        require_non_negative(self.start_time_s, "start_time_s")
        require(self.duration_s > 0, "duration_s must be positive")


@dataclass
class SessionTimeline:
    """Chronological record of everything that happened in a session."""

    downloads: List[DownloadRecord] = field(default_factory=list)
    stalls: List[StallEvent] = field(default_factory=list)

    def add_download(self, record: DownloadRecord) -> None:
        """Append a download record."""
        self.downloads.append(record)

    def add_stall(self, event: StallEvent) -> None:
        """Append a stall event."""
        self.stalls.append(event)

    def total_stall_s(self, include_startup: bool = False) -> float:
        """Total stall time, optionally including the startup delay."""
        total = 0.0
        for stall in self.stalls:
            if stall.cause == STALL_STARTUP and not include_startup:
                continue
            total += stall.duration_s
        return total

    def rebuffer_count(self) -> int:
        """Number of involuntary (buffer-empty) rebuffering events."""
        return sum(1 for s in self.stalls if s.cause == STALL_REBUFFER)

    def proactive_stall_count(self) -> int:
        """Number of SENSEI-style proactive stalls."""
        return sum(1 for s in self.stalls if s.cause == STALL_PROACTIVE)

    def measured_throughputs_mbps(self) -> List[float]:
        """Throughput measurement per downloaded chunk, in order."""
        return [d.throughput_mbps for d in self.downloads]


def _identity(value):
    """Module-level identity (pickle target for :class:`LazySessionTimeline`)."""
    return value


class LazySessionTimeline:
    """A :class:`SessionTimeline` materialised on first access.

    The SoA lockstep engine accumulates per-chunk download data as arrays;
    most consumers (grid sweeps, QoE scoring) only ever read the rendered
    video, so building the thousands of per-chunk :class:`DownloadRecord`
    objects eagerly would be wasted work on the hot path.  This wrapper
    holds the session's columns instead — ``levels`` (one int per chunk),
    ``records`` (float64, rows: size, start, duration, throughput, buffer
    before/after) and the stall entries as ``(cause, chunk_index,
    start_time_s, duration_s)`` tuples — and builds the real timeline from
    them on first attribute or method access, delegating to it from then
    on, so observable values are exactly those of the eager timeline.
    Pickling and deep copies send the columns, so the copy stays
    unmaterialised; an already materialised timeline pickles as its plain
    :class:`SessionTimeline`, so records added to it survive the trip.
    """

    __slots__ = ("_columns", "_timeline")

    def __init__(self, levels, records, stalls) -> None:
        object.__setattr__(self, "_columns", (levels, records, stalls))
        object.__setattr__(self, "_timeline", None)

    def _materialise(self) -> SessionTimeline:
        timeline = object.__getattribute__(self, "_timeline")
        if timeline is None:
            levels, records, stalls = object.__getattribute__(self, "_columns")
            # Field order of the columns is the records' field order.
            timeline = SessionTimeline(
                downloads=[
                    DownloadRecord(chunk, *fields)
                    for chunk, fields in enumerate(
                        zip(levels.tolist(), *records.tolist())
                    )
                ],
                stalls=[StallEvent(*entry) for entry in stalls],
            )
            object.__setattr__(self, "_timeline", timeline)
            object.__setattr__(self, "_columns", None)
        return timeline

    def __getattr__(self, name: str):
        # Only reached for names not in __slots__: delegate everything the
        # timeline interface exposes (downloads, stalls, methods, ...).
        return getattr(self._materialise(), name)

    def __reduce__(self):
        timeline = object.__getattribute__(self, "_timeline")
        if timeline is not None:
            return (_identity, (timeline,))
        return (LazySessionTimeline, object.__getattribute__(self, "_columns"))
