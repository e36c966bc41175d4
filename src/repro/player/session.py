"""The streaming session: the control loop of a DASH-style player.

The session downloads chunks one at a time.  Before each download it builds
a :class:`~repro.abr.base.PlayerObservation` and asks the ABR algorithm for
a :class:`~repro.abr.base.Decision`.  Playback drains the buffer in real
time during downloads; when the buffer runs dry the player rebuffers; when
the ABR algorithm schedules a *proactive stall* (SENSEI's new action, §5.1),
playback pauses for that long even though the buffer is not empty, letting
the buffer grow so that upcoming high-sensitivity chunks can be fetched at a
higher bitrate without risking an involuntary stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.network.trace import ThroughputTrace
from repro.player.buffer import PlaybackBuffer
from repro.player.events import (
    STALL_PROACTIVE,
    STALL_REBUFFER,
    STALL_STARTUP,
    DownloadRecord,
    SessionTimeline,
    StallEvent,
)
from repro.utils.validation import require, require_positive
from repro.video.encoder import EncodedVideo
from repro.video.rendering import RenderedVideo

#: Floor for download durations when computing measured throughput; a trace
#: that yields a ~0 s download must not produce an infinite throughput
#: sample (or a division-by-zero) in the download record.
MIN_DOWNLOAD_DURATION_S = 1e-9

#: Threshold below which residual playback time/buffer is treated as zero
#: by the playback-advance loop (shared verbatim by the scalar path here
#: and the SoA path in :mod:`repro.player.shard`).
PLAYBACK_EPSILON_S = 1e-9


def observation_from_precompute(
    *,
    precompute: "SessionPrecompute",
    config: SessionConfig,
    chunk_weights: np.ndarray,
    chunk_index: int,
    buffer_s: float,
    last_level: int,
    throughput: np.ndarray,
    download_times: np.ndarray,
) -> PlayerObservation:
    """The per-chunk observation served from precomputed matrices.

    Shared by :class:`SessionState` (scalar stepping) and
    :class:`~repro.player.shard.ShardState` (SoA stepping) so both paths
    build observations with the exact same code — upcoming sizes/quality as
    zero-copy slices, histories already trimmed to ``history_length``.
    """
    encoded = precompute.encoded
    horizon = min(config.observation_horizon, encoded.num_chunks - chunk_index)
    sizes, quality = precompute.upcoming(chunk_index, horizon)
    weights = chunk_weights[chunk_index : chunk_index + horizon].copy()
    return PlayerObservation(
        chunk_index=chunk_index,
        num_chunks=encoded.num_chunks,
        buffer_s=buffer_s,
        last_level=last_level,
        throughput_history_mbps=throughput,
        download_time_history_s=download_times,
        upcoming_sizes_bytes=sizes,
        upcoming_quality=quality,
        upcoming_weights=weights,
        chunk_duration_s=encoded.chunk_duration_s,
        ladder=encoded.ladder,
        buffer_capacity_s=config.buffer_capacity_s,
    )


@dataclass(frozen=True)
class SessionConfig:
    """Player configuration.

    Attributes
    ----------
    buffer_capacity_s:
        Maximum buffer occupancy; downloads pause when it would be exceeded.
    observation_horizon:
        How many upcoming chunks the observation describes (h = 5 in §5.1).
    history_length:
        How many past throughput samples the observation carries.
    """

    buffer_capacity_s: float = 60.0
    observation_horizon: int = 5
    history_length: int = 8

    def __post_init__(self) -> None:
        require_positive(self.buffer_capacity_s, "buffer_capacity_s")
        require(self.observation_horizon >= 1, "observation_horizon must be >= 1")
        require(self.history_length >= 1, "history_length must be >= 1")


@dataclass
class StreamResult:
    """Everything a finished session produced.

    Attributes
    ----------
    rendered:
        The resulting :class:`~repro.video.rendering.RenderedVideo`: per-chunk
        levels, per-chunk stall time and startup delay.  This is what QoE
        models score and what simulated raters watch.
    timeline:
        Chronological download/stall records.
    total_bytes:
        Bytes downloaded across the session.
    session_duration_s:
        Wall-clock time from the first request to the end of playback.
    abr_name:
        Name of the ABR algorithm that drove the session.
    trace_name:
        Name of the throughput trace.
    """

    rendered: RenderedVideo
    timeline: SessionTimeline
    total_bytes: float
    session_duration_s: float
    abr_name: str = ""
    trace_name: str = ""

    @property
    def startup_delay_s(self) -> float:
        """Startup (join) delay in seconds."""
        return self.rendered.startup_delay_s

    @property
    def total_stall_s(self) -> float:
        """Total mid-stream stall time in seconds."""
        return self.rendered.total_stall_s()

    @property
    def average_bitrate_kbps(self) -> float:
        """Mean played bitrate."""
        return self.rendered.average_bitrate_kbps()

    def bandwidth_usage_mbps(self) -> float:
        """Average download rate over the session (bandwidth footprint)."""
        if self.session_duration_s <= 0:
            return 0.0
        return self.total_bytes * 8.0 / 1e6 / self.session_duration_s


class SessionState:
    """The mutable state of one in-flight streaming session.

    Extracted from :meth:`StreamingSession.run` so that two drivers can step
    it with the *same* code — and therefore the same floating-point
    operation sequence:

    * :class:`StreamingSession` steps one state to completion in a loop
      (observe → ABR decide → apply) — the serial reference run;
    * the decision service (:mod:`repro.service`) steps one state per
      registered session, one request at a time.  (The lockstep engine
      steps sessions as arrays: :class:`~repro.player.shard.ShardState`.)

    The protocol is ``observe()`` → ``apply(decision)`` once per chunk (in
    chunk order) until :attr:`done`, then ``finalize()`` for the
    :class:`StreamResult`.
    """

    def __init__(
        self,
        encoded: EncodedVideo,
        trace: ThroughputTrace,
        config: SessionConfig,
        chunk_weights: np.ndarray,
        precompute: "SessionPrecompute",
    ) -> None:
        # Imported lazily: repro.engine depends on the player package.
        from repro.engine.precompute import HistoryRing

        self.encoded = encoded
        self.trace = trace
        self.config = config
        self.chunk_weights = chunk_weights
        self.precompute = precompute
        self.num_chunks = encoded.num_chunks
        self.chunk_duration = encoded.chunk_duration_s

        self.buffer = PlaybackBuffer(capacity_s=config.buffer_capacity_s)
        self.timeline = SessionTimeline()
        self.levels = np.zeros(self.num_chunks, dtype=int)
        self.stalls = np.zeros(self.num_chunks)
        self.throughput_history = HistoryRing(config.history_length)
        self.download_time_history = HistoryRing(config.history_length)

        self.wall_time = 0.0
        self.played_s = 0.0
        self.startup_delay = 0.0
        self.pending_proactive_s = 0.0
        self.total_bytes = 0.0
        self.playback_started = False
        self.next_chunk = 0

    @property
    def done(self) -> bool:
        """True once every chunk has been downloaded."""
        return self.next_chunk >= self.num_chunks

    @property
    def chunk_index(self) -> int:
        """Index of the chunk the next observe/apply pair concerns."""
        return self.next_chunk

    def observe(self) -> PlayerObservation:
        """The observation for the chunk about to be downloaded.

        Sliced views of the per-video matrices; the ring buffers already
        hold exactly the last ``history_length`` samples.
        """
        return observation_from_precompute(
            precompute=self.precompute,
            config=self.config,
            chunk_weights=self.chunk_weights,
            chunk_index=self.next_chunk,
            buffer_s=self.buffer.level_s,
            last_level=self.last_level,
            throughput=self.throughput_history.as_array(),
            download_times=self.download_time_history.as_array(),
        )

    @property
    def last_level(self) -> int:
        """Level of the previously downloaded chunk (-1 before the first)."""
        return int(self.levels[self.next_chunk - 1]) if self.next_chunk > 0 else -1

    def apply(self, decision: Decision) -> None:
        """Download the next chunk at the decided level and advance playback."""
        chunk_index = self.next_chunk
        encoded = self.encoded
        # Inlined ABRAlgorithm.clamp_level — this runs once per chunk of
        # every session of a sweep.
        level = min(max(int(decision.level), 0), encoded.ladder.num_levels - 1)
        self.levels[chunk_index] = level
        if decision.proactive_stall_s > 0:
            self.pending_proactive_s += float(decision.proactive_stall_s)

        size_bytes = self.precompute.chunk_size_bytes(chunk_index, level)
        download_s = self.trace.download_time_s(size_bytes, self.wall_time)
        # Clamp: a degenerate trace may deliver the chunk in ~0 s, and the
        # measured-throughput division must stay finite.
        download_s = max(download_s, MIN_DOWNLOAD_DURATION_S)
        buffer_before = self.buffer.level_s
        download_start = self.wall_time
        self.total_bytes += size_bytes

        if not self.playback_started:
            # Startup: the buffer cannot drain before playback begins.
            self.wall_time += download_s
            self.startup_delay += download_s
            self.buffer.add_chunk(self.chunk_duration)
            self.playback_started = True
            self.timeline.add_stall(
                StallEvent(
                    cause=STALL_STARTUP,
                    chunk_index=0,
                    start_time_s=download_start,
                    duration_s=download_s,
                )
            )
        else:
            self._advance_playback(download_s)
            overshoot = self.buffer.add_chunk(self.chunk_duration)
            if overshoot > 0:
                # Buffer full: wait until there is room again.  Playback
                # continues during the wait (it cannot stall: the buffer
                # is by definition non-empty), so exactly ``overshoot``
                # seconds drain and the level returns to capacity.
                drained = self.buffer.drain(overshoot)
                self.played_s += drained
                self.wall_time += overshoot

        measured_mbps = size_bytes * 8.0 / 1e6 / download_s
        self.timeline.add_download(
            DownloadRecord(
                chunk_index=chunk_index,
                level=level,
                size_bytes=size_bytes,
                start_time_s=download_start,
                duration_s=download_s,
                throughput_mbps=measured_mbps,
                buffer_before_s=buffer_before,
                buffer_after_s=self.buffer.level_s,
            )
        )
        self.throughput_history.append(measured_mbps)
        self.download_time_history.append(download_s)
        self.next_chunk = chunk_index + 1

    def finalize(self, abr_name: str = "", trace_name: str = "") -> StreamResult:
        """Play out the remaining buffer and assemble the result."""
        require(self.done, "finalize() before every chunk was downloaded")
        # Any proactive stall still pending applies before the remaining
        # buffered media plays out.
        if self.pending_proactive_s > 0:
            next_chunk = min(
                self.num_chunks - 1,
                int(self.played_s / self.chunk_duration + 1e-9),
            )
            self.stalls[next_chunk] += self.pending_proactive_s
            self.timeline.add_stall(
                StallEvent(
                    cause=STALL_PROACTIVE,
                    chunk_index=next_chunk,
                    start_time_s=self.wall_time,
                    duration_s=self.pending_proactive_s,
                )
            )
            self.wall_time += self.pending_proactive_s
            self.pending_proactive_s = 0.0

        # Remaining buffer plays out with no possible stalls.
        remaining = self.buffer.level_s
        self.wall_time += remaining
        self.played_s += remaining
        self.buffer.reset()

        rendered = RenderedVideo(
            encoded=self.encoded,
            levels=self.levels,
            stalls_s=self.stalls,
            startup_delay_s=self.startup_delay,
            render_id=(
                f"{self.encoded.source.video_id}/{abr_name}/{trace_name}"
            ),
        )
        return StreamResult(
            rendered=rendered,
            timeline=self.timeline,
            total_bytes=self.total_bytes,
            session_duration_s=self.wall_time,
            abr_name=abr_name,
            trace_name=trace_name,
        )

    # ------------------------------------------------------------ internals

    def _advance_playback(self, elapsed_s: float) -> None:
        """Advance wall-clock time by ``elapsed_s`` while playback runs.

        Handles, in order: pending proactive stalls (playback paused, buffer
        preserved), normal draining, and involuntary rebuffering when the
        buffer empties.
        """
        remaining = elapsed_s
        while remaining > PLAYBACK_EPSILON_S:
            next_chunk = min(
                self.num_chunks - 1,
                int(self.played_s / self.chunk_duration + 1e-9),
            )
            if self.pending_proactive_s > PLAYBACK_EPSILON_S:
                pause = min(self.pending_proactive_s, remaining)
                self.stalls[next_chunk] += pause
                self.timeline.add_stall(
                    StallEvent(
                        cause=STALL_PROACTIVE,
                        chunk_index=next_chunk,
                        start_time_s=self.wall_time,
                        duration_s=pause,
                    )
                )
                self.pending_proactive_s -= pause
                remaining -= pause
                self.wall_time += pause
                continue
            if self.buffer.is_empty:
                self.stalls[next_chunk] += remaining
                self.timeline.add_stall(
                    StallEvent(
                        cause=STALL_REBUFFER,
                        chunk_index=next_chunk,
                        start_time_s=self.wall_time,
                        duration_s=remaining,
                    )
                )
                self.wall_time += remaining
                remaining = 0.0
                continue
            drained = self.buffer.drain(remaining)
            self.played_s += drained
            self.wall_time += drained
            remaining -= drained


class StreamingSession:
    """Runs one ABR algorithm over one encoded video and one trace.

    Per-chunk observations are served as slices of the video's cached
    :class:`~repro.engine.precompute.SessionPrecompute` matrices (built
    here unless one is supplied), throughput histories live in fixed ring
    buffers, and downloads go through the indexed trace integrator
    (:meth:`ThroughputTrace.download_time_s`).
    """

    def __init__(
        self,
        encoded: EncodedVideo,
        trace: ThroughputTrace,
        abr: ABRAlgorithm,
        config: Optional[SessionConfig] = None,
        chunk_weights: Optional[np.ndarray] = None,
        precompute: Optional["SessionPrecompute"] = None,
    ) -> None:
        self.encoded = encoded
        self.trace = trace
        self.abr = abr
        self.config = config if config is not None else SessionConfig()
        if chunk_weights is None:
            chunk_weights = np.ones(encoded.num_chunks)
        chunk_weights = np.asarray(chunk_weights, dtype=float)
        require(
            chunk_weights.shape == (encoded.num_chunks,),
            "chunk_weights must have one entry per chunk",
        )
        require(bool(np.all(chunk_weights > 0)), "chunk weights must be positive")
        self.chunk_weights = chunk_weights
        require(
            precompute is None or precompute.encoded is encoded,
            "precompute belongs to a different encoded video",
        )
        if precompute is None:
            # Imported lazily: repro.engine depends on the player package.
            from repro.engine.precompute import SessionPrecompute

            precompute = SessionPrecompute.of(encoded)
        self.precompute = precompute

    # ------------------------------------------------------------------ run

    def make_state(self) -> SessionState:
        """A fresh :class:`SessionState` for this session's parameters.

        Used by the lockstep engine to step many sessions in parallel with
        the exact state-evolution code :meth:`run` uses.
        """
        return SessionState(
            encoded=self.encoded,
            trace=self.trace,
            config=self.config,
            chunk_weights=self.chunk_weights,
            precompute=self.precompute,
        )

    def run(self) -> StreamResult:
        """Execute the session and return its :class:`StreamResult`."""
        self.abr.reset()
        state = self.make_state()
        while not state.done:
            decision = self.abr.decide(state.observe())
            state.apply(decision)
        return state.finalize(abr_name=self.abr.name, trace_name=self.trace.name)
