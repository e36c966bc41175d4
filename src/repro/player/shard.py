"""Structure-of-arrays player stepping for a shard of lockstep sessions.

:class:`ShardState` is the SoA counterpart of
:class:`~repro.player.session.SessionState`: built from a shard's work
orders (:class:`~repro.engine.runner.WorkOrder`), it holds one array slot
per order for every scalar the session control loop mutates (wall clock,
buffer level, played seconds, pending proactive stall, …), advanced for
the whole shard with numpy elementwise operations instead of a
per-session Python loop.

Bit-identity with the scalar path is a hard contract (enforced by the
golden-master fixtures, the hypothesis suite, and the differential fuzz in
``tests/test_lockstep.py``) and rests on three facts:

* elementwise IEEE-754 float64 arithmetic is independent of array shape, so
  adding sessions to an array cannot change any session's values;
* the scalar ``_advance_playback`` while-loop executes at most one pass of
  each kind per chunk step — proactive pause, then either an empty-buffer
  rebuffer or a drain, then (only if the drain ran the buffer dry) a final
  rebuffer — because each pass either exhausts ``remaining`` exactly
  (``x - x == 0.0``) or zeroes the quantity that would trigger it again.
  :meth:`ShardState.step` therefore replays the loop as a fixed sequence of
  masked passes, each applying the same operations to the same operands in
  the same order as the scalar loop iteration it mirrors;
* batched downloads go through
  :meth:`~repro.network.trace.ThroughputTrace.download_times_batch`, the
  elementwise mirror of the scalar integrator.

All sessions of a shard advance chunk-step by chunk-step together, so every
live session is always at the same ``next_chunk``; sessions whose video has
fewer chunks simply leave the live set early (ragged completion), and their
array rows are never touched again.

Timeline records are accumulated as arrays (downloads) and per-session
tuple lists (stall events — rare, appended via the masked passes);
:meth:`~ShardState.finalize` hands a row's columns to a
:class:`~repro.player.events.LazySessionTimeline`, which builds the seed's
record objects from them only if they are read.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.precompute import HistoryMatrix
from repro.obs.trace import TRACE, record_span
from repro.player.events import (
    STALL_PROACTIVE,
    STALL_REBUFFER,
    STALL_STARTUP,
    LazySessionTimeline,
)
from repro.player.session import (
    MIN_DOWNLOAD_DURATION_S,
    PLAYBACK_EPSILON_S,
    StreamResult,
    observation_from_precompute,
)
from repro.utils.validation import require
from repro.video.rendering import RenderedVideo

#: The buffer-empty threshold (mirrors ``PlaybackBuffer.is_empty``).
_BUFFER_EMPTY_S = 1e-9


class ShardState:
    """SoA state of a shard of streaming sessions sharing one config.

    One row per :class:`~repro.engine.runner.WorkOrder` of the shard.  The
    protocol mirrors the scalar state machine, batched: call :meth:`step`
    once per chunk step with the live rows and their decided (level,
    proactive stall) arrays until :attr:`live_rows` is empty, then
    :meth:`finalize` each row for its :class:`StreamResult`.
    """

    def __init__(self, orders: Sequence["WorkOrder"]) -> None:
        require(len(orders) >= 1, "a shard needs at least one session")
        config = orders[0].config
        require(
            all(order.config == config for order in orders),
            "shard sessions must share one player config",
        )
        n = len(orders)
        self.num_sessions = n
        self.config = config
        self.encoded = [order.encoded for order in orders]
        self.traces = [order.trace for order in orders]
        self.precomputes = [order.precompute for order in orders]
        self.chunk_weights = [order.chunk_weights for order in orders]
        self.num_chunks = np.array(
            [encoded.num_chunks for encoded in self.encoded], dtype=int
        )
        self.num_levels = np.array(
            [encoded.ladder.num_levels for encoded in self.encoded], dtype=int
        )
        self.chunk_duration = np.array(
            [encoded.chunk_duration_s for encoded in self.encoded]
        )
        # A shared scalar (when every video agrees) keeps planner kernel
        # broadcasts on the fast ufunc path.
        self.chunk_duration_shared = (
            float(self.chunk_duration[0])
            if bool(np.all(self.chunk_duration == self.chunk_duration[0]))
            else None
        )
        self.buffer_capacity = config.buffer_capacity_s
        # Per-row ladders for the planner: candidate trees are grouped by
        # ladder key and scored against the ladder's bitrates.
        self.bitrates = [
            np.asarray(encoded.ladder.bitrates_kbps, dtype=float)
            for encoded in self.encoded
        ]
        self.ladder_keys = [tuple(rates.tolist()) for rates in self.bitrates]
        self.max_chunks = int(self.num_chunks.max())

        # One (video, chunk, level) size table per distinct video, zero-padded
        # on both the chunk axis (shorter videos) and the level axis
        # (narrower ladders); ``video_of`` maps each row to its table.
        # Readers gather ``sizes_all[video_of[rows], chunk, level]`` and only
        # ever read (current chunk, own-ladder level), which is always in
        # the filled region, so the padded values match nothing the scalar
        # path could read.
        videos: dict = {}
        for precompute in self.precomputes:
            videos.setdefault(id(precompute), (len(videos), precompute))
        self.video_of = np.array(
            [videos[id(precompute)][0] for precompute in self.precomputes],
            dtype=int,
        )
        self.video_precomputes = [
            precompute for _, precompute in videos.values()
        ]
        max_levels = int(self.num_levels.max())
        self.sizes_all = np.zeros((len(videos), self.max_chunks, max_levels))
        for video, precompute in enumerate(self.video_precomputes):
            self.sizes_all[
                video, : precompute.num_chunks, : precompute.num_levels
            ] = precompute.sizes_bytes
        self._quality_all: Optional[np.ndarray] = None
        self._weights_all: Optional[np.ndarray] = None

        # Downloads of a chunk step are dispatched per *trace*: sessions
        # sharing a trace (grid sweeps stream many videos over the same
        # trace bank) resolve their download times in one batched integral.
        groups: dict = {}
        for index, trace in enumerate(self.traces):
            groups.setdefault(id(trace), (trace, []))[1].append(index)
        self.trace_groups = [
            (trace, np.array(rows, dtype=int)) for trace, rows in groups.values()
        ]

        # Dynamic per-session state (the SessionState scalars, as arrays).
        self.step_index = 0
        self.wall_time = np.zeros(n)
        self.played_s = np.zeros(n)
        self.startup_delay = np.zeros(n)
        self.pending_proactive = np.zeros(n)
        self.total_bytes = np.zeros(n)
        self.buffer_s = np.zeros(n)
        self.levels = np.zeros((n, self.max_chunks), dtype=int)
        self.stalls = np.zeros((n, self.max_chunks))

        # Deferred download records, one column per chunk step.  Sizes and
        # throughputs are not stored: ``finalize`` rebuilds them from
        # ``levels``, ``sizes_all`` and ``rec_duration``.  Neither is the
        # buffer before each download: ``buffer_s`` changes only in
        # ``step``, so it is the previous chunk's buffer after (0 at chunk 0).
        self.rec_start = np.zeros((n, self.max_chunks))
        self.rec_duration = np.zeros((n, self.max_chunks))
        self.rec_buffer_after = np.zeros((n, self.max_chunks))
        # Stall events, (cause, chunk_index, start_s, duration_s) per entry.
        self.stall_records: List[List[Tuple[str, int, float, float]]] = [
            [] for _ in range(n)
        ]

        history_length = config.history_length
        self.throughput_history = HistoryMatrix(n, history_length)
        self.download_time_history = HistoryMatrix(n, history_length)

    # ------------------------------------------------------------- queries

    @property
    def quality_all(self) -> np.ndarray:
        """(video, chunk, level) quality matrix, indexed and padded like
        :attr:`sizes_all`; built on first use (only planner drivers read
        it) and shared by every driver of the shard."""
        if self._quality_all is None:
            self._quality_all = np.zeros_like(self.sizes_all)
            for video, precompute in enumerate(self.video_precomputes):
                self._quality_all[
                    video, : precompute.num_chunks, : precompute.num_levels
                ] = precompute.quality
        return self._quality_all

    @property
    def weights_all(self) -> np.ndarray:
        """(session, chunk) sensitivity weights, zero-padded past each
        video's end; built on first use and shared across drivers."""
        if self._weights_all is None:
            self._weights_all = np.zeros((self.num_sessions, self.max_chunks))
            for index, weights in enumerate(self.chunk_weights):
                self._weights_all[index, : weights.size] = weights
        return self._weights_all

    @property
    def live_rows(self) -> np.ndarray:
        """Rows still streaming: every session whose video has more chunks
        than the shard has stepped (all rows advance in unison)."""
        return np.flatnonzero(self.num_chunks > self.step_index)

    def last_levels(self, rows: np.ndarray) -> np.ndarray:
        """Previously played level per row (-1 before the first chunk)."""
        if self.step_index == 0:
            return np.full(rows.size, -1, dtype=int)
        return self.levels[rows, self.step_index - 1]

    def observe(self, row: int):
        """The scalar observation for one row — identical to the
        :class:`SessionState` observation of the same session history."""
        if self.step_index == 0:
            last_level = -1
        else:
            last_level = int(self.levels[row, self.step_index - 1])
        return observation_from_precompute(
            precompute=self.precomputes[row],
            config=self.config,
            chunk_weights=self.chunk_weights[row],
            chunk_index=self.step_index,
            buffer_s=float(self.buffer_s[row]),
            last_level=last_level,
            throughput=self.throughput_history.row(row),
            download_times=self.download_time_history.row(row),
        )

    # -------------------------------------------------------------- stepping

    def step(
        self,
        rows: np.ndarray,
        levels: np.ndarray,
        proactive_stall_s: np.ndarray,
    ) -> None:
        """Advance every ``rows`` session by one chunk (SoA ``apply``).

        ``rows`` must be exactly :attr:`live_rows` (ascending); ``levels``
        and ``proactive_stall_s`` align with it.
        """
        # Manual span timing (hot path, no context-manager allocation);
        # single exit at the bottom of the method, so no try/finally.
        if TRACE.enabled:
            _span_t0 = perf_counter()

        chunk = self.step_index
        levels = np.minimum(
            np.maximum(levels, 0), self.num_levels[rows] - 1
        )
        self.levels[rows, chunk] = levels
        scheduled = proactive_stall_s > 0
        if np.any(scheduled):
            self.pending_proactive[rows[scheduled]] += proactive_stall_s[
                scheduled
            ]

        sizes = self.sizes_all[self.video_of[rows], chunk, levels]
        starts = self.wall_time[rows]
        downloads = np.empty(rows.size)
        if len(self.trace_groups) == 1:
            trace, _ = self.trace_groups[0]
            downloads[:] = trace._download_times_batch_unchecked(sizes, starts)
        else:
            for trace, members in self.trace_groups:
                active = members[self.num_chunks[members] > chunk]
                if not active.size:
                    continue
                positions = np.searchsorted(rows, active)
                downloads[positions] = trace._download_times_batch_unchecked(
                    sizes[positions], starts[positions]
                )
        np.maximum(downloads, MIN_DOWNLOAD_DURATION_S, out=downloads)

        self.total_bytes[rows] += sizes

        if chunk == 0:
            # Startup: every session starts together, the buffer cannot
            # drain before playback begins.
            self.wall_time[rows] = starts + downloads
            self.startup_delay[rows] += downloads
            self.buffer_s[rows] += self.chunk_duration[rows]
            records = self.stall_records
            for position, row in enumerate(rows):
                records[row].append(
                    (
                        STALL_STARTUP,
                        0,
                        float(starts[position]),
                        float(downloads[position]),
                    )
                )
        else:
            self._advance_playback_batch(rows, downloads)
            # Chunk lands in the buffer; an overshoot past capacity plays
            # out (it cannot stall) while the download slot waits.
            buffer = self.buffer_s[rows]
            buffer += self.chunk_duration[rows]
            overshoot = buffer - self.buffer_capacity
            over = np.flatnonzero(overshoot > 0)
            if over.size:
                buffer[over] -= overshoot[over]
                self.played_s[rows[over]] += overshoot[over]
                self.wall_time[rows[over]] += overshoot[over]
            self.buffer_s[rows] = buffer

        throughput = sizes * 8.0 / 1e6 / downloads
        self.rec_start[rows, chunk] = starts
        self.rec_duration[rows, chunk] = downloads
        self.rec_buffer_after[rows, chunk] = self.buffer_s[rows]
        self.throughput_history.push_column(rows, throughput)
        self.download_time_history.push_column(rows, downloads)
        self.step_index = chunk + 1

        if TRACE.enabled:
            record_span("player.step", perf_counter() - _span_t0)

    def _advance_playback_batch(
        self, rows: np.ndarray, elapsed_s: np.ndarray
    ) -> None:
        """The scalar ``_advance_playback`` loop as fixed masked passes.

        Pass order per chunk step (each at most once — see the module
        docstring): proactive pause, pre-drain rebuffer (buffer already
        empty), drain, post-drain rebuffer (drain ran the buffer dry).
        Masked rows receive exactly the scalar loop's operations on exactly
        the scalar loop's operands; unmasked rows are untouched.
        """
        remaining = elapsed_s.copy()
        pending = self.pending_proactive[rows]
        buffer = self.buffer_s[rows]
        played = self.played_s[rows]
        wall = self.wall_time[rows].copy()
        durations = self.chunk_duration[rows]
        last_chunk = self.num_chunks[rows] - 1
        records = self.stall_records

        active = remaining > PLAYBACK_EPSILON_S
        pausing = np.flatnonzero(active & (pending > PLAYBACK_EPSILON_S))
        if pausing.size:
            stall_chunks = self._stall_chunks(played, durations, last_chunk)
            pauses = np.minimum(pending[pausing], remaining[pausing])
            self.stalls[rows[pausing], stall_chunks[pausing]] += pauses
            for offset, position in enumerate(pausing):
                records[rows[position]].append(
                    (
                        STALL_PROACTIVE,
                        int(stall_chunks[position]),
                        float(wall[position]),
                        float(pauses[offset]),
                    )
                )
            pending[pausing] -= pauses
            remaining[pausing] -= pauses
            wall[pausing] += pauses

        active = remaining > PLAYBACK_EPSILON_S
        empty = buffer <= _BUFFER_EMPTY_S
        starved = np.flatnonzero(active & empty)
        if starved.size:
            stall_chunks = self._stall_chunks(played, durations, last_chunk)
            self.stalls[rows[starved], stall_chunks[starved]] += remaining[
                starved
            ]
            for position in starved:
                records[rows[position]].append(
                    (
                        STALL_REBUFFER,
                        int(stall_chunks[position]),
                        float(wall[position]),
                        float(remaining[position]),
                    )
                )
            wall[starved] += remaining[starved]
            remaining[starved] = 0.0

        draining = np.flatnonzero(active & ~empty)
        if draining.size:
            drained = np.minimum(buffer[draining], remaining[draining])
            buffer[draining] -= drained
            played[draining] += drained
            wall[draining] += drained
            remaining[draining] -= drained

        # Only a drained row can still have time left, and its buffer is
        # then exactly 0.0 (the drain was the full buffer level).
        starved = np.flatnonzero(remaining > PLAYBACK_EPSILON_S)
        if starved.size:
            stall_chunks = self._stall_chunks(played, durations, last_chunk)
            self.stalls[rows[starved], stall_chunks[starved]] += remaining[
                starved
            ]
            for position in starved:
                records[rows[position]].append(
                    (
                        STALL_REBUFFER,
                        int(stall_chunks[position]),
                        float(wall[position]),
                        float(remaining[position]),
                    )
                )
            wall[starved] += remaining[starved]
            remaining[starved] = 0.0

        self.pending_proactive[rows] = pending
        self.buffer_s[rows] = buffer
        self.played_s[rows] = played
        self.wall_time[rows] = wall

    @staticmethod
    def _stall_chunks(
        played: np.ndarray, durations: np.ndarray, last_chunk: np.ndarray
    ) -> np.ndarray:
        """The chunk a stall is charged to: the one about to play."""
        return np.minimum(
            last_chunk, (played / durations + 1e-9).astype(int)
        )

    # -------------------------------------------------------------- results

    def finalize(self, row: int, abr_name: str = "", trace_name: str = "") -> StreamResult:
        """Play out one finished row and assemble its :class:`StreamResult`.

        Scalar mirror of :meth:`SessionState.finalize`, applied to the
        row's slots (runs once per session, so scalar code is fine here).
        """
        num_chunks = int(self.num_chunks[row])
        require(
            self.step_index >= num_chunks,
            "finalize() before every chunk was downloaded",
        )
        wall = float(self.wall_time[row])
        played = float(self.played_s[row])
        pending = float(self.pending_proactive[row])
        duration = float(self.chunk_duration[row])
        stall_entries = list(self.stall_records[row])
        if pending > 0:
            next_chunk = min(num_chunks - 1, int(played / duration + 1e-9))
            self.stalls[row, next_chunk] += pending
            stall_entries.append((STALL_PROACTIVE, next_chunk, wall, pending))
            wall += pending
        remaining = float(self.buffer_s[row])
        wall += remaining

        # Most consumers only read the rendered video, so the per-chunk
        # record objects are built lazily — from row copies, not views of
        # the shard (the timeline must not pin the whole SoA state).  Sizes
        # and throughputs repeat ``step``'s float operations, so they are
        # bit-identical to the values it computed.
        levels = self.levels[row, :num_chunks]
        sizes = self.sizes_all[self.video_of[row], np.arange(num_chunks), levels]
        durations = self.rec_duration[row, :num_chunks]
        buffer_after = self.rec_buffer_after[row, :num_chunks]
        timeline = LazySessionTimeline(
            levels.copy(),
            np.stack((
                sizes,
                self.rec_start[row, :num_chunks],
                durations,
                sizes * 8.0 / 1e6 / durations,
                np.concatenate(([0.0], buffer_after[:-1])),
                buffer_after,
            )),
            stall_entries,
        )

        encoded = self.encoded[row]
        rendered = RenderedVideo(
            encoded=encoded,
            levels=levels.copy(),
            stalls_s=self.stalls[row, :num_chunks].copy(),
            startup_delay_s=float(self.startup_delay[row]),
            render_id=(
                f"{encoded.source.video_id}/{abr_name}/{trace_name}"
            ),
        )
        return StreamResult(
            rendered=rendered,
            timeline=timeline,
            total_bytes=float(self.total_bytes[row]),
            session_duration_s=wall,
            abr_name=abr_name,
            trace_name=trace_name,
        )
