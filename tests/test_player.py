"""Tests for the playback buffer, streaming session and DASH manifest."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.abr.base import ABRAlgorithm, Decision
from repro.abr.bba import BufferBasedABR
from repro.core.sensei_abr import SenseiFuguABR
from repro.engine.runner import BatchRunner, WorkOrder
from repro.network.bank import TraceBank
from repro.network.trace import ThroughputTrace
from repro.player.buffer import PlaybackBuffer
from repro.player.events import (
    STALL_PROACTIVE,
    STALL_REBUFFER,
    LazySessionTimeline,
    SessionTimeline,
    StallEvent,
)
from repro.player.manifest import SenseiManifest, manifest_from_xml, manifest_to_xml
from repro.player.session import SessionConfig, StreamingSession
from repro.player.simulator import simulate_many, simulate_session


class FixedLevelABR(ABRAlgorithm):
    """Always requests the same level (test helper)."""

    name = "fixed"

    def __init__(self, level: int, stall_at: int = -1, stall_s: float = 0.0):
        self.level = level
        self.stall_at = stall_at
        self.stall_s = stall_s

    def decide(self, observation):
        stall = self.stall_s if observation.chunk_index == self.stall_at else 0.0
        return Decision(level=self.level, proactive_stall_s=stall)


class TestPlaybackBuffer:
    def test_add_and_drain(self):
        buffer = PlaybackBuffer(capacity_s=20.0)
        assert buffer.add_chunk(4.0) == 0.0
        assert buffer.level_s == 4.0
        assert buffer.drain(1.5) == 1.5
        assert buffer.level_s == pytest.approx(2.5)

    def test_drain_more_than_available(self):
        buffer = PlaybackBuffer(capacity_s=20.0, level_s=2.0)
        assert buffer.drain(5.0) == 2.0
        assert buffer.is_empty

    def test_overshoot_reported(self):
        buffer = PlaybackBuffer(capacity_s=6.0, level_s=4.0)
        assert buffer.add_chunk(4.0) == pytest.approx(2.0)

    def test_headroom(self):
        buffer = PlaybackBuffer(capacity_s=10.0, level_s=4.0)
        assert buffer.headroom_s == 6.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PlaybackBuffer(capacity_s=0.0)
        with pytest.raises(ValueError):
            PlaybackBuffer(capacity_s=5.0, level_s=6.0)


class TestStreamingSession:
    def test_fast_network_top_rate_no_stalls(self, small_encoded):
        trace = ThroughputTrace.constant(20.0, duration_s=600.0)
        result = simulate_session(FixedLevelABR(4), small_encoded, trace)
        assert np.all(result.rendered.levels == 4)
        assert result.rendered.total_stall_s() == 0.0
        assert result.startup_delay_s > 0.0

    def test_slow_network_causes_stalls_at_high_bitrate(self, small_encoded, slow_trace):
        result = simulate_session(FixedLevelABR(4), small_encoded, slow_trace)
        assert result.rendered.total_stall_s() > 0.0

    def test_lowest_level_avoids_stalls_on_slow_network(self, small_encoded, slow_trace):
        result = simulate_session(FixedLevelABR(0), small_encoded, slow_trace)
        assert result.rendered.total_stall_s() == pytest.approx(0.0, abs=1e-6)

    def test_total_bytes_matches_rendering(self, small_encoded, constant_trace):
        result = simulate_session(FixedLevelABR(2), small_encoded, constant_trace)
        assert result.total_bytes == pytest.approx(result.rendered.total_bytes())

    def test_session_duration_covers_playback(self, small_encoded, constant_trace):
        result = simulate_session(FixedLevelABR(2), small_encoded, constant_trace)
        playback = small_encoded.num_chunks * small_encoded.chunk_duration_s
        assert result.session_duration_s >= playback

    def test_proactive_stall_recorded(self, small_encoded, constant_trace):
        abr = FixedLevelABR(1, stall_at=4, stall_s=2.0)
        result = simulate_session(abr, small_encoded, constant_trace)
        assert result.rendered.total_stall_s() == pytest.approx(2.0, abs=1e-6)
        assert result.timeline.proactive_stall_count() >= 1

    def test_proactive_stall_grows_buffer_relative_to_no_stall(
        self, small_encoded, constant_trace
    ):
        base = simulate_session(FixedLevelABR(2), small_encoded, constant_trace)
        stalled = simulate_session(
            FixedLevelABR(2, stall_at=3, stall_s=2.0), small_encoded, constant_trace
        )
        # Same downloads, but playback paused 2 s, so the session takes longer.
        assert stalled.session_duration_s >= base.session_duration_s + 1.9

    def test_throughput_measurements_recorded(self, small_encoded, constant_trace):
        result = simulate_session(FixedLevelABR(2), small_encoded, constant_trace)
        throughputs = result.timeline.measured_throughputs_mbps()
        assert len(throughputs) == small_encoded.num_chunks
        assert all(t > 0 for t in throughputs)

    def test_measured_throughput_close_to_trace(self, small_encoded, constant_trace):
        result = simulate_session(FixedLevelABR(3), small_encoded, constant_trace)
        mean_measured = np.mean(result.timeline.measured_throughputs_mbps())
        assert mean_measured == pytest.approx(2.0, rel=0.05)

    def test_buffer_capacity_respected(self, small_encoded):
        trace = ThroughputTrace.constant(50.0, duration_s=600.0)
        config = SessionConfig(buffer_capacity_s=12.0)
        session = StreamingSession(small_encoded, trace, FixedLevelABR(0), config=config)
        result = session.run()
        for record in result.timeline.downloads:
            assert record.buffer_after_s <= 12.0 + 1e-6

    def test_weights_validation(self, small_encoded, constant_trace):
        with pytest.raises(ValueError):
            StreamingSession(
                small_encoded, constant_trace, FixedLevelABR(0),
                chunk_weights=np.ones(3),
            )

    def test_bandwidth_usage_positive(self, small_encoded, constant_trace):
        result = simulate_session(FixedLevelABR(2), small_encoded, constant_trace)
        assert 0.0 < result.bandwidth_usage_mbps() < 20.0

    def test_simulate_many_grid(self, small_encoded, constant_trace, slow_trace):
        results = simulate_many(
            [BufferBasedABR()], [small_encoded], [constant_trace, slow_trace]
        )
        assert len(results) == 2
        names = {r[0] for r in results}
        assert names == {"BBA"}

    def test_zero_duration_download_does_not_divide_by_zero(self, small_encoded):
        """Regression: a trace yielding a ~0 s download must not produce an
        infinite (or crashing) throughput measurement."""

        class InstantTrace(ThroughputTrace):
            def download_time_s(self, size_bytes, start_time_s):
                return 0.0

        trace = InstantTrace(
            timestamps_s=np.array([0.0]),
            bandwidths_mbps=np.array([1.0]),
            name="instant",
        )
        result = simulate_session(FixedLevelABR(2), small_encoded, trace)
        throughputs = result.timeline.measured_throughputs_mbps()
        assert all(np.isfinite(throughputs))
        assert all(t > 0 for t in throughputs)
        assert all(
            record.duration_s > 0 for record in result.timeline.downloads
        )


def _is_materialised(timeline: LazySessionTimeline) -> bool:
    return object.__getattribute__(timeline, "_timeline") is not None


def _timeline_fields(timeline) -> list:
    """Every record field of a timeline, floats as ``float.hex``."""

    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return [
        [exact(getattr(record, name)) for name in record.__slots__]
        for record in [*timeline.downloads, *timeline.stalls]
    ]


class TestLazyTimelinePickle:
    """The process backend ships lockstep timelines back unmaterialised,
    as their per-chunk columns; the records built from them on the far
    side must be the eager serial records bit for bit."""

    @pytest.fixture(scope="class")
    def order(self, small_encoded):
        # A scarce trace and strongly contrasted weights make this SENSEI
        # session schedule proactive stalls *and* rebuffer.
        trace = TraceBank(num_traces=2, duration_s=300.0, seed=1209).traces()[0]
        return WorkOrder(
            abr=SenseiFuguABR(),
            encoded=small_encoded,
            trace=trace.scaled(0.45, name="scarce"),
            chunk_weights=np.where(
                np.arange(small_encoded.num_chunks) % 4 == 0, 3.0, 0.4
            ),
        )

    @pytest.fixture
    def lazy(self, order) -> LazySessionTimeline:
        [result] = BatchRunner(backend="lockstep").run_orders([order])
        assert isinstance(result.timeline, LazySessionTimeline)
        assert not _is_materialised(result.timeline)
        return result.timeline

    def test_pickle_keeps_columns_and_matches_serial(self, order, lazy):
        eager = order.run().timeline
        assert {STALL_PROACTIVE, STALL_REBUFFER} <= {
            stall.cause for stall in eager.stalls
        }
        payload = pickle.dumps(lazy)
        assert not _is_materialised(lazy)
        loaded = pickle.loads(payload)
        assert isinstance(loaded, LazySessionTimeline)
        assert not _is_materialised(loaded)
        materialised = pickle.loads(payload)
        fields = _timeline_fields(materialised)
        assert len(payload) < len(pickle.dumps(materialised))
        assert fields == _timeline_fields(eager)
        assert _timeline_fields(lazy) == fields

    def test_added_stall_survives_pickling(self, lazy):
        added = StallEvent(
            cause=STALL_PROACTIVE, chunk_index=1, start_time_s=1.5,
            duration_s=0.25,
        )
        lazy.add_stall(added)
        loaded = pickle.loads(pickle.dumps(lazy))
        assert isinstance(loaded, SessionTimeline)
        assert loaded.stalls[-1] == added
        assert _timeline_fields(loaded) == _timeline_fields(lazy)

    def test_deepcopy(self, lazy):
        duplicate = copy.deepcopy(lazy)
        assert _timeline_fields(duplicate) == _timeline_fields(lazy)
        duplicate.stalls.clear()
        assert lazy.stalls


class TestObservation:
    def test_observation_contents(self, small_encoded, constant_trace):
        captured = []

        class Spy(ABRAlgorithm):
            name = "spy"

            def decide(self, observation):
                captured.append(observation)
                return Decision(level=1)

        simulate_session(Spy(), small_encoded, constant_trace)
        assert len(captured) == small_encoded.num_chunks
        first = captured[0]
        assert first.chunk_index == 0
        assert first.last_level == -1
        assert first.throughput_history_mbps.size == 0
        assert first.upcoming_sizes_bytes.shape[1] == 5
        later = captured[5]
        assert later.last_level == 1
        assert later.throughput_history_mbps.size > 0
        assert later.horizon <= 5

    def test_horizon_truncated_at_video_end(self, small_encoded, constant_trace):
        captured = []

        class Spy(ABRAlgorithm):
            name = "spy"

            def decide(self, observation):
                captured.append(observation.horizon)
                return Decision(level=0)

        simulate_session(Spy(), small_encoded, constant_trace)
        assert captured[-1] == 1


class TestManifest:
    def test_from_encoded(self, small_encoded):
        manifest = SenseiManifest.from_encoded(small_encoded)
        assert manifest.num_chunks == small_encoded.num_chunks
        assert manifest.num_levels == 5
        assert np.allclose(manifest.weights, 1.0)

    def test_xml_roundtrip_preserves_weights(self, small_encoded):
        weights = np.linspace(0.5, 2.0, small_encoded.num_chunks)
        manifest = SenseiManifest.from_encoded(small_encoded, weights=weights)
        xml = manifest_to_xml(manifest)
        parsed = manifest_from_xml(xml)
        assert np.allclose(parsed.weights, weights, atol=1e-5)
        assert parsed.video_id == manifest.video_id

    def test_xml_roundtrip_preserves_sizes(self, small_encoded):
        manifest = SenseiManifest.from_encoded(small_encoded)
        parsed = manifest_from_xml(manifest_to_xml(manifest))
        # Sizes are serialised as whole bytes in the MPD, so allow rounding.
        assert np.allclose(
            parsed.segment_sizes_bytes, manifest.segment_sizes_bytes, atol=1.0
        )

    def test_xml_contains_sensei_extension(self, small_encoded):
        xml = manifest_to_xml(SenseiManifest.from_encoded(small_encoded))
        assert "sensei" in xml and "weights" in xml

    def test_ladder_reconstruction(self, small_encoded):
        manifest = SenseiManifest.from_encoded(small_encoded)
        assert manifest.ladder().num_levels == 5

    def test_rejects_misaligned_weights(self, small_encoded):
        with pytest.raises(ValueError):
            SenseiManifest.from_encoded(small_encoded, weights=[1.0, 2.0])
