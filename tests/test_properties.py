"""Property-based tests (hypothesis) on core invariants across the stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import Decision
from repro.core.weights import SensitivityProfile
from repro.network.trace import ThroughputTrace
from repro.engine.runner import WorkOrder
from repro.qoe.ground_truth import GroundTruthOracle
from repro.qoe.ksqi import KSQIModel
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.rendering import QualityIncident, inject_incident, render_pristine
from repro.video.video import SourceVideo

_ORACLE = GroundTruthOracle()
_KSQI = KSQIModel()


@st.composite
def encoded_videos(draw):
    """Small synthetic encoded videos across genres and lengths."""
    genre = draw(st.sampled_from(["sports", "gaming", "nature", "animation"]))
    num_chunks = draw(st.integers(4, 14))
    seed = draw(st.integers(0, 50))
    video = SourceVideo.synthesize(
        f"prop-{genre}-{seed}", genre,
        duration_s=num_chunks * 4.0, chunk_duration_s=4.0, seed=seed,
    )
    return SyntheticEncoder(seed=seed + 1).encode(video, DEFAULT_LADDER)


@st.composite
def renderings(draw):
    """Arbitrary renderings: random levels, a few stalls."""
    encoded = draw(encoded_videos())
    n = encoded.num_chunks
    levels = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n)
    )
    stall_chunk = draw(st.integers(0, n - 1))
    stall_s = draw(st.floats(0.0, 6.0))
    rendered = render_pristine(encoded)
    from dataclasses import replace
    stalls = np.zeros(n)
    stalls[stall_chunk] = stall_s
    return replace(rendered, levels=np.array(levels), stalls_s=stalls)


class TestOracleProperties:
    @given(renderings())
    @settings(max_examples=25, deadline=None)
    def test_true_qoe_in_unit_interval(self, rendered):
        assert 0.0 <= _ORACLE.true_qoe(rendered) <= 1.0

    @given(renderings(), st.floats(0.5, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_adding_a_stall_never_raises_qoe(self, rendered, extra_stall):
        chunk = rendered.num_chunks // 2
        degraded = inject_incident(
            rendered, QualityIncident.rebuffering(chunk, extra_stall)
        )
        assert _ORACLE.true_qoe(degraded) <= _ORACLE.true_qoe(rendered) + 1e-9

    @given(encoded_videos())
    @settings(max_examples=20, deadline=None)
    def test_pristine_is_best_rendering_of_its_video(self, encoded):
        pristine = render_pristine(encoded)
        degraded = inject_incident(pristine, QualityIncident.rebuffering(1, 2.0))
        dropped = inject_incident(pristine, QualityIncident.bitrate_drop(2, 0))
        best = _ORACLE.true_qoe(pristine)
        assert best >= _ORACLE.true_qoe(degraded)
        assert best >= _ORACLE.true_qoe(dropped)

    @given(encoded_videos())
    @settings(max_examples=20, deadline=None)
    def test_sensitivity_normalisation(self, encoded):
        sensitivity = _ORACLE.normalized_sensitivity(encoded.source)
        assert np.all(sensitivity > 0)
        assert np.mean(sensitivity) == pytest.approx(1.0)


class TestKSQIProperties:
    @given(renderings())
    @settings(max_examples=25, deadline=None)
    def test_score_in_unit_interval(self, rendered):
        assert 0.0 <= _KSQI.score(rendered) <= 1.0

    @given(renderings())
    @settings(max_examples=20, deadline=None)
    def test_uniform_weighting_matches_plain_score(self, rendered):
        weights = np.ones(rendered.num_chunks)
        assert _KSQI.weighted_score(rendered, weights) == pytest.approx(
            _KSQI.score(rendered)
        )


class TestProfileProperties:
    @given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_normalised_profile_mean_one(self, weights):
        profile = SensitivityProfile("v", np.array(weights)).normalized()
        assert np.mean(profile.weights) == pytest.approx(1.0)
        assert np.all(profile.weights > 0)

    @given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_serialisation_roundtrip(self, weights):
        profile = SensitivityProfile("v", np.array(weights))
        restored = SensitivityProfile.from_dict(profile.to_dict())
        assert np.allclose(restored.weights, profile.weights)


class TestSessionProperties:
    @given(
        encoded_videos(),
        st.floats(0.4, 8.0),
        st.integers(0, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_session_conserves_chunks_and_time(self, encoded, rate_mbps, level):
        from repro.abr.base import ABRAlgorithm

        class Fixed(ABRAlgorithm):
            name = "fixed"

            def decide(self, observation):
                return Decision(level=level)

        trace = ThroughputTrace.constant(rate_mbps, duration_s=4000.0)
        result = WorkOrder(Fixed(), encoded, trace).run()
        rendered = result.rendered
        # Every chunk was played at the requested level.
        assert np.all(rendered.levels == level)
        # Wall-clock time is at least playback plus stalls plus startup.
        minimum_duration = (
            encoded.num_chunks * encoded.chunk_duration_s
            + rendered.total_stall_s()
            + rendered.startup_delay_s
        )
        assert result.session_duration_s >= minimum_duration - 1e-6
        # Bytes downloaded match the rendered levels exactly.
        assert result.total_bytes == pytest.approx(rendered.total_bytes())

    @given(encoded_videos(), st.floats(0.3, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_lowest_level_never_stalls_when_rate_exceeds_lowest_rung(
        self, encoded, rate_mbps
    ):
        from repro.abr.base import ABRAlgorithm

        class Lowest(ABRAlgorithm):
            name = "lowest"

            def decide(self, observation):
                return Decision(level=0)

        trace = ThroughputTrace.constant(rate_mbps, duration_s=4000.0)
        result = WorkOrder(Lowest(), encoded, trace).run()
        max_chunk_rate_mbps = max(
            encoded.chunk_size_bytes(i, 0) * 8 / 1e6 / encoded.chunk_duration_s
            for i in range(encoded.num_chunks)
        )
        if rate_mbps >= max_chunk_rate_mbps * 1.05:
            assert result.rendered.total_stall_s() == pytest.approx(0.0, abs=1e-6)


# --------------------------------------------------------------------------
# Engine regression properties (PR 5): the batched trace integrator must be
# *bitwise* the scalar integrator, and SoA-stepped sessions must obey the
# player's conservation invariants.  See docs/TESTING.md.
# --------------------------------------------------------------------------


@st.composite
def throughput_traces(draw):
    """Traces of varied shapes: ragged spacings, spiky bandwidths, 1+ samples."""
    num_samples = draw(st.integers(1, 40))
    spacings = draw(
        st.lists(
            st.floats(0.05, 30.0, allow_nan=False, allow_infinity=False),
            min_size=max(0, num_samples - 1),
            max_size=max(0, num_samples - 1),
        )
    )
    timestamps = np.concatenate([[0.0], np.cumsum(spacings)])
    bandwidths = draw(
        st.lists(
            st.floats(0.001, 500.0, allow_nan=False, allow_infinity=False),
            min_size=num_samples,
            max_size=num_samples,
        )
    )
    return ThroughputTrace(
        timestamps_s=timestamps,
        bandwidths_mbps=np.array(bandwidths),
        name="prop-trace",
    )


class TestBatchedTraceIntegrator:
    @given(
        throughput_traces(),
        st.lists(st.floats(1.0, 5e8), min_size=1, max_size=24),
        st.lists(st.floats(0.0, 1e5), min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_bitwise_equals_scalar(self, trace, sizes, starts):
        """download_times_batch == per-call download_time_s, bit for bit."""
        count = min(len(sizes), len(starts))
        sizes_arr = np.asarray(sizes[:count])
        starts_arr = np.asarray(starts[:count])
        batch = trace.download_times_batch(sizes_arr, starts_arr)
        for index in range(count):
            scalar = trace.download_time_s(
                float(sizes_arr[index]), float(starts_arr[index])
            )
            assert batch[index] == scalar, (
                f"bitwise drift at index {index}: "
                f"batch={batch[index]!r} scalar={scalar!r} "
                f"(size={sizes_arr[index]!r}, start={starts_arr[index]!r})"
            )

    @given(throughput_traces(), st.floats(1.0, 5e8), st.floats(0.0, 1e5))
    @settings(max_examples=40, deadline=None)
    def test_download_time_positive_and_rate_bounded(self, trace, size, start):
        """The integral is positive and never beats the fastest segment."""
        elapsed = trace.download_time_s(size, start)
        assert elapsed > 0
        peak_rate = max(float(np.max(trace.bandwidths_mbps)), 0.01) * 1e6
        assert elapsed >= size * 8.0 / peak_rate - 1e-6


def _session_abrs():
    """A varied ABR pool: map-based, rule-based, and both planner families."""
    from repro.abr.bba import BufferBasedABR
    from repro.abr.fugu import FuguABR
    from repro.abr.rate import RateBasedABR
    from repro.core.sensei_abr import SenseiFuguABR

    return st.sampled_from(["bba", "rate", "fugu", "sensei"]).map(
        {
            "bba": BufferBasedABR,
            "rate": RateBasedABR,
            "fugu": FuguABR,
            "sensei": SenseiFuguABR,
        }.__getitem__
    )


@st.composite
def streamed_sessions(draw):
    """A finished streaming session over random video/trace/ABR/weights."""
    encoded = draw(encoded_videos())
    abr = draw(_session_abrs())()
    if draw(st.booleans()):
        trace = ThroughputTrace.constant(
            draw(st.floats(0.2, 6.0)), duration_s=2000.0
        )
    else:
        trace = draw(throughput_traces())
    weights = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        weights = rng.uniform(0.3, 3.0, encoded.num_chunks)
    return WorkOrder(abr, encoded, trace, chunk_weights=weights).run()


class TestPlayerConservationInvariants:
    @given(streamed_sessions())
    @settings(max_examples=25, deadline=None)
    def test_buffer_never_negative(self, result):
        """The buffer level observed around every download is >= 0."""
        for record in result.timeline.downloads:
            assert record.buffer_before_s >= 0.0
            assert record.buffer_after_s >= 0.0

    @given(streamed_sessions())
    @settings(max_examples=25, deadline=None)
    def test_stall_plus_play_time_sums_to_wall_time(self, result):
        """startup + stalls + played media == session wall-clock time."""
        rendered = result.rendered
        media_s = rendered.num_chunks * rendered.chunk_duration_s
        accounted = (
            rendered.startup_delay_s + float(np.sum(rendered.stalls_s)) + media_s
        )
        assert result.session_duration_s == pytest.approx(accounted, abs=1e-6)

    @given(streamed_sessions())
    @settings(max_examples=25, deadline=None)
    def test_timeline_stalls_match_rendered_stalls(self, result):
        """The event log and the per-chunk stall vector tell one story."""
        event_total = sum(
            event.duration_s
            for event in result.timeline.stalls
            if event.cause != "startup"
        )
        assert float(np.sum(result.rendered.stalls_s)) == pytest.approx(
            event_total, abs=1e-9
        )
