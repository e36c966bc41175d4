"""Tests for the batch simulation engine.

Covers the four engine layers: session precompute (observation slices and
history rings), plan caching and the vectorised evaluator (checked against
the loop oracle in ``tests/planner_oracle.py``), the BatchRunner backends,
and the equivalence guarantee — every backend returns numerically identical
:class:`~repro.player.session.StreamResult`s to a sequential loop over
:func:`~repro.player.simulator.simulate_session`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr.base import ABRAlgorithm, Decision
from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.planner import (
    _build_level_sequences,
    clear_plan_cache,
    enumerate_level_sequences,
    evaluate_candidates,
    plan_cache_info,
)
from repro.core.sensei_abr import SenseiFuguABR
from repro.engine import BatchRunner, HistoryRing, SessionPrecompute, WorkOrder
from repro.engine.runner import orders_for_grid
from repro.network.bank import TraceBank
from repro.network.trace import ThroughputTrace
from repro.player.simulator import simulate_many, simulate_session
from repro.qoe.ksqi import KSQIModel
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo

from tests.planner_oracle import evaluate_candidates_loop
from tests.test_abr import make_observation


# ---------------------------------------------------------------- precompute


class TestSessionPrecompute:
    def test_matrices_match_stacked_chunks(self, small_encoded):
        pre = SessionPrecompute.of(small_encoded)
        assert np.array_equal(pre.sizes_bytes, small_encoded.sizes_matrix())
        assert np.array_equal(pre.quality, small_encoded.quality_matrix())

    def test_upcoming_slices_match_seed_stacking(self, small_encoded):
        pre = SessionPrecompute.of(small_encoded)
        for chunk_index in range(small_encoded.num_chunks):
            horizon = min(5, small_encoded.num_chunks - chunk_index)
            sizes, quality = pre.upcoming(chunk_index, horizon)
            expected_sizes = np.stack(
                [
                    small_encoded.chunks[chunk_index + offset].sizes_bytes
                    for offset in range(horizon)
                ]
            )
            expected_quality = np.stack(
                [
                    small_encoded.chunks[chunk_index + offset].quality
                    for offset in range(horizon)
                ]
            )
            assert np.array_equal(sizes, expected_sizes)
            assert np.array_equal(quality, expected_quality)

    def test_cached_per_video_instance(self, small_encoded):
        assert SessionPrecompute.of(small_encoded) is SessionPrecompute.of(
            small_encoded
        )

    def test_matrices_read_only(self, small_encoded):
        pre = SessionPrecompute.of(small_encoded)
        with pytest.raises(ValueError):
            pre.sizes_bytes[0, 0] = 1.0

    def test_cache_not_pickled_with_video(self, small_encoded):
        """The per-video cache must not ride along in work-order pickles."""
        import pickle

        SessionPrecompute.of(small_encoded)  # attach the cache
        clone = pickle.loads(pickle.dumps(small_encoded))
        assert not any(key.startswith("_") for key in clone.__dict__)
        # The clone rebuilds its own precompute with identical contents.
        assert np.array_equal(
            SessionPrecompute.of(clone).sizes_bytes,
            SessionPrecompute.of(small_encoded).sizes_bytes,
        )


class TestHistoryRing:
    def test_matches_list_tail_semantics(self):
        ring = HistoryRing(4)
        reference: list = []
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]:
            ring.append(value)
            reference.append(value)
            assert np.array_equal(
                ring.as_array(), np.asarray(reference[-4:], dtype=float)
            )
        assert len(ring) == 4
        assert ring.last() == 7.0

    def test_empty_ring(self):
        ring = HistoryRing(3)
        assert ring.as_array().size == 0
        assert ring.last(default=2.5) == 2.5


# ------------------------------------------------------------- plan caching


class TestPlanCache:
    def test_cache_returns_identical_tree(self):
        clear_plan_cache()
        first = enumerate_level_sequences(5, 3, max_step=2, start_level=2)
        second = enumerate_level_sequences(5, 3, max_step=2, start_level=2)
        assert first is second
        assert plan_cache_info().hits >= 1
        assert not first.flags.writeable

    def test_cache_matches_uncached_enumeration(self):
        for kwargs in (
            dict(max_step=None, start_level=None),
            dict(max_step=1, start_level=0),
            dict(max_step=2, start_level=4),
            dict(max_step=2, start_level=-1),
        ):
            cached = enumerate_level_sequences(5, 3, **kwargs)
            fresh = _build_level_sequences(5, 3, **kwargs)
            assert np.array_equal(cached, fresh)

    def test_start_level_irrelevant_without_max_step(self):
        a = enumerate_level_sequences(4, 2, start_level=1)
        b = enumerate_level_sequences(4, 2, start_level=3)
        assert a is b


# ------------------------------------------------- vectorised plan evaluation


class TestVectorizedEvaluator:
    def test_matches_reference_on_random_observations(self):
        rng = np.random.default_rng(7)
        model = KSQIModel()
        for _ in range(60):
            obs = make_observation(
                buffer_s=float(rng.uniform(0.5, 40.0)),
                last_level=int(rng.integers(0, 5)),
                chunk_size_scale=float(rng.uniform(0.3, 3.0)),
            )
            candidates = enumerate_level_sequences(
                5, 3, max_step=2, start_level=obs.last_level
            )
            scenarios = [
                (float(rng.uniform(0.2, 5.0)), 0.3),
                (float(rng.uniform(0.2, 5.0)), 0.7),
            ]
            weights = rng.uniform(0.2, 2.0, 3)
            for stalls in [(0.0,), (0.0, 1.0, 2.0)]:
                fast = evaluate_candidates(
                    obs, candidates, scenarios, model,
                    weights=weights, stall_options_s=stalls,
                )
                ref = evaluate_candidates_loop(
                    obs, candidates, scenarios, model,
                    weights=weights, stall_options_s=stalls,
                )
                assert fast.best_score == pytest.approx(ref.best_score, abs=1e-9)
                # On an exact score tie between two (level, stall) optima the
                # implementations may break it differently; otherwise the
                # chosen action (and its risk signal) must agree.
                if (fast.best_level, fast.best_stall_s) != (
                    ref.best_level, ref.best_stall_s
                ):
                    assert fast.best_score == ref.best_score
                else:
                    assert fast.expected_rebuffer_s == pytest.approx(
                        ref.expected_rebuffer_s, abs=1e-6
                    )

    def test_num_candidates_counts_full_cross_product(self):
        obs = make_observation()
        candidates = enumerate_level_sequences(5, 3)
        scenarios = [(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]
        stalls = (0.0, 1.0)
        for evaluate in (evaluate_candidates, evaluate_candidates_loop):
            evaluation = evaluate(
                obs, candidates, scenarios, KSQIModel(),
                stall_options_s=stalls,
            )
            assert evaluation.num_candidates == (
                candidates.shape[0] * len(stalls) * len(scenarios)
            )


# ----------------------------------------------------------------- runner


def _double(value: int) -> int:
    return 2 * value


class TestBatchRunner:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(backend="threads")
        with pytest.raises(ValueError, match="serial.*lockstep"):
            BatchRunner(backend="process")

    def test_serial_map_preserves_order(self):
        runner = BatchRunner()
        assert runner.map_ordered(_double, list(range(10))) == [
            2 * i for i in range(10)
        ]

    def test_empty_orders(self):
        assert BatchRunner().run_orders([]) == []

    def test_orders_for_grid_matches_seed_nesting(self, small_encoded):
        traces = [
            ThroughputTrace.constant(2.0, name="t0"),
            ThroughputTrace.constant(1.0, name="t1"),
        ]
        abrs = [BufferBasedABR(), FuguABR()]
        keyed = orders_for_grid(abrs, [small_encoded], traces)
        keys = [key for key, _ in keyed]
        assert keys == [
            ("BBA", "test-sports", "t0"),
            ("BBA", "test-sports", "t1"),
            ("Fugu", "test-sports", "t0"),
            ("Fugu", "test-sports", "t1"),
        ]


# ------------------------------------------------------------- equivalence


def _sequential_reference_grid(abrs, videos, traces, weights_by_video=None):
    """The ``simulate_many`` loop, spelled out independently."""
    weights_by_video = weights_by_video or {}
    results = []
    for abr in abrs:
        for encoded in videos:
            weights = weights_by_video.get(encoded.source.video_id)
            for trace in traces:
                results.append(
                    (
                        abr.name, encoded.source.video_id, trace.name,
                        simulate_session(
                            abr, encoded, trace, chunk_weights=weights
                        ),
                    )
                )
    return results


def assert_stream_results_identical(left, right):
    """Numerical identity of two StreamResults (not just closeness)."""
    assert np.array_equal(left.rendered.levels, right.rendered.levels)
    assert np.array_equal(left.rendered.stalls_s, right.rendered.stalls_s)
    assert left.rendered.startup_delay_s == right.rendered.startup_delay_s
    assert left.total_bytes == right.total_bytes
    assert left.session_duration_s == right.session_duration_s
    assert left.abr_name == right.abr_name
    assert left.trace_name == right.trace_name
    assert (
        left.timeline.measured_throughputs_mbps()
        == right.timeline.measured_throughputs_mbps()
    )


@pytest.fixture(scope="module")
def equivalence_grid():
    """A seeded quick-scale grid: 2 videos x 3 traces x 3 ABR families."""
    videos = []
    for index, (vid, genre) in enumerate(
        [("eq-sports", "sports"), ("eq-nature", "nature")]
    ):
        source = SourceVideo.synthesize(
            vid, genre, duration_s=80.0, chunk_duration_s=4.0, seed=20 + index
        )
        videos.append(SyntheticEncoder(seed=30 + index).encode(source, DEFAULT_LADDER))
    traces = TraceBank(num_traces=3, duration_s=400.0, seed=41).traces()
    rng = np.random.default_rng(5)
    weights_by_video = {
        enc.source.video_id: rng.uniform(0.5, 2.0, enc.num_chunks)
        for enc in videos
    }
    return videos, traces, weights_by_video


def _grid_abrs():
    return [BufferBasedABR(), FuguABR(), SenseiFuguABR()]


class TestBatchRunnerEquivalence:
    def test_serial_backend_matches_sequential_simulate_many(
        self, equivalence_grid
    ):
        videos, traces, weights = equivalence_grid
        reference = _sequential_reference_grid(
            _grid_abrs(), videos, traces, weights
        )
        batched = simulate_many(
            _grid_abrs(), videos, traces, weights_by_video=weights,
            runner=BatchRunner(backend="serial"),
        )
        assert len(reference) == len(batched) == 18
        for (k1, v1, t1, r1), (k2, v2, t2, r2) in zip(reference, batched):
            assert (k1, v1, t1) == (k2, v2, t2)
            assert_stream_results_identical(r1, r2)

    def test_lockstep_backend_matches_sequential_simulate_many(
        self, equivalence_grid
    ):
        videos, traces, weights = equivalence_grid
        reference = _sequential_reference_grid(
            _grid_abrs(), videos, traces, weights
        )
        batched = simulate_many(
            _grid_abrs(), videos, traces, weights_by_video=weights,
            runner=BatchRunner(backend="lockstep"),
        )
        assert len(reference) == len(batched)
        for (k1, v1, t1, r1), (k2, v2, t2, r2) in zip(reference, batched):
            assert (k1, v1, t1) == (k2, v2, t2)
            assert_stream_results_identical(r1, r2)
