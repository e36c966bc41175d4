"""Bit-identity of the lockstep engine against serial execution.

The lockstep core's contract is *exact* reproduction of the serial
backend's results — same levels, same stall placement, same float-for-float
session durations — across every registered ABR family, including SENSEI's
proactive-stall scheduling and trained RL policies, and across ragged
batches (sessions ending at different chunk counts) and degenerate batch
shapes.  These tests are the enforcement of that contract.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.pensieve import PensieveABR, PensieveConfig, PensieveTrainer
from repro.abr.rate import RateBasedABR
from repro.core.sensei_abr import SenseiFuguABR, make_sensei_pensieve
from repro.abr.throughput import (
    ErrorDistributionPredictor,
    HarmonicMeanPredictor,
)
from repro.engine.lockstep import (
    KIND_GENERIC,
    _PlannerDriverBase,
    decision_kind,
    order_supports_lockstep,
    run_orders_lockstep,
    supports_lockstep,
)
from repro.engine.runner import BatchRunner, WorkOrder, orders_for_grid
from repro.network.bank import TraceBank
from repro.network.trace import ThroughputTrace
from repro.player.session import StreamingSession
from repro.player.shard import ShardState
from repro.service.decisions import decide_batch
from repro.service.sessions import SessionTable
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo


def _encode(video_id: str, genre: str, duration_s: float, seed: int):
    source = SourceVideo.synthesize(
        video_id, genre, duration_s=duration_s, chunk_duration_s=4.0, seed=seed
    )
    return SyntheticEncoder(seed=seed + 10).encode(source, DEFAULT_LADDER)


@pytest.fixture(scope="module")
def ragged_grid():
    """Videos of *different* chunk counts x traces, with per-video weights."""
    videos = [
        _encode("lk-sports", "sports", 80.0, 21),
        _encode("lk-nature", "nature", 120.0, 22),
        _encode("lk-game", "gaming", 48.0, 23),
    ]
    traces = TraceBank(num_traces=3, duration_s=400.0, seed=41).traces()
    rng = np.random.default_rng(5)
    weights = {
        enc.source.video_id: rng.uniform(0.5, 2.0, enc.num_chunks)
        for enc in videos
    }
    return videos, traces, weights


def assert_results_identical(left, right):
    """Bitwise identity of two StreamResults."""
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
    assert len(left.timeline.stalls) == len(right.timeline.stalls)
    for a, b in zip(left.timeline.stalls, right.timeline.stalls):
        assert (a.cause, a.chunk_index, a.start_time_s, a.duration_s) == (
            b.cause, b.chunk_index, b.start_time_s, b.duration_s
        )


class _SubclassedErrorPredictor(ErrorDistributionPredictor):
    """Behaves like the stock predictor but is not its exact type."""


class _SubclassedHarmonicPredictor(HarmonicMeanPredictor):
    """Behaves like the stock predictor but is not its exact type."""


def _run_both(abrs, videos, traces, weights=None):
    keyed = orders_for_grid(abrs, videos, traces, weights_by_video=weights)
    orders = [order for _, order in keyed]
    serial = BatchRunner(backend="serial").run_orders(orders)
    lockstep = BatchRunner(backend="lockstep").run_orders(orders)
    assert len(serial) == len(lockstep) == len(orders)
    for left, right in zip(serial, lockstep):
        assert_results_identical(left, right)
    return serial


class TestLockstepEquivalence:
    def test_planner_families_bit_identical(self, ragged_grid):
        """MPC, Fugu and SENSEI-Fugu (batched drivers) on a ragged grid."""
        videos, traces, weights = ragged_grid
        _run_both(
            [ModelPredictiveABR(), FuguABR(), SenseiFuguABR()],
            videos, traces, weights,
        )

    def test_simple_families_bit_identical(self, ragged_grid):
        """BBA (dedicated driver) and rate-based (generic driver)."""
        videos, traces, weights = ragged_grid
        _run_both([BufferBasedABR(), RateBasedABR()], videos, traces, weights)

    def test_trained_rl_policies_bit_identical(self, ragged_grid):
        """Greedy Pensieve / SENSEI-Pensieve with trained weights."""
        videos, traces, weights = ragged_grid
        pensieve = PensieveABR(config=PensieveConfig(seed=11))
        PensieveTrainer(pensieve, seed=12).train(videos, traces, episodes=3)
        sensei = make_sensei_pensieve(seed=13)
        PensieveTrainer(sensei, seed=14).train(
            videos, traces, episodes=3, weights_by_video=weights
        )
        _run_both([pensieve, sensei], videos, traces, weights)

    def test_sensei_proactive_stalls_survive_lockstep(self, ragged_grid):
        """The equivalence covers sessions that actually schedule stalls."""
        videos, traces, weights = ragged_grid
        # A strongly weight-contrasted video over the slowest trace provokes
        # SENSEI's proactive stalls; assert at least one session stalls so
        # this test cannot silently stop covering the stall path.
        contrast = {
            video.source.video_id: np.where(
                np.arange(video.num_chunks) % 4 == 0, 3.0, 0.4
            )
            for video in videos
        }
        results = _run_both([SenseiFuguABR()], videos, traces, contrast)
        assert any(
            result.timeline.proactive_stall_count() > 0 for result in results
        )

    def test_single_session_batch(self, ragged_grid):
        videos, traces, weights = ragged_grid
        _run_both([FuguABR()], videos[:1], traces[:1], weights)

    def test_mixed_ladder_widths_share_a_shard(self, ragged_grid):
        """Videos on ladders of different widths and with different chunk
        counts step in one SoA shard: one level- and chunk-padded
        size/quality table per video, gathered per row through
        ``video_of``; candidate trees stay grouped per ladder."""
        from repro.video.chunk import EncodingLadder

        videos, traces, weights = ragged_grid
        narrow = EncodingLadder(bitrates_kbps=(300.0, 1200.0, 2850.0))
        source = SourceVideo.synthesize(
            "lk-narrow", "gaming", duration_s=64.0, chunk_duration_s=4.0,
            seed=29,
        )
        mixed = [
            videos[0], SyntheticEncoder(seed=31).encode(source, narrow),
            videos[1],
        ]
        shards = []

        def recording_shard(sessions):
            shards.append(ShardState(sessions))
            return shards[-1]

        with mock.patch(
            "repro.engine.lockstep.ShardState", side_effect=recording_shard
        ):
            _run_both(
                [BufferBasedABR(), FuguABR(), SenseiFuguABR()],
                mixed, traces[:2], weights,
            )
        (shard,) = shards
        assert shard.num_sessions == 3 * len(mixed) * 2
        assert shard.sizes_all.shape[0] == len(mixed)
        assert shard.quality_all.shape[0] == len(mixed)
        assert [
            precompute.encoded for precompute in shard.video_precomputes
        ] == mixed
        assert all(
            shard.encoded[row] is mixed[shard.video_of[row]]
            for row in range(shard.num_sessions)
        )

    def test_shard_holds_one_table_per_video(self, ragged_grid):
        """A shard of many orders on V videos keeps V size/quality tables,
        not one copy per order."""
        videos, traces, weights = ragged_grid
        keyed = orders_for_grid(
            [FuguABR(), SenseiFuguABR()], videos, traces,
            weights_by_video=weights,
        )
        sessions = [
            StreamingSession(
                encoded=order.encoded, trace=order.trace, abr=order.abr,
                chunk_weights=order.chunk_weights,
            )
            for _, order in keyed
        ]
        shard = ShardState(sessions)
        assert shard.num_sessions == 2 * len(videos) * len(traces)
        assert shard.sizes_all.shape[0] == len(videos)
        assert shard.quality_all.shape[0] == len(videos)
        for row, session in enumerate(sessions):
            chunks, levels = session.precompute.sizes_bytes.shape
            table = shard.video_of[row]
            assert np.array_equal(
                shard.sizes_all[table, :chunks, :levels],
                session.precompute.sizes_bytes,
            )
            assert np.array_equal(
                shard.quality_all[table, :chunks, :levels],
                session.precompute.quality,
            )

    def test_planner_with_subclassed_predictor_takes_generic_path(
        self, ragged_grid
    ):
        """A planner class whose predictor is a subclass of the stock one
        may predict differently, so it decides through the generic
        per-session driver — and still matches serial bit for bit."""
        videos, traces, weights = ragged_grid
        abrs = [
            FuguABR(predictor=_SubclassedErrorPredictor()),
            ModelPredictiveABR(predictor=_SubclassedHarmonicPredictor()),
        ]
        for abr in abrs:
            assert decision_kind(abr) == KIND_GENERIC
        _run_both(abrs, videos[:1], traces[:2], weights)

    def test_empty_orders(self):
        assert BatchRunner(backend="lockstep").run_orders([]) == []

    def test_merge_and_split_thresholds_do_not_change_results(
        self, ragged_grid
    ):
        """Grouping heuristics are pure performance knobs."""
        videos, traces, weights = ragged_grid
        keyed = orders_for_grid(
            [FuguABR(), SenseiFuguABR()], videos, traces,
            weights_by_video=weights,
        )
        orders = [order for _, order in keyed]
        reference = BatchRunner(backend="serial").run_orders(orders)
        for merge, split in [(1, None), (1000, 2), (4, 8)]:
            with mock.patch.object(
                _PlannerDriverBase, "MERGE_BELOW", merge
            ), mock.patch.object(_PlannerDriverBase, "SPLIT_ABOVE", split):
                results = run_orders_lockstep(orders)
            for left, right in zip(reference, results):
                assert_results_identical(left, right)

    def test_thresholds_do_not_change_service_decisions(self, ragged_grid):
        """The decision service's flush path shares the grouping function:
        under the same knobs, ``decide_batch`` over co-flushed sessions
        must still equal the serial decide, proactive stalls included."""
        videos, traces, _ = ragged_grid
        abrs = [ModelPredictiveABR(), FuguABR(), SenseiFuguABR()]
        for merge, split in [(1, None), (1000, 2), (4, 8)]:
            table = SessionTable()
            entries = [
                table.register(
                    str(index), "s", abr, video, trace,
                    chunk_weights=np.where(
                        np.arange(video.num_chunks) % 4 == 0, 3.0, 0.4
                    ),
                )
                for index, (abr, video, trace) in enumerate(
                    itertools.product(abrs, videos, traces)
                )
            ]
            with mock.patch.object(
                _PlannerDriverBase, "MERGE_BELOW", merge
            ), mock.patch.object(_PlannerDriverBase, "SPLIT_ABOVE", split):
                live = entries
                while live:
                    decisions = decide_batch([
                        (entry.clone, entry.kind, entry.state.observe())
                        for entry in live
                    ])
                    for entry, decision in zip(live, decisions):
                        entry.state.apply(decision)
                    live = [entry for entry in live if not entry.done]
            stalls = 0
            for entry in entries:
                online = entry.finalize()
                offline = entry.work_order().run()
                assert np.array_equal(
                    online.rendered.levels, offline.rendered.levels
                )
                assert np.array_equal(
                    online.rendered.stalls_s, offline.rendered.stalls_s
                )
                stalls += online.timeline.proactive_stall_count()
            assert stalls > 0

    def test_exploring_rl_policy_falls_back_to_serial_execution(
        self, ragged_grid
    ):
        """*Unseeded* greedy=False policies depend on one shared RNG stream
        consumed across sessions: lockstep must execute them serially (and
        say so via order_supports_lockstep)."""
        videos, traces, _ = ragged_grid
        explorer = PensieveABR(config=PensieveConfig(seed=3), greedy=False)
        assert not supports_lockstep(explorer)
        orders = [
            WorkOrder(abr=explorer, encoded=videos[0], trace=trace)
            for trace in traces
        ]
        assert not any(order_supports_lockstep(order) for order in orders)
        # The exploration RNG is shared across sessions and consumed by
        # every run, so both backends must start it from the same state.
        explorer.agent.reseed_exploration(123)
        serial = BatchRunner(backend="serial").run_orders(orders)
        explorer.agent.reseed_exploration(123)
        lockstep = BatchRunner(backend="lockstep").run_orders(orders)
        for left, right in zip(serial, lockstep):
            assert_results_identical(left, right)

    def test_seeded_exploring_rl_policy_batches_in_lockstep(
        self, ragged_grid
    ):
        """Pinning ``WorkOrder.exploration_seed`` lifts the fallback: each
        session gets a private RNG stream, so the batched RL driver can
        co-schedule exploring sessions and still match serial bitwise
        (the full differential fuzz lives in tests/test_rl_batch.py)."""
        videos, traces, _ = ragged_grid
        explorer = PensieveABR(config=PensieveConfig(seed=3), greedy=False)
        orders = [
            WorkOrder(
                abr=explorer, encoded=videos[0], trace=trace,
                exploration_seed=900 + index,
            )
            for index, trace in enumerate(traces)
        ]
        assert all(order_supports_lockstep(order) for order in orders)
        serial = BatchRunner(backend="serial").run_orders(orders)
        lockstep = BatchRunner(backend="lockstep").run_orders(orders)
        for left, right in zip(serial, lockstep):
            assert_results_identical(left, right)


@st.composite
def lockstep_scenarios(draw):
    """Random session/scenario configurations for differential fuzzing.

    Every component is derived from drawn seeds, so hypothesis shrinks a
    failure to a minimal (videos, traces, ABRs, weights) combination and
    prints it as the falsifying example — a directly re-runnable repro.
    """
    video_specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["sports", "nature", "gaming", "animation"]),
                st.integers(6, 24),   # chunks
                st.integers(0, 30),   # seed
            ),
            min_size=1,
            max_size=3,
        )
    )
    videos = [
        _encode(f"fz-{genre}-{index}-{seed}", genre, chunks * 4.0, seed)
        for index, (genre, chunks, seed) in enumerate(video_specs)
    ]
    trace_seed = draw(st.integers(0, 50))
    num_traces = draw(st.integers(1, 3))
    scale = draw(st.floats(0.25, 1.5))
    traces = [
        trace.scaled(scale)
        for trace in TraceBank(
            num_traces=num_traces, duration_s=300.0, seed=trace_seed
        ).traces()
    ]
    families = draw(
        st.lists(
            st.sampled_from(["bba", "rate", "mpc", "fugu", "sensei"]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    abrs = [
        {
            "bba": BufferBasedABR,
            "rate": RateBasedABR,
            "mpc": ModelPredictiveABR,
            "fugu": FuguABR,
            "sensei": SenseiFuguABR,
        }[family]()
        for family in families
    ]
    weights = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 1000)))
        weights = {
            video.source.video_id: rng.uniform(0.3, 3.0, video.num_chunks)
            for video in videos
        }
    return videos, traces, abrs, weights


class TestDifferentialFuzz:
    """Randomized differential fuzzing: SoA lockstep == serial, bitwise.

    Complements the fixed equivalence grid above with randomly drawn
    session/scenario configurations; hypothesis shrinks any failure to a
    minimal seeded repro and prints it, so a bit-identity regression
    arrives as a small, re-runnable counterexample rather than a red grid.
    """

    @given(lockstep_scenarios())
    @settings(max_examples=12, deadline=None)
    def test_lockstep_bitwise_equals_serial(self, scenario):
        videos, traces, abrs, weights = scenario
        _run_both(abrs, videos, traces, weights)


class TestAutoBackend:
    def test_auto_is_lockstep_on_every_host(self):
        """``auto()`` is lockstep whatever the core count."""
        for cores in (1, 8):
            with mock.patch("os.cpu_count", return_value=cores):
                assert BatchRunner.auto().backend == "lockstep"
