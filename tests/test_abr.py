"""Tests for the baseline ABR algorithms and throughput predictors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr.base import Decision, PlayerObservation
from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.offline import OfflineOptimalABR
from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.abr.planner import enumerate_level_sequences, evaluate_candidates
from repro.abr.rate import RateBasedABR
from repro.abr.throughput import (
    ErrorDistributionPredictor,
    EWMAPredictor,
    HarmonicMeanPredictor,
)
from repro.network.trace import ThroughputTrace
from repro.engine.runner import WorkOrder
from repro.qoe.ksqi import KSQIModel
from repro.video.chunk import DEFAULT_LADDER


def make_observation(
    buffer_s=10.0,
    last_level=2,
    throughput=(1.5, 1.6, 1.4),
    chunk_index=5,
    num_chunks=20,
    horizon=4,
    weights=None,
    chunk_size_scale=1.0,
):
    """Build a synthetic PlayerObservation for unit tests."""
    num_levels = DEFAULT_LADDER.num_levels
    sizes = np.stack([
        np.array(DEFAULT_LADDER.bitrates_kbps) * 1000 * 4 / 8 * chunk_size_scale
        for _ in range(horizon)
    ])
    quality = np.stack([
        np.linspace(20, 90, num_levels) for _ in range(horizon)
    ])
    if weights is None:
        weights = np.ones(horizon)
    return PlayerObservation(
        chunk_index=chunk_index,
        num_chunks=num_chunks,
        buffer_s=buffer_s,
        last_level=last_level,
        throughput_history_mbps=np.asarray(throughput, dtype=float),
        download_time_history_s=np.full(len(throughput), 2.0),
        upcoming_sizes_bytes=sizes,
        upcoming_quality=quality,
        upcoming_weights=np.asarray(weights, dtype=float),
        chunk_duration_s=4.0,
        ladder=DEFAULT_LADDER,
    )


class TestBaseTypes:
    def test_decision_validation(self):
        with pytest.raises(ValueError):
            Decision(level=-1)
        with pytest.raises(ValueError):
            Decision(level=0, proactive_stall_s=-1.0)

    def test_pad_history(self):
        # The RL state's throughput inputs are the history left-padded with
        # zeros (or cut) to the agent's window, in units of 6 Mbps.
        def padded(history, length):
            abr = PensieveABR(config=PensieveConfig(history_length=length))
            state = abr.encode_state(make_observation(throughput=history))
            return list(state[:length])

        def scaled(values):
            return [value / 6.0 for value in values]

        assert padded([1.0, 2.0], 4) == scaled([0.0, 0.0, 1.0, 2.0])
        assert padded([1, 2, 3, 4, 5], 3) == scaled([3.0, 4.0, 5.0])

    def test_observation_helpers(self):
        obs = make_observation()
        assert obs.horizon == 4
        assert obs.chunks_remaining == 15
        assert obs.latest_throughput_mbps() == pytest.approx(1.4)
        assert obs.next_chunk_sizes().shape == (5,)

    def test_observation_no_history_default(self):
        obs = make_observation(throughput=())
        assert obs.latest_throughput_mbps(default=2.5) == 2.5


class TestBBA:
    def test_low_buffer_lowest_level(self):
        assert BufferBasedABR().decide(make_observation(buffer_s=1.0)).level == 0

    def test_high_buffer_highest_level(self):
        assert BufferBasedABR().decide(make_observation(buffer_s=50.0)).level == 4

    def test_intermediate_buffer_interpolates(self):
        abr = BufferBasedABR(reservoir_s=5.0, cushion_s=10.0)
        level = abr.decide(make_observation(buffer_s=10.0)).level
        assert 0 < level < 4

    def test_monotone_in_buffer(self):
        abr = BufferBasedABR()
        levels = [
            abr.decide(make_observation(buffer_s=b)).level
            for b in np.linspace(0, 40, 15)
        ]
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_never_stalls_proactively(self):
        assert BufferBasedABR().decide(make_observation()).proactive_stall_s == 0.0


class TestRateBased:
    def test_picks_sustainable_level(self):
        abr = RateBasedABR(safety_margin=1.0)
        decision = abr.decide(make_observation(throughput=(2.0, 2.0, 2.0)))
        assert decision.level == DEFAULT_LADDER.level_for_bitrate(2000)

    def test_safety_margin_reduces_level(self):
        aggressive = RateBasedABR(safety_margin=1.0)
        cautious = RateBasedABR(safety_margin=0.5)
        obs = make_observation(throughput=(2.0, 2.0, 2.0))
        assert cautious.decide(obs).level <= aggressive.decide(obs).level

    def test_no_history_uses_default(self):
        decision = RateBasedABR().decide(make_observation(throughput=()))
        assert 0 <= decision.level <= 4


class TestThroughputPredictors:
    def test_harmonic_mean_prediction(self):
        predictor = HarmonicMeanPredictor(window=3)
        obs = make_observation(throughput=(1.0, 2.0, 4.0))
        expected = 3 / (1 / 1 + 1 / 2 + 1 / 4)
        assert predictor.predict(obs) == pytest.approx(expected)

    def test_harmonic_mean_cold_start(self):
        predictor = HarmonicMeanPredictor(default_mbps=1.7)
        assert predictor.predict(make_observation(throughput=())) == 1.7

    def test_ewma_weights_recent_samples(self):
        predictor = EWMAPredictor(alpha=0.9)
        rising = predictor.predict(make_observation(throughput=(1.0, 1.0, 3.0)))
        falling = predictor.predict(make_observation(throughput=(3.0, 3.0, 1.0)))
        assert rising > falling

    def test_error_distribution_sums_to_one(self):
        predictor = ErrorDistributionPredictor()
        scenarios = predictor.predict_distribution(make_observation())
        total = sum(p for _, p in scenarios)
        assert total == pytest.approx(1.0)
        assert all(rate > 0 for rate, _ in scenarios)

    def test_error_distribution_cold_start_covers_all_bins(self):
        # Regression: the seed truncated the 5-entry cold-start template,
        # silently dropping probability mass for num_bins > 5.
        for num_bins in (3, 5, 7, 9):
            predictor = ErrorDistributionPredictor(num_bins=num_bins)
            scenarios = predictor.predict_distribution(make_observation())
            assert len(scenarios) == num_bins
            assert sum(p for _, p in scenarios) == pytest.approx(1.0)
            assert all(p > 0 for _, p in scenarios)

    def test_error_distribution_reset(self):
        predictor = ErrorDistributionPredictor()
        predictor.predict(make_observation())
        predictor.predict(make_observation())
        predictor.reset()
        assert predictor._num_ratios == 0
        assert not predictor._bin_counts.any()


class TestPlanner:
    def test_enumerate_all_sequences(self):
        candidates = enumerate_level_sequences(3, 2)
        assert candidates.shape == (9, 2)

    def test_enumerate_with_step_restriction(self):
        candidates = enumerate_level_sequences(5, 2, max_step=1, start_level=2)
        # first chunk in {1,2,3}, second within 1 of the first
        assert set(candidates[:, 0]) == {1, 2, 3}
        assert np.all(np.abs(np.diff(candidates, axis=1)) <= 1)

    def test_evaluation_prefers_high_quality_when_bandwidth_ample(self):
        obs = make_observation(buffer_s=30.0)
        candidates = enumerate_level_sequences(5, 3)
        evaluation = evaluate_candidates(
            obs, candidates, [(50.0, 1.0)], KSQIModel()
        )
        assert evaluation.best_level == 4
        assert evaluation.expected_rebuffer_s == pytest.approx(0.0)
        # One stall option x one scenario: the count is the candidate count.
        assert evaluation.num_candidates == candidates.shape[0]

    def test_evaluation_avoids_rebuffering_when_bandwidth_scarce(self):
        obs = make_observation(buffer_s=4.0, last_level=0)
        candidates = enumerate_level_sequences(5, 3)
        evaluation = evaluate_candidates(
            obs, candidates, [(0.35, 1.0)], KSQIModel()
        )
        assert evaluation.best_level <= 1

    def test_weights_shift_allocation(self):
        # Next chunk unimportant, later chunks very important, tight bandwidth:
        # the weighted plan should not spend more on the first chunk than the
        # unweighted plan does.
        obs = make_observation(buffer_s=8.0, last_level=2)
        candidates = enumerate_level_sequences(5, 3)
        scenarios = [(1.0, 1.0)]
        unweighted = evaluate_candidates(obs, candidates, scenarios, KSQIModel())
        weighted = evaluate_candidates(
            obs, candidates, scenarios, KSQIModel(), weights=np.array([0.2, 2.0, 2.0])
        )
        assert weighted.best_level <= unweighted.best_level

    def test_proactive_stall_penalised_without_benefit(self):
        obs = make_observation(buffer_s=30.0)
        candidates = enumerate_level_sequences(5, 3)
        evaluation = evaluate_candidates(
            obs, candidates, [(50.0, 1.0)], KSQIModel(),
            stall_options_s=(0.0, 2.0),
        )
        assert evaluation.best_stall_s == 0.0
        # num_candidates reports the full evaluated cross product:
        # candidates x stall options x throughput scenarios.
        assert evaluation.num_candidates == candidates.shape[0] * 2

    def test_num_candidates_counts_scenarios(self):
        obs = make_observation()
        candidates = enumerate_level_sequences(5, 2)
        scenarios = [(0.8, 0.25), (1.2, 0.5), (2.0, 0.25)]
        evaluation = evaluate_candidates(
            obs, candidates, scenarios, KSQIModel(), stall_options_s=(0.0, 1.0)
        )
        assert evaluation.num_candidates == candidates.shape[0] * 2 * 3


class TestMPCAndFugu:
    @pytest.mark.parametrize("abr_cls", [ModelPredictiveABR, FuguABR])
    def test_streams_without_error(self, abr_cls, small_encoded, constant_trace):
        result = WorkOrder(abr_cls(), small_encoded, constant_trace).run()
        assert result.rendered.num_chunks == small_encoded.num_chunks

    @pytest.mark.parametrize("abr_cls", [ModelPredictiveABR, FuguABR])
    def test_avoids_stalls_on_steady_network(self, abr_cls, small_encoded, constant_trace):
        result = WorkOrder(abr_cls(), small_encoded, constant_trace).run()
        assert result.rendered.total_stall_s() <= 1.0

    def test_fugu_uses_higher_bitrate_on_faster_network(self, small_encoded):
        slow = ThroughputTrace.constant(0.8, duration_s=600.0)
        fast = ThroughputTrace.constant(4.0, duration_s=600.0)
        slow_rate = WorkOrder(FuguABR(), small_encoded, slow).run().average_bitrate_kbps
        fast_rate = WorkOrder(FuguABR(), small_encoded, fast).run().average_bitrate_kbps
        assert fast_rate > slow_rate

    def test_fugu_beats_bba_on_true_qoe_over_trace_mix(self, small_encoded, oracle):
        from repro.network.bank import TraceBank
        bank = TraceBank(num_traces=4, duration_s=400.0, seed=17)
        fugu_scores, bba_scores = [], []
        for trace in bank.traces():
            fugu_scores.append(oracle.true_qoe(
                WorkOrder(FuguABR(), small_encoded, trace).run().rendered))
            bba_scores.append(oracle.true_qoe(
                WorkOrder(BufferBasedABR(), small_encoded, trace).run().rendered))
        assert np.mean(fugu_scores) > np.mean(bba_scores)


class TestPensieve:
    def test_state_dimensions(self):
        config = PensieveConfig()
        abr = PensieveABR(config=config)
        state = abr.encode_state(make_observation(horizon=4))
        assert state.shape == (config.state_dim,)

    def test_sensei_state_includes_weights(self):
        config = PensieveConfig(weight_horizon=5, stall_actions_s=(1.0, 2.0))
        abr = PensieveABR(config=config)
        state = abr.encode_state(make_observation(horizon=4, weights=[2.0] * 4))
        assert state.shape == (config.state_dim,)
        assert config.num_actions == 7

    def test_action_mapping(self):
        config = PensieveConfig(stall_actions_s=(1.0, 2.0))
        abr = PensieveABR(config=config)
        observation = make_observation(last_level=2)
        state = abr.encode_state(observation)
        assert abr.decision_for_action(observation, state, 3).level == 3
        stall_decision = abr.decision_for_action(
            observation, state, config.num_levels + 1
        )
        assert stall_decision.proactive_stall_s == 2.0
        # A stall keeps streaming at the previously played level.
        assert stall_decision.level == 2

    def test_decide_returns_valid_decision(self, small_encoded, constant_trace):
        result = WorkOrder(PensieveABR(), small_encoded, constant_trace).run()
        assert np.all(result.rendered.levels >= 0)
        assert np.all(result.rendered.levels <= 4)

    def test_training_improves_mean_return(self, small_encoded, constant_trace):
        from repro.training.curriculum import (
            CurriculumConfig,
            ScenarioCurriculum,
        )
        from repro.training.trainer import Trainer, TrainerConfig

        abr = PensieveABR(config=PensieveConfig(seed=11))
        curriculum = ScenarioCurriculum(
            [small_encoded], [constant_trace],
            config=CurriculumConfig(regime_mix=(("bank", 1.0),), seed=12),
        )
        history = Trainer(
            abr, curriculum,
            config=TrainerConfig(rounds=6, episodes_per_round=5, eval_every=0),
        ).train().history
        assert abr.trained_episodes == 30
        # Each round's mean return is the mean over its 5 episodes.
        assert history[-1].mean_return >= history[0].mean_return - 0.05

    def test_capture_mechanism(self, small_encoded, constant_trace):
        abr = PensieveABR()
        abr.begin_capture()
        WorkOrder(abr, small_encoded, constant_trace).run()
        trajectory = abr.end_capture()
        assert len(trajectory) == small_encoded.num_chunks


class TestOfflineOptimal:
    def test_plan_produces_valid_rendering(self, small_encoded, constant_trace):
        planner = OfflineOptimalABR(beam_width=8)
        rendered = planner.plan(small_encoded, constant_trace)
        assert rendered.num_chunks == small_encoded.num_chunks
        assert np.all(rendered.levels >= 0)

    def test_ample_bandwidth_yields_top_bitrate(self, small_encoded):
        trace = ThroughputTrace.constant(30.0, duration_s=600.0)
        rendered = OfflineOptimalABR(beam_width=8).plan(small_encoded, trace)
        assert rendered.average_bitrate_kbps() > 2500
        assert rendered.total_stall_s() == 0.0

    def test_scarce_bandwidth_lowers_bitrate(self, small_encoded, slow_trace):
        rendered = OfflineOptimalABR(beam_width=8).plan(small_encoded, slow_trace)
        assert rendered.average_bitrate_kbps() < 1500

    def test_weights_change_allocation(self, small_encoded, oracle):
        trace = ThroughputTrace.constant(1.2, duration_s=600.0)
        unaware = OfflineOptimalABR(beam_width=16).plan(small_encoded, trace)
        weights = oracle.normalized_sensitivity(small_encoded.source)
        aware = OfflineOptimalABR(
            weights=weights, allow_proactive_stalls=True, beam_width=16
        ).plan(small_encoded, trace)
        assert oracle.true_qoe(aware) >= oracle.true_qoe(unaware) - 0.02

    def test_weight_length_validation(self, small_encoded, constant_trace):
        planner = OfflineOptimalABR(weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            planner.plan(small_encoded, constant_trace)
