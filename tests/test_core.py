"""Tests for SENSEI's core: weights, reweighted QoE, scheduler, profiler, ABR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import SenseiProfiler
from repro.core.qoe_model import SenseiQoEModel
from repro.core.scheduler import SchedulerConfig, TwoStepScheduler
from repro.core.sensei_abr import SenseiFuguABR, SenseiPensieveABR, make_sensei_pensieve
from repro.core.weights import SensitivityProfile, infer_weights
from repro.network.trace import ThroughputTrace
from repro.player.simulator import simulate_session
from repro.qoe.ksqi import KSQIModel
from repro.utils.stats import spearman_correlation
from repro.video.rendering import (
    QualityIncident,
    inject_incident,
    make_video_series,
    render_pristine,
)


class TestSensitivityProfile:
    def test_basic_properties(self):
        profile = SensitivityProfile("v", np.array([0.5, 1.0, 1.5]))
        assert profile.num_chunks == 3
        assert profile.weight_of(2) == 1.5

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            SensitivityProfile("v", np.array([1.0, 0.0]))

    def test_high_low_chunk_selection(self):
        profile = SensitivityProfile("v", np.array([0.5, 1.0, 2.0, 1.0]))
        assert list(profile.high_sensitivity_chunks(threshold=1.3)) == [2]
        assert list(profile.low_sensitivity_chunks(threshold=0.7)) == [0]

    def test_normalized_mean_is_one(self):
        profile = SensitivityProfile("v", np.array([2.0, 4.0]))
        assert np.mean(profile.normalized().weights) == pytest.approx(1.0)

    def test_uniform_profile(self):
        profile = SensitivityProfile.uniform("v", 5)
        assert np.allclose(profile.weights, 1.0)

    def test_serialization_roundtrip(self, tmp_path):
        profile = SensitivityProfile("v", np.array([0.7, 1.3]), num_ratings=12,
                                     cost_usd=3.5)
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = SensitivityProfile.load(path)
        assert loaded.video_id == "v"
        assert np.allclose(loaded.weights, profile.weights)
        assert loaded.cost_usd == 3.5


class TestWeightInference:
    def _series_with_mos(self, oracle, encoded):
        pristine = render_pristine(encoded)
        series = [pristine] + make_video_series(
            encoded, QualityIncident.rebuffering(0, 1.0)
        )
        mos = [1.0 + 4.0 * oracle.true_qoe(r) for r in series]
        return series, mos

    def test_weights_positive_and_normalised(self, oracle, small_encoded):
        series, mos = self._series_with_mos(oracle, small_encoded)
        profile = infer_weights(series, mos, base_model=KSQIModel())
        assert profile.num_chunks == small_encoded.num_chunks
        assert np.all(profile.weights > 0)
        assert np.mean(profile.weights) == pytest.approx(1.0)

    def test_weights_recover_sensitivity_ranking(self, oracle, small_encoded):
        series, mos = self._series_with_mos(oracle, small_encoded)
        profile = infer_weights(series, mos, base_model=KSQIModel())
        truth = oracle.normalized_sensitivity(small_encoded.source)
        assert spearman_correlation(profile.weights, truth) > 0.6

    def test_noisier_mos_still_positive(self, oracle, small_encoded):
        series, mos = self._series_with_mos(oracle, small_encoded)
        rng = np.random.default_rng(0)
        noisy = [m + rng.normal(0, 0.2) for m in mos]
        profile = infer_weights(series, noisy, base_model=KSQIModel())
        assert np.all(profile.weights > 0)

    def test_uniform_mos_gives_near_uniform_weights(self, small_encoded):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 1.0))
        mos = [3.0] * len(series)
        profile = infer_weights(series, mos, base_model=KSQIModel())
        assert float(np.std(profile.weights)) < 0.25

    def test_rejects_mismatched_inputs(self, small_encoded):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 1.0))
        with pytest.raises(ValueError):
            infer_weights(series, [3.0], base_model=KSQIModel())


class TestSenseiQoEModel:
    def test_unprofiled_video_falls_back_to_base(self, pristine):
        model = SenseiQoEModel()
        assert model.score(pristine) == pytest.approx(KSQIModel().score(pristine))

    def test_profile_changes_prediction(self, oracle, small_encoded, pristine):
        model = SenseiQoEModel()
        weights = oracle.normalized_sensitivity(small_encoded.source)
        model.add_profile(SensitivityProfile(small_encoded.source.video_id, weights))
        most = int(np.argmax(weights))
        least = int(np.argmin(weights))
        at_most = inject_incident(pristine, QualityIncident.rebuffering(most, 2.0))
        at_least = inject_incident(pristine, QualityIncident.rebuffering(least, 2.0))
        assert model.score(at_most) < model.score(at_least)
        # The weight-unaware base model cannot tell the two apart.
        base = KSQIModel()
        assert base.score(at_most) == pytest.approx(base.score(at_least), abs=1e-6)

    def test_has_profile_and_lookup(self, small_encoded):
        model = SenseiQoEModel()
        assert not model.has_profile(small_encoded.source.video_id)
        model.add_profile(
            SensitivityProfile.uniform(small_encoded.source.video_id,
                                       small_encoded.num_chunks)
        )
        assert model.has_profile(small_encoded.source.video_id)
        assert model.profile_for(small_encoded.source.video_id) is not None

    def test_mismatched_profile_length_ignored(self, small_encoded, pristine):
        model = SenseiQoEModel()
        model.add_profile(
            SensitivityProfile(small_encoded.source.video_id, np.array([1.0, 2.0]))
        )
        assert np.allclose(model.weights_for(pristine), 1.0)

    def test_fit_trains_base_model(self, oracle, small_encoded, pristine):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 2.0))
        renderings = [pristine] + series
        mos = [1 + 4 * oracle.true_qoe(r) for r in renderings]
        model = SenseiQoEModel()
        model.fit(renderings, mos)
        assert model.base_model.coefficients.rebuffer_weight > 0


class TestScheduler:
    def test_step1_one_rendering_per_chunk_plus_reference(self, small_encoded):
        scheduler = TwoStepScheduler()
        schedule = scheduler.step1_schedule(small_encoded)
        assert len(schedule.renderings) == small_encoded.num_chunks + 1
        assert schedule.step == 1

    def test_step1_probe_is_one_second_stall(self, small_encoded):
        schedule = TwoStepScheduler().step1_schedule(small_encoded)
        stalled = [r for r in schedule.renderings if r.total_stall_s() > 0]
        assert all(r.total_stall_s() == pytest.approx(1.0) for r in stalled)

    def test_select_chunks_to_reprobe_threshold(self):
        scheduler = TwoStepScheduler(SchedulerConfig(deviation_threshold=0.25))
        weights = np.array([1.0, 1.0, 1.4, 0.6, 1.05])
        selected = scheduler.select_chunks_to_reprobe(weights)
        assert set(selected) == {2, 3}

    def test_step2_only_probes_selected_chunks(self, small_encoded):
        config = SchedulerConfig(deviation_threshold=0.3)
        scheduler = TwoStepScheduler(config)
        weights = np.ones(small_encoded.num_chunks)
        weights[4] = 2.0
        schedule = scheduler.step2_schedule(small_encoded, weights)
        expected = config.step2_num_bitrate_levels + config.step2_num_rebuffer_lengths
        assert len(schedule.renderings) == expected
        assert schedule.step == 2

    def test_step2_empty_when_no_deviation(self, small_encoded):
        scheduler = TwoStepScheduler(SchedulerConfig(deviation_threshold=0.5))
        schedule = scheduler.step2_schedule(
            small_encoded, np.ones(small_encoded.num_chunks)
        )
        assert len(schedule.renderings) == 0

    def test_exhaustive_schedule_is_larger_than_two_step(self, small_encoded):
        scheduler = TwoStepScheduler()
        step1 = scheduler.step1_schedule(small_encoded)
        exhaustive = scheduler.exhaustive_schedule(small_encoded)
        assert exhaustive.total_video_seconds() > step1.total_video_seconds()

    def test_total_video_seconds_counts_ratings(self, small_encoded):
        schedule = TwoStepScheduler(
            SchedulerConfig(step1_ratings=3)
        ).step1_schedule(small_encoded)
        single = schedule.total_video_seconds() / 3
        assert single > 0


class TestProfiler:
    @pytest.fixture(scope="class")
    def profiling_result(self, oracle, small_encoded):
        profiler = SenseiProfiler(
            oracle=oracle,
            scheduler_config=SchedulerConfig(step1_ratings=6, step2_ratings=3),
            campaign_seed=19,
        )
        return profiler.profile_video(small_encoded)

    def test_profile_has_weight_per_chunk(self, profiling_result, small_encoded):
        assert profiling_result.profile.num_chunks == small_encoded.num_chunks

    def test_weights_correlate_with_truth(self, profiling_result, oracle, small_encoded):
        truth = oracle.normalized_sensitivity(small_encoded.source)
        assert spearman_correlation(profiling_result.weights, truth) > 0.4

    def test_cost_is_positive_and_accounted(self, profiling_result):
        assert profiling_result.total_cost_usd > 0
        assert profiling_result.cost_per_source_minute_usd > 0

    def test_two_step_cheaper_than_exhaustive(self, oracle, small_encoded):
        pruned = SenseiProfiler(
            oracle=oracle,
            scheduler_config=SchedulerConfig(step1_ratings=4, step2_ratings=2),
            campaign_seed=23,
            use_two_step=True,
        ).profile_video(small_encoded)
        exhaustive = SenseiProfiler(
            oracle=oracle,
            campaign_seed=23,
            use_two_step=False,
        ).profile_video(small_encoded)
        assert pruned.total_cost_usd < exhaustive.total_cost_usd

    def test_exhaustive_arm_rates_its_pristine_rendering(
        self, oracle, small_encoded
    ):
        """The exhaustive schedule's pristine rendering is rated like every
        other rendering, not taken for the survey reference (whose ratings
        are discarded, leaving the 3.0 fallback MOS)."""
        campaign = SenseiProfiler(
            oracle=oracle, campaign_seed=23, use_two_step=False,
        ).profile_video(small_encoded).step1_result
        pristine_id = f"{small_encoded.source.video_id}/full/pristine"
        assert any(
            record.accepted and record.rating.render_id == pristine_id
            for record in campaign.records
        )
        assert campaign.mos[pristine_id] > 4.0

    def test_build_qoe_model_contains_profiles(self, oracle, small_encoded):
        profiler = SenseiProfiler(
            oracle=oracle,
            scheduler_config=SchedulerConfig(step1_ratings=4, step2_ratings=2),
            campaign_seed=29,
        )
        results = profiler.profile_videos([small_encoded])
        model = profiler.build_qoe_model(results)
        assert model.has_profile(small_encoded.source.video_id)


class TestSenseiABR:
    def test_sensei_fugu_streams(self, small_encoded, constant_trace, oracle):
        weights = oracle.normalized_sensitivity(small_encoded.source)
        result = simulate_session(
            SenseiFuguABR(), small_encoded, constant_trace, chunk_weights=weights
        )
        assert result.rendered.num_chunks == small_encoded.num_chunks

    def test_sensei_fugu_no_gratuitous_stalls_on_fast_network(
        self, small_encoded, oracle
    ):
        trace = ThroughputTrace.constant(10.0, duration_s=600.0)
        weights = oracle.normalized_sensitivity(small_encoded.source)
        result = simulate_session(
            SenseiFuguABR(), small_encoded, trace, chunk_weights=weights
        )
        assert result.timeline.proactive_stall_count() == 0
        assert result.rendered.total_stall_s() == 0.0

    def test_sensei_fugu_proactive_budget_respected(self, small_encoded, oracle):
        trace = ThroughputTrace.constant(0.6, duration_s=600.0)
        weights = oracle.normalized_sensitivity(small_encoded.source)
        abr = SenseiFuguABR(max_total_proactive_stall_s=2.0)
        result = simulate_session(
            abr, small_encoded, trace, chunk_weights=weights
        )
        proactive = sum(
            s.duration_s for s in result.timeline.stalls if s.cause == "proactive"
        )
        assert proactive <= 2.0 + 1e-6

    def test_sensei_fugu_at_least_as_good_as_fugu_on_average(
        self, library, oracle
    ):
        """On a small video/trace mix, SENSEI-Fugu should not lose to Fugu."""
        from repro.abr.fugu import FuguABR
        from repro.network.bank import TraceBank
        from repro.core.profiler import SenseiProfiler

        video_ids = ["soccer1", "lava"]
        bank = TraceBank(num_traces=3, duration_s=600.0, seed=31)
        profiler = SenseiProfiler(
            oracle=oracle,
            scheduler_config=SchedulerConfig(step1_ratings=6, step2_ratings=3),
            campaign_seed=31,
        )
        sensei_scores, fugu_scores = [], []
        for video_id in video_ids:
            encoded = library.encoded(video_id)
            weights = profiler.profile_video(encoded).profile.weights
            for trace in bank.traces():
                sensei_scores.append(oracle.true_qoe(simulate_session(
                    SenseiFuguABR(), encoded, trace, chunk_weights=weights
                ).rendered))
                fugu_scores.append(oracle.true_qoe(simulate_session(
                    FuguABR(), encoded, trace
                ).rendered))
        assert np.mean(sensei_scores) >= np.mean(fugu_scores) - 0.03

    def test_sensei_pensieve_configuration(self):
        abr = make_sensei_pensieve()
        assert abr.config.weight_horizon == 5
        assert abr.config.num_actions == 7
        assert abr.name == "SENSEI-Pensieve"

    def test_sensei_pensieve_requires_weights_in_state(self):
        from repro.abr.pensieve import PensieveConfig
        with pytest.raises(ValueError):
            SenseiPensieveABR(config=PensieveConfig(weight_horizon=0))

    def test_sensei_pensieve_streams(self, small_encoded, constant_trace, oracle):
        weights = oracle.normalized_sensitivity(small_encoded.source)
        result = simulate_session(
            make_sensei_pensieve(), small_encoded, constant_trace,
            chunk_weights=weights,
        )
        assert result.rendered.num_chunks == small_encoded.num_chunks
