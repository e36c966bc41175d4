"""Tests for the QoE models and the ground-truth oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.sensitivity import qoe_gap
from repro.qoe.base import CHUNK_FEATURE_NAMES, chunk_feature_matrix
from repro.qoe.ground_truth import GroundTruthOracle, SensitivityParameters
from repro.qoe.ksqi import KSQIModel
from repro.qoe.lstm_qoe import LSTMQoEModel
from repro.qoe.metrics import evaluate_model
from repro.qoe.p1203 import P1203Model, summary_features
from repro.qoe.vqa import psnr_proxy, ssim_proxy, vmaf_proxy
from repro.video.rendering import (
    QualityIncident,
    inject_incident,
    make_video_series,
    render_pristine,
)


@pytest.fixture(scope="module")
def degraded(pristine):
    """A rendering with one stall and one bitrate drop."""
    rendered = inject_incident(pristine, QualityIncident.rebuffering(3, 2.0))
    return inject_incident(rendered, QualityIncident.bitrate_drop(7, 0))


class TestFeatureExtraction:
    def test_matrix_shape(self, pristine):
        matrix = chunk_feature_matrix(pristine)
        assert matrix.shape == (pristine.num_chunks, len(CHUNK_FEATURE_NAMES))

    def test_pristine_features(self, pristine):
        matrix = chunk_feature_matrix(pristine)
        assert np.all(matrix[:, 1] == 0.0)       # no stalls
        assert np.all(matrix[:, 2] == 0.0)       # no switches
        assert np.all(matrix[:, 3] == 1.0)       # top bitrate

    def test_degraded_features(self, degraded):
        matrix = chunk_feature_matrix(degraded)
        assert matrix[3, 1] == 2.0
        assert matrix[7, 3] < 1.0


class TestVQAProxies:
    def test_vmaf_range(self, pristine):
        vmaf = vmaf_proxy(pristine)
        assert np.all((vmaf >= 0) & (vmaf <= 100))

    def test_ssim_range_and_monotonicity(self, pristine, degraded):
        assert np.all((ssim_proxy(pristine) >= 0) & (ssim_proxy(pristine) <= 1))
        assert ssim_proxy(degraded)[7] < ssim_proxy(pristine)[7]

    def test_psnr_decreases_with_bitrate_drop(self, pristine, degraded):
        assert psnr_proxy(degraded)[7] < psnr_proxy(pristine)[7]

    def test_vmaf_drops_where_bitrate_drops(self, pristine, degraded):
        assert vmaf_proxy(degraded)[7] < vmaf_proxy(pristine)[7]


class TestGroundTruthOracle:
    def test_pristine_scores_high(self, oracle, pristine):
        assert oracle.true_qoe(pristine) > 0.85

    def test_qoe_in_unit_interval(self, oracle, degraded):
        assert 0.0 <= oracle.true_qoe(degraded) <= 1.0

    def test_incidents_reduce_qoe(self, oracle, pristine, degraded):
        assert oracle.true_qoe(degraded) < oracle.true_qoe(pristine)

    def test_longer_stall_hurts_more(self, oracle, pristine):
        short = inject_incident(pristine, QualityIncident.rebuffering(3, 1.0))
        long = inject_incident(pristine, QualityIncident.rebuffering(3, 4.0))
        assert oracle.true_qoe(long) < oracle.true_qoe(short)

    def test_sensitivity_position_matters(self, oracle, small_encoded, pristine):
        sensitivity = oracle.sensitivity_curve(small_encoded.source)
        most = int(np.argmax(sensitivity))
        least = int(np.argmin(sensitivity))
        at_most = inject_incident(pristine, QualityIncident.rebuffering(most, 2.0))
        at_least = inject_incident(pristine, QualityIncident.rebuffering(least, 2.0))
        assert oracle.true_qoe(at_most) < oracle.true_qoe(at_least)

    def test_sensitivity_tracks_key_moments(self, oracle, small_video):
        sensitivity = oracle.sensitivity_curve(small_video)
        key_moments = small_video.key_moment_curve()
        assert np.corrcoef(sensitivity, key_moments)[0, 1] > 0.99

    def test_normalized_sensitivity_mean_one(self, oracle, small_video):
        assert np.mean(oracle.normalized_sensitivity(small_video)) == pytest.approx(1.0)

    def test_mos_scale(self, oracle, pristine):
        mos = oracle.true_mos(pristine)
        assert 1.0 <= mos <= 5.0
        assert mos == pytest.approx(1.0 + 4.0 * oracle.true_qoe(pristine))

    def test_startup_delay_penalised(self, oracle, pristine):
        from dataclasses import replace
        delayed = replace(pristine, startup_delay_s=10.0)
        assert oracle.true_qoe(delayed) < oracle.true_qoe(pristine)

    def test_qoe_gap_for_series(self, oracle, small_encoded):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 1.0))
        gap = qoe_gap(oracle.true_qoe_batch(series))
        assert gap > 0.0
        assert qoe_gap([0.5, 0.75]) == 0.5
        # A zero minimum is floored, not divided by.
        assert qoe_gap([0.0, 1.0]) == pytest.approx(1e9)

    def test_incident_type_agnostic_ranking(self, oracle, small_encoded):
        series_a = make_video_series(small_encoded, QualityIncident.rebuffering(0, 1.0))
        series_b = make_video_series(small_encoded, QualityIncident.rebuffering(0, 4.0))
        qoe_a = [oracle.true_qoe(r) for r in series_a]
        qoe_b = [oracle.true_qoe(r) for r in series_b]
        assert np.corrcoef(qoe_a, qoe_b)[0, 1] > 0.9

    def test_custom_parameters_validation(self):
        with pytest.raises(ValueError):
            SensitivityParameters(base_sensitivity=0.0)
        with pytest.raises(ValueError):
            SensitivityParameters(rebuffer_penalty_per_s=-1.0)

    def test_saturation_keeps_qoe_nonnegative(self, oracle, pristine):
        rendered = pristine
        for chunk in range(0, pristine.num_chunks, 2):
            rendered = inject_incident(
                rendered, QualityIncident.rebuffering(chunk, 6.0)
            )
        assert oracle.true_qoe(rendered) >= 0.0


class TestKSQI:
    def test_pristine_high_score(self, pristine):
        assert KSQIModel().score(pristine) > 0.7

    def test_incident_reduces_score(self, pristine, degraded):
        model = KSQIModel()
        assert model.score(degraded) < model.score(pristine)

    def test_chunk_scores_shape(self, pristine):
        assert KSQIModel().chunk_scores(pristine).shape == (pristine.num_chunks,)

    def test_weighted_score_emphasises_weighted_chunks(self, pristine):
        model = KSQIModel()
        stalled = inject_incident(pristine, QualityIncident.rebuffering(3, 2.0))
        weights_high = np.ones(pristine.num_chunks)
        weights_high[3] = 3.0
        weights_low = np.ones(pristine.num_chunks)
        weights_low[3] = 0.2
        assert model.weighted_score(stalled, weights_high) < model.weighted_score(
            stalled, weights_low
        )

    def test_chunk_quality_function_monotone_in_stall(self):
        model = KSQIModel()
        good = model.chunk_quality_function(4, 0.0, 90.0, 2850, 2850, 2850)
        bad = model.chunk_quality_function(4, 2.0, 90.0, 2850, 2850, 2850)
        assert bad < good

    def test_fit_learns_rebuffer_penalty(self, oracle, small_encoded, pristine):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 2.0))
        renderings = [pristine] + series
        mos = [1 + 4 * oracle.true_qoe(r) for r in renderings]
        model = KSQIModel().fit(renderings, mos)
        assert model.coefficients.rebuffer_weight > 0.0
        # After fitting, stalled renderings still score below pristine.
        assert model.score(series[0]) < model.score(pristine)

    def test_fit_requires_enough_points(self, pristine):
        with pytest.raises(ValueError):
            KSQIModel().fit([pristine], [4.0])


class TestP1203:
    def test_summary_features_shape(self, pristine):
        assert summary_features(pristine).shape == (10,)

    def test_untrained_fallback_orders_renderings(self, pristine, degraded):
        model = P1203Model()
        assert model.score(degraded) <= model.score(pristine)

    def test_training_improves_fit(self, oracle, small_encoded, pristine):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 3.0))
        renderings = [pristine] + series
        labels = [oracle.true_qoe(r) for r in renderings]
        model = P1203Model(num_trees=10, seed=1).fit(renderings, labels)
        predictions = model.score_many(renderings)
        assert np.corrcoef(predictions, labels)[0, 1] > 0.3

    def test_score_in_unit_interval(self, pristine, degraded):
        model = P1203Model()
        for rendering in (pristine, degraded):
            assert 0.0 <= model.score(rendering) <= 1.0


class TestLSTMQoE:
    def test_untrained_fallback_in_range(self, pristine, degraded):
        model = LSTMQoEModel()
        assert 0.0 <= model.score(degraded) <= model.score(pristine) <= 1.0

    def test_training_runs_and_predicts(self, oracle, small_encoded, pristine):
        series = make_video_series(
            small_encoded, QualityIncident.rebuffering(0, 3.0), chunk_indices=range(6)
        )
        renderings = [pristine] + series
        labels = [oracle.true_qoe(r) for r in renderings]
        model = LSTMQoEModel(hidden_dim=8, epochs=3, seed=2).fit(renderings, labels)
        predictions = model.score_many(renderings)
        assert predictions.shape == (len(renderings),)
        assert np.all((predictions >= 0) & (predictions <= 1))


class TestModelEvaluation:
    def test_evaluate_model_perfect_predictor(self, oracle, small_encoded):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 2.0))
        labels = [oracle.true_qoe(r) for r in series]

        class OracleModel(KSQIModel):
            name = "oracle-proxy"

            def score(self, rendered):
                return oracle.true_qoe(rendered)

        evaluation = evaluate_model(OracleModel(), series, labels)
        assert evaluation.plcc == pytest.approx(1.0)
        assert evaluation.srcc == pytest.approx(1.0)
        assert evaluation.discordant_fraction == 0.0
        assert evaluation.mean_relative_error == pytest.approx(0.0)

    def test_evaluation_dict_keys(self, oracle, small_encoded):
        series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 2.0))
        labels = [oracle.true_qoe(r) for r in series]
        evaluation = evaluate_model(KSQIModel(), series, labels)
        assert {"model", "plcc", "srcc"} <= set(evaluation.as_dict())
