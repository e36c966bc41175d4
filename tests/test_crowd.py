"""Tests for the simulated crowdsourcing substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.crowd.cost import CostModel
from repro.crowd.survey import build_survey_plan
from repro.crowd.worker import WorkerPool, WorkerProfile
from repro.video.rendering import QualityIncident, make_video_series, render_pristine
from tests.crowd_oracle import SimulatedWorker


@pytest.fixture(scope="module")
def series(small_encoded):
    return make_video_series(small_encoded, QualityIncident.rebuffering(0, 1.0))


class TestWorkers:
    def test_pool_size_and_masters(self):
        pool = WorkerPool(size=50, master_fraction=0.8, seed=1)
        profiles = pool.profiles
        assert len(profiles) == 50
        master_share = np.mean([p.is_master for p in profiles])
        assert 0.5 < master_share <= 1.0

    def test_sample_workers_count(self):
        pool = WorkerPool(size=30, seed=1)
        assert len(pool.sample_workers(10)) == 10

    def test_sampling_more_than_pool_allows_replacement(self):
        pool = WorkerPool(size=5, seed=1)
        assert len(pool.sample_workers(20)) == 20

    def test_attentive_worker_rating_tracks_truth(self, pristine):
        profile = WorkerProfile(
            worker_id="w", bias=0.0, noise_sigma=0.0, attention=1.0
        )
        worker = SimulatedWorker(profile, seed=3)
        high = worker.rate(pristine, true_mos=4.8)
        low = worker.rate(pristine, true_mos=2.0)
        assert high.score > low.score
        assert high.watched_fully and high.incident_confirmed

    def test_rating_rounded_to_half_points(self, pristine):
        profile = WorkerProfile("w", bias=0.1, noise_sigma=0.2, attention=1.0)
        rating = SimulatedWorker(profile, seed=1).rate(pristine, true_mos=3.7)
        assert (rating.score * 2) == int(rating.score * 2)

    def test_rating_in_likert_range(self, pristine):
        profile = WorkerProfile("w", bias=5.0, noise_sigma=3.0, attention=1.0)
        rating = SimulatedWorker(profile, seed=1).rate(pristine, true_mos=4.9)
        assert 1.0 <= rating.score <= 5.0

    def test_true_mos_validation(self, pristine):
        profile = WorkerProfile("w", bias=0.0, noise_sigma=0.1, attention=1.0)
        with pytest.raises(ValueError):
            SimulatedWorker(profile).rate(pristine, true_mos=7.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkerProfile("w", bias=0.0, noise_sigma=0.1, attention=1.5)


def _rated(plan, survey):
    """The rendering positions one survey (a plan row) shows, reference
    excluded."""
    return plan.positions[survey, :plan.lengths[survey] - 1].tolist()


class TestSurveyPlan:
    def test_every_rendering_gets_requested_ratings(self, series):
        plan = build_survey_plan(len(series), ratings_per_rendering=4,
                                 videos_per_survey=3, seed=1)
        rated = plan.positions[plan.live & (plan.positions != len(series))]
        assert np.bincount(rated, minlength=len(series)).tolist() == [4] * len(series)

    def test_surveys_respect_size_limit(self, series):
        plan = build_survey_plan(len(series), ratings_per_rendering=3,
                                 videos_per_survey=4, seed=1)
        assert plan.positions.shape[1] <= 4 + 1
        for survey in range(plan.num_participants()):
            assert 1 <= len(_rated(plan, survey)) <= 4

    def test_no_duplicate_rendering_within_survey(self, series):
        plan = build_survey_plan(len(series), ratings_per_rendering=5,
                                 videos_per_survey=4, seed=2)
        for survey in range(plan.num_participants()):
            indices = _rated(plan, survey)
            assert len(indices) == len(set(indices))

    def test_presentation_order_contains_reference(self, series):
        plan = build_survey_plan(len(series), ratings_per_rendering=2, seed=1)
        orders = plan.viewing_orders(np.random.default_rng(0))
        # The reference is the position after the last rendering: shown once
        # by every survey, padding aside, beside that survey's renderings.
        for survey, order in enumerate(orders):
            shown = order[:plan.lengths[survey]].tolist()
            assert sorted(shown) == sorted(_rated(plan, survey) + [len(series)])

    def test_total_video_seconds_positive(self, series, pristine):
        plan = build_survey_plan(len(series), ratings_per_rendering=2, seed=1)
        seconds = [r.watch_duration_s for r in [*series, pristine]]
        total = plan.total_video_seconds(seconds)
        assert total > 0
        # Each rendering is watched twice, the reference once per survey.
        assert total == pytest.approx(
            2 * sum(seconds[:-1]) + plan.num_participants() * seconds[-1]
        )


class TestCostModel:
    def test_payment_proportional_to_time(self):
        cost = CostModel(hourly_rate_usd=10.0, overhead_factor=1.0)
        assert cost.payment_for_watch_time(3600.0) == pytest.approx(10.0)
        assert cost.payment_for_watch_time(1800.0) == pytest.approx(5.0)

    def test_overhead_increases_cost(self):
        plain = CostModel(overhead_factor=1.0).payment_for_watch_time(3600)
        padded = CostModel(overhead_factor=1.5).payment_for_watch_time(3600)
        assert padded > plain

    def test_cost_per_source_minute(self):
        cost = CostModel()
        assert cost.cost_per_source_minute(60.0, 120.0) == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(hourly_rate_usd=0.0)
        with pytest.raises(ValueError):
            CostModel(overhead_factor=0.9)


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign_result(self, oracle, series, pristine):
        campaign = MTurkCampaign(
            oracle=oracle,
            config=CampaignConfig(ratings_per_rendering=8, seed=5),
        )
        return campaign.run(series, reference=pristine)

    def test_every_rendering_has_mos(self, campaign_result, series):
        assert set(campaign_result.mos) == {r.render_id for r in series}

    def test_mos_in_likert_range(self, campaign_result):
        for value in campaign_result.mos.values():
            assert 1.0 <= value <= 5.0

    def test_normalized_mos_in_unit_range(self, campaign_result):
        for value in campaign_result.normalized_mos.values():
            assert 0.0 <= value <= 1.0

    def test_cost_accounting_positive(self, campaign_result):
        assert campaign_result.total_paid_usd > 0.0
        assert campaign_result.total_watch_seconds > 0.0

    def test_rejection_rate_reasonable(self, campaign_result):
        assert 0.0 <= campaign_result.rejection_rate() < 0.6

    def test_mos_tracks_true_qoe_ranking(self, oracle, campaign_result, series):
        true_values = [oracle.true_qoe(r) for r in series]
        mos_values = [campaign_result.mos[r.render_id] for r in series]
        assert np.corrcoef(true_values, mos_values)[0, 1] > 0.4

    def test_records_mark_reference_excluded(self, campaign_result, pristine):
        reference_records = [
            rec for rec in campaign_result.records
            if rec.rating.render_id == pristine.render_id
        ]
        assert all(not rec.accepted for rec in reference_records)

    def test_masters_rejected_less_than_general_pool(self, oracle, series, pristine):
        masters = MTurkCampaign(
            oracle=oracle,
            worker_pool=WorkerPool(master_fraction=1.0, seed=9),
            config=CampaignConfig(ratings_per_rendering=6, masters_only=True, seed=9),
        ).run(series, reference=pristine)
        general = MTurkCampaign(
            oracle=oracle,
            worker_pool=WorkerPool(master_fraction=0.0, seed=9),
            config=CampaignConfig(ratings_per_rendering=6, masters_only=False, seed=9),
        ).run(series, reference=pristine)
        assert masters.rejection_rate() <= general.rejection_rate()
