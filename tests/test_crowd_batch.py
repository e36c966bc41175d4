"""Differential suite: the columnar campaign against the per-rating oracle.

:meth:`repro.crowd.campaign.MTurkCampaign.run` scores whole surveys from
the worker pool's per-worker draw table and keeps the ratings as columns.
It must reproduce, bit for bit, what the per-rating loop kept in
:mod:`tests.crowd_oracle` computes: a worker built per survey rates one
rendering at a time, and the rejection rules run over those ratings.  The
columnar survey plan and its viewing orders must equal the oracle's
per-slot packer and per-survey permutations, draw for draw.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiler import SenseiProfiler
from repro.core.scheduler import SchedulerConfig, TwoStepScheduler
from repro.crowd import worker as worker_module
from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.crowd.survey import build_survey_plan
from repro.crowd.worker import WorkerPool
from repro.qoe.ground_truth import GroundTruthOracle
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.rendering import RenderedVideo, render_pristine
from repro.video.video import SourceVideo
from tests import crowd_oracle

ORACLE = GroundTruthOracle()


@lru_cache(maxsize=None)
def _encoded(num_chunks: int = 12):
    source = SourceVideo.synthesize(
        "crowd-diff", "sports", duration_s=4.0 * num_chunks,
        chunk_duration_s=4.0, seed=3,
    )
    return SyntheticEncoder(seed=5).encode(source, DEFAULT_LADDER)


def _renderings(seed: int, count: int):
    """``count`` random renderings with stalls and startup delays."""
    encoded = _encoded()
    rng = np.random.default_rng(seed)
    num_chunks = encoded.num_chunks
    renderings = []
    for index in range(count):
        stalls = rng.exponential(1.5, size=num_chunks)
        stalls[rng.random(num_chunks) < 0.7] = 0.0
        renderings.append(RenderedVideo(
            encoded=encoded,
            levels=rng.integers(0, encoded.ladder.num_levels, size=num_chunks),
            stalls_s=stalls,
            startup_delay_s=float(rng.choice([0.0, rng.uniform(0.0, 10.0)])),
            render_id=f"r{index}",
        ))
    return renderings


def _assert_same(result, expected) -> None:
    assert result.mos == expected.mos
    assert list(result.mos) == list(expected.mos)
    assert result.normalized_mos == expected.normalized_mos
    assert result.total_paid_usd == expected.total_paid_usd
    assert result.total_watch_seconds == expected.total_watch_seconds
    assert result.num_participants == expected.num_participants
    assert result.num_rejected_participants == expected.num_rejected_participants
    assert result.records == expected.records
    assert result.num_accepted_ratings == sum(r.accepted for r in expected.records)


def _campaigns(pool_args, config):
    """Two campaigns on two equal pools: one columnar, one for the oracle."""
    return (
        MTurkCampaign(ORACLE, WorkerPool(**pool_args), config=config),
        MTurkCampaign(ORACLE, WorkerPool(**pool_args), config=config),
    )


def _assert_same_plan(num_renderings, ratings_per_rendering, videos_per_survey, seed):
    """The columnar plan and its viewing orders against the oracle's."""
    plan = build_survey_plan(
        num_renderings, ratings_per_rendering, videos_per_survey, seed=seed
    )
    surveys = crowd_oracle.build_survey_plan(
        num_renderings, ratings_per_rendering, videos_per_survey, seed=seed
    )
    lengths = plan.lengths.tolist()
    assert [
        row[:length - 1] for row, length in zip(plan.positions.tolist(), lengths)
    ] == surveys
    assert lengths == [len(survey) + 1 for survey in surveys]
    assert plan.positions.shape[1] == max(lengths)
    # The reference is each row's last live column and pads the rest.
    assert (plan.positions[~plan.live] == num_renderings).all()
    assert (plan.positions[np.arange(len(lengths)), plan.lengths - 1]
            == num_renderings).all()
    columnar_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
    shown = plan.viewing_orders(columnar_rng)
    assert [row[:length] for row, length in zip(shown.tolist(), lengths)] == [
        crowd_oracle.presentation_order(survey, num_renderings, oracle_rng)
        for survey in surveys
    ]
    assert (shown[~plan.live] == num_renderings).all()
    # The order stream is left where one permutation per survey leaves it.
    assert columnar_rng.integers(2**63) == oracle_rng.integers(2**63)
    return plan


@settings(max_examples=150, deadline=None)
@given(
    num_renderings=st.integers(1, 200),
    ratings_per_rendering=st.integers(1, 12),
    videos_per_survey=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_survey_plan_and_orders_match_per_slot_oracle(
    num_renderings, ratings_per_rendering, videos_per_survey, seed
):
    _assert_same_plan(num_renderings, ratings_per_rendering, videos_per_survey, seed)


@pytest.mark.parametrize("seed", [0, 29, 31])
@pytest.mark.parametrize(
    "num_renderings, ratings_per_rendering, videos_per_survey",
    [
        (1, 1, 1),   # one slot
        (1, 12, 5),  # one rendering: every survey holds one video
        (3, 4, 7),   # fewer renderings than a survey holds
        (6, 5, 7),
        (40, 3, 1),  # one video per survey: every window is whole
        (7, 3, 5),   # 21 slots: a ragged final survey
        (53, 11, 5), # the step-1 shape of a long video
        (200, 12, 7),
    ],
)
def test_survey_plan_edge_shapes_match_per_slot_oracle(
    num_renderings, ratings_per_rendering, videos_per_survey, seed
):
    plan = _assert_same_plan(
        num_renderings, ratings_per_rendering, videos_per_survey, seed
    )
    if num_renderings < videos_per_survey:
        assert plan.positions.shape[1] <= num_renderings + 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 9),
    pool_size=st.integers(1, 40),
    master_fraction=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    masters_only=st.booleans(),
    ratings_per_rendering=st.integers(1, 12),
    videos_per_survey=st.integers(1, 6),
)
def test_campaign_matches_per_rating_oracle_bitwise(
    seed, count, pool_size, master_fraction, masters_only,
    ratings_per_rendering, videos_per_survey,
):
    renderings = _renderings(seed, count)
    reference = render_pristine(_encoded())
    pool_args = dict(size=pool_size, master_fraction=master_fraction, seed=seed % 997)
    config = CampaignConfig(
        ratings_per_rendering=ratings_per_rendering,
        videos_per_survey=videos_per_survey,
        masters_only=masters_only,
        seed=seed % 101,
    )
    columnar, reference_campaign = _campaigns(pool_args, config)
    if masters_only and not any(p.is_master for p in columnar.worker_pool.profiles):
        with pytest.raises(ValueError, match="no eligible workers"):
            columnar.run(renderings, reference=reference)
        return
    # Two campaigns in a row on one pool: the second reuses the first's
    # workers and the participant stream where the first left it.
    for _ in range(2):
        _assert_same(
            columnar.run(renderings, reference=reference),
            crowd_oracle.run_campaign(reference_campaign, renderings, reference),
        )


def test_more_participants_than_candidates_sample_with_replacement():
    renderings = _renderings(5, 6)
    pool_args = dict(size=6, master_fraction=0.5, seed=4)
    config = CampaignConfig(ratings_per_rendering=12, videos_per_survey=2, seed=8)
    columnar, reference_campaign = _campaigns(pool_args, config)
    result = columnar.run(renderings)
    _assert_same(result, crowd_oracle.run_campaign(reference_campaign, renderings))
    masters = sum(p.is_master for p in columnar.worker_pool.profiles)
    assert result.num_participants > masters
    # Ratings of 8 and more per rendering exercise np.mean's pairwise sum.
    assert max(
        sum(r.accepted and r.rating.render_id == rid for r in result.records)
        for rid in result.mos
    ) >= 8


def test_exhaustive_schedule_matches_oracle():
    encoded = _encoded()
    schedule = TwoStepScheduler().exhaustive_schedule(encoded)
    reference = render_pristine(encoded)
    config = CampaignConfig(ratings_per_rendering=schedule.ratings_per_rendering, seed=3)
    columnar, reference_campaign = _campaigns(dict(seed=40), config)
    _assert_same(
        columnar.run(schedule.renderings, reference=reference),
        crowd_oracle.run_campaign(reference_campaign, schedule.renderings, reference),
    )


def test_profile_counts_accepted_ratings():
    result = SenseiProfiler(
        oracle=ORACLE,
        scheduler_config=SchedulerConfig(step1_ratings=4, step2_ratings=3),
        campaign_seed=17,
    ).profile_video(_encoded())
    campaigns = [result.step1_result, result.step2_result]
    assert result.profile.num_ratings == sum(
        record.accepted for c in campaigns if c is not None for record in c.records
    )


def test_campaign_seeds_one_worker_stream_per_distinct_worker():
    """The draw table seeds a worker's stream once per pool, not once per
    survey: a worker rating in many surveys costs one ``spawn_rng``."""
    renderings = _renderings(11, 8)
    pool = WorkerPool(size=5, master_fraction=1.0, seed=2)
    seeded = []
    real_spawn = worker_module.spawn_rng

    def spy(base_seed, *labels):
        if labels and labels[0] == "worker":
            seeded.append(labels[1])
        return real_spawn(base_seed, *labels)

    with mock.patch.object(worker_module, "spawn_rng", spy):
        results = [
            MTurkCampaign(
                ORACLE, pool, config=CampaignConfig(ratings_per_rendering=6, seed=seed)
            ).run(renderings)
            for seed in (1, 2)
        ]
    workers = {r.rating.worker_id for result in results for r in result.records}
    assert results[0].num_participants > len(workers)
    assert len(seeded) == len(set(seeded)) <= len(workers)
