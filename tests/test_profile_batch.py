"""Differential suite: the profiler's rendering columns against the
per-object oracle.

Schedules are :class:`~repro.video.rendering.RenderingBatch` matrices filled
by :func:`~repro.video.rendering.inject_incidents`; the campaign, the
ground-truth oracle and weight inference read those matrices, and KSQI
scores a whole batch at once.  Everything must equal, bit for bit, what the
per-object bodies kept in :mod:`tests.profile_oracle` compute: one
``RenderedVideo`` per probe, scored one rendering at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiler import SenseiProfiler
from repro.core.scheduler import SchedulerConfig, TwoStepScheduler
from repro.core.weights import infer_weights
from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.crowd.worker import WorkerPool
from repro.experiments.common import ExperimentContext, ExperimentScale
from repro.qoe.ground_truth import GroundTruthOracle, SensitivityParameters
from repro.qoe.ksqi import KSQICoefficients, KSQIModel
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.rendering import (
    QualityIncident,
    RenderedVideo,
    RenderingBatch,
    inject_incident,
    render_pristine,
)
from repro.video.video import SourceVideo
from tests import profile_oracle

ORACLE = GroundTruthOracle()
SEEDS = (7, 11)


@lru_cache(maxsize=None)
def _context(scale: str, seed: int) -> ExperimentContext:
    return ExperimentContext(
        scale=getattr(ExperimentScale, scale)(), seed=seed
    )


def _videos(seed: int):
    """The tiny grid's videos plus one full-scale video."""
    full = _context("full", seed)
    return _context("tiny", seed).videos() + [
        full.library.encoded(full.video_ids()[0])
    ]


@lru_cache(maxsize=None)
def _encoded(num_chunks: int = 12):
    source = SourceVideo.synthesize(
        "profile-diff", "sports", duration_s=4.0 * num_chunks,
        chunk_duration_s=4.0, seed=3,
    )
    return SyntheticEncoder(seed=5).encode(source, DEFAULT_LADDER)


def _random_renderings(seed: int, count: int):
    """Renderings with random levels, stalls and startup delays."""
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
            startup_delay_s=float(rng.uniform(0.5, 10.0)),
            render_id=f"r{index}",
        ))
    return renderings


def _assert_same_renderings(batch: RenderingBatch, expected) -> None:
    assert list(batch.render_ids) == [r.render_id for r in expected]
    assert batch.levels.dtype == expected[0].levels.dtype
    assert batch.levels.tobytes() == np.stack([r.levels for r in expected]).tobytes()
    assert batch.stalls_s.tobytes() == np.stack(
        [r.stalls_s for r in expected]
    ).tobytes()
    assert batch.startup_delay_s.tolist() == [r.startup_delay_s for r in expected]
    assert batch.watch_duration_s.tolist() == [
        profile_oracle.watch_duration_s(r) for r in expected
    ]
    for row, rendering in zip(batch, expected):
        assert row.render_id == rendering.render_id
        assert row.levels.tobytes() == rendering.levels.tobytes()
        assert row.stalls_s.tobytes() == rendering.stalls_s.tobytes()
        assert row.startup_delay_s == rendering.startup_delay_s


def _step1_weights(num_chunks: int) -> np.ndarray:
    """Weights far enough from their mean at about half the chunks that
    step 2 re-probes them."""
    return 1.0 + 0.2 * np.sin(np.arange(num_chunks) * 1.7)


# ------------------------------------------------------------- schedules


@pytest.mark.parametrize("seed", SEEDS)
def test_schedules_match_per_object_schedules(seed):
    configs = (
        SchedulerConfig(),
        SchedulerConfig(
            include_reference=False, step1_stall_s=2.5,
            step2_num_bitrate_levels=3, step2_num_rebuffer_lengths=2,
        ),
    )
    for encoded in _videos(seed):
        weights = _step1_weights(encoded.num_chunks)
        for config in configs:
            scheduler = TwoStepScheduler(config)
            step1 = scheduler.step1_schedule(encoded)
            _assert_same_renderings(
                step1.renderings, profile_oracle.step1_schedule(scheduler, encoded)
            )
            step2 = scheduler.step2_schedule(encoded, weights)
            expected = profile_oracle.step2_schedule(scheduler, encoded, weights)
            assert expected
            _assert_same_renderings(step2.renderings, expected)
            for schedule, oracle_rows in (
                (step1, profile_oracle.step1_schedule(scheduler, encoded)),
                (step2, expected),
            ):
                assert schedule.total_video_seconds() == float(
                    sum(profile_oracle.watch_duration_s(r) for r in oracle_rows)
                    * schedule.ratings_per_rendering
                )
        exhaustive = TwoStepScheduler().exhaustive_schedule(encoded)
        _assert_same_renderings(
            exhaustive.renderings, profile_oracle.exhaustive_schedule(encoded)
        )


def test_empty_step2_schedule_is_an_empty_batch():
    encoded = _encoded()
    schedule = TwoStepScheduler().step2_schedule(
        encoded, np.ones(encoded.num_chunks)
    )
    assert len(schedule.renderings) == 0
    assert not schedule.renderings
    assert schedule.renderings.levels.shape == (0, encoded.num_chunks)
    assert schedule.total_video_seconds() == 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    chunk=st.integers(0, 11),
    stall_s=st.floats(0.1, 8.0),
    level=st.integers(0, 4),
    duration=st.integers(1, 15),
)
def test_inject_incident_matches_per_object_body(seed, chunk, stall_s, level, duration):
    (base,) = _random_renderings(seed, 1)
    for incident in (
        QualityIncident.rebuffering(chunk, stall_s),
        QualityIncident.bitrate_drop(chunk, level, duration_chunks=duration),
    ):
        _assert_same_renderings(
            RenderingBatch.of([inject_incident(base, incident, "x")]),
            [profile_oracle.inject_incident(base, incident, "x")],
        )


# ------------------------------------------------------- scores and weights


def _models():
    return (
        KSQIModel(),
        KSQIModel(KSQICoefficients(
            quality_weight=0.7, rebuffer_weight=1.3, switch_weight=0.6,
            startup_weight=0.25, intercept=-0.1,
        )),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_design_matrices_match_object_list(seed):
    for encoded in _videos(seed):
        scheduler = TwoStepScheduler()
        batch = RenderingBatch.concat([
            scheduler.step1_schedule(encoded).renderings,
            scheduler.step2_schedule(
                encoded, _step1_weights(encoded.num_chunks)
            ).renderings,
        ])
        for model in _models():
            design = model.chunk_scores_batch(batch) / batch.num_chunks
            assert design.tobytes() == profile_oracle.design_matrix(
                model, list(batch)
            ).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_one_row_chunk_scores_match_batched_row(seed):
    renderings = _random_renderings(seed, 20)
    assert all(r.startup_delay_s > 0 for r in renderings)
    for model in _models():
        batched = model.chunk_scores_batch(RenderingBatch.of(renderings))
        for row, rendering in zip(batched, renderings):
            one = model.chunk_scores(rendering)
            assert one.tobytes() == row.tobytes()
            assert one.tobytes() == profile_oracle.ksqi_chunk_scores(
                model, rendering
            ).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_rendering_arithmetic_matches_per_object_bodies(seed):
    """A rendering's quality curve, switch magnitudes and watch seconds
    (one row of the helpers the batch and the scorers share) equal the
    per-object bodies, and a batch's watch seconds equal its rows'."""
    renderings = _random_renderings(seed, 20)
    for rendering in renderings:
        assert rendering.quality_curve().tobytes() == profile_oracle.quality_curve(
            rendering
        ).tobytes()
        assert rendering.switch_magnitudes_kbps().tobytes() == (
            profile_oracle.switch_magnitudes_kbps(rendering).tobytes()
        )
        assert rendering.watch_duration_s == profile_oracle.watch_duration_s(
            rendering
        )
    assert RenderingBatch.of(renderings).watch_duration_s.tolist() == [
        r.watch_duration_s for r in renderings
    ]


def test_oracle_reads_batches_as_it_reads_objects():
    renderings = _random_renderings(5, 150)
    batch = RenderingBatch.of(renderings)
    assert ORACLE.true_qoe_batch(batch).tobytes() == np.array(
        [ORACLE.true_qoe(r) for r in renderings]
    ).tobytes()
    assert ORACLE.true_mos_batch(batch).tobytes() == np.array(
        [ORACLE.true_mos(r) for r in renderings]
    ).tobytes()


# ---------------------------------------------------------------- campaign


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_on_a_batch_matches_the_object_list(seed):
    encoded = _videos(seed)[-1]
    schedule = TwoStepScheduler().step1_schedule(encoded)
    reference = render_pristine(encoded)
    config = CampaignConfig(ratings_per_rendering=10, seed=seed + 12)
    columnar, objects = (
        MTurkCampaign(ORACLE, WorkerPool(seed=seed + 11), config=config)
        for _ in range(2)
    )
    result = columnar.run(schedule.renderings, reference=reference)
    expected = objects.run(
        profile_oracle.step1_schedule(TwoStepScheduler(), encoded),
        reference=reference,
    )
    assert result.mos == expected.mos
    assert list(result.mos) == list(expected.mos)
    for column, other in zip(result.ratings, expected.ratings):
        assert column.dtype == other.dtype
        assert column.tolist() == other.tolist()
    assert result.total_paid_usd == expected.total_paid_usd
    assert result.total_watch_seconds == expected.total_watch_seconds
    assert result.num_accepted_ratings == expected.num_accepted_ratings


# ---------------------------------------------------------------- profiler


@pytest.mark.parametrize("seed", SEEDS)
def test_profiled_weights_and_cost_match_per_object_pipeline(seed):
    context = _context("tiny", seed)

    def profiler():
        return SenseiProfiler(
            oracle=context.oracle,
            scheduler_config=SchedulerConfig(step1_ratings=10, step2_ratings=5),
            campaign_seed=seed + 11,
        )

    columnar, objects = profiler(), profiler()
    for encoded in _videos(seed):
        result = columnar.profile_video(encoded)
        weights, cost = profile_oracle.profile_video(objects, encoded)
        assert result.weights.tobytes() == weights.tobytes()
        assert result.total_cost_usd == cost


# ------------------------------------------------------------- MOS scale


def _low_campaign():
    """A campaign whose every MOS is at most 1.5 on the 1–5 scale: viewers
    who mind low visual quality six times as much rate every rendering
    between 1.0 and 1.4 (true MOS)."""
    encoded = _encoded()
    harsh = GroundTruthOracle(SensitivityParameters(quality_loss_weight=6.0))
    schedule = TwoStepScheduler().step1_schedule(encoded)
    result = MTurkCampaign(
        harsh, config=CampaignConfig(ratings_per_rendering=10, seed=3)
    ).run(schedule.renderings)
    return schedule.renderings, [
        result.mos[render_id] for render_id in schedule.renderings.render_ids
    ]


def test_all_low_mos_is_read_on_the_likert_scale():
    renderings, mos = _low_campaign()
    assert max(mos) <= 1.5 and min(mos) < max(mos)
    profile = infer_weights(renderings, mos, base_model=KSQIModel())
    design = profile_oracle.design_matrix(KSQIModel(), list(renderings))
    expected = profile_oracle.solve_weights(
        design, (np.asarray(mos) - 1.0) / 4.0
    )
    assert profile.weights.tobytes() == expected.tobytes()
    # Read as already normalised, the targets would be about 4x off.
    misread = profile_oracle.solve_weights(design, np.asarray(mos))
    assert not np.allclose(profile.weights, misread)


def test_mos_off_the_likert_scale_is_rejected():
    renderings, mos = _low_campaign()
    with pytest.raises(ValueError, match="1-5"):
        infer_weights(
            renderings, [(m - 1.0) / 4.0 for m in mos], base_model=KSQIModel()
        )
    with pytest.raises(ValueError, match="1-5"):
        infer_weights(renderings, [5.5] * len(mos), base_model=KSQIModel())


def test_refit_reads_an_all_low_campaign_on_the_likert_scale():
    encoded = _encoded()
    harsh = GroundTruthOracle(SensitivityParameters(quality_loss_weight=10.0))
    profiler = SenseiProfiler(oracle=harsh, refit_base_model=True, campaign_seed=3)
    mos = profiler.profile_video(encoded).step1_result.mos
    assert max(mos.values()) <= 1.5
    # The base model is refitted on step 1's ratings, mapped from 1–5 once.
    renderings = profiler.scheduler.step1_schedule(encoded).renderings
    expected = KSQIModel().fit(
        renderings, [(mos[i] - 1.0) / 4.0 for i in renderings.render_ids]
    )
    assert profiler.base_model.coefficients == expected.coefficients
