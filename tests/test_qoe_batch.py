"""Differential tests for the batched ground-truth oracle.

Evidence that :meth:`GroundTruthOracle.true_qoe_batch` — the only QoE body
in the package — computes exactly what the scalar, one-rendering-at-a-time
oracle kept in :mod:`tests.qoe_oracle` computes:

* **Batch ≡ scalar oracle (hypothesis):** on randomly drawn batches of one
  encoded video — fewer than 7 chunks (every window clipped), exactly 7,
  and longer videos whose clipped edge windows have odd and even lengths;
  random levels, stalls and startup delays; all-top and all-bottom rows —
  every value is bitwise the scalar oracle's, also for batches that span
  several row blocks.
* **Permutation:** shuffling the inputs shuffles the outputs bit for bit.
* **One video per call:** renderings of another video or another ladder
  are rejected.
* **One score per rendering:** a campaign scores each distinct rendering
  exactly once, in one batched call.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.campaign import CampaignConfig, MTurkCampaign
from repro.qoe.ground_truth import BLOCK_ROWS, GroundTruthOracle
from repro.video.chunk import DEFAULT_LADDER, EncodingLadder
from repro.video.encoder import SyntheticEncoder
from repro.video.rendering import (
    QualityIncident,
    RenderedVideo,
    make_video_series,
    render_pristine,
)
from repro.video.video import SourceVideo
from tests import qoe_oracle

#: A second ladder: three levels with integer bitrates.
SMALL_LADDER = EncodingLadder(bitrates_kbps=(200, 800, 2400))
LADDERS = (DEFAULT_LADDER, SMALL_LADDER)

ORACLE = GroundTruthOracle()


@lru_cache(maxsize=None)
def _encoded(num_chunks: int, ladder_index: int, video_id: str = "diff"):
    """The first ``num_chunks`` chunks of a synthetic sports video."""
    full = SourceVideo.synthesize(
        video_id, "sports", duration_s=800.0, chunk_duration_s=4.0, seed=3
    )
    source = SourceVideo.from_descriptors(
        video_id=f"{video_id}-{num_chunks}",
        genre=full.genre,
        descriptors=full.descriptors[:num_chunks],
        chunk_duration_s=full.chunk_duration_s,
    )
    return SyntheticEncoder(seed=3).encode(source, LADDERS[ladder_index])


def _renderings(seed: int, num_chunks: int, ladder_index: int, count: int):
    """``count`` random renderings of one video, plus all-top and
    all-bottom rows."""
    encoded = _encoded(num_chunks, ladder_index)
    rng = np.random.default_rng(seed)
    levels_count = encoded.ladder.num_levels
    renderings = []
    for index in range(count):
        stalls = rng.exponential(1.5, size=num_chunks)
        stalls[rng.random(num_chunks) < 0.6] = 0.0
        renderings.append(RenderedVideo(
            encoded=encoded,
            levels=rng.integers(0, levels_count, size=num_chunks),
            stalls_s=stalls,
            startup_delay_s=float(rng.choice([0.0, rng.uniform(0.0, 12.0)])),
            render_id=f"r{index}",
        ))
    top = render_pristine(encoded)
    bottom = RenderedVideo(
        encoded=encoded,
        levels=np.zeros(num_chunks, dtype=int),
        stalls_s=rng.uniform(0.0, 3.0, size=num_chunks),
        startup_delay_s=2.0,
        render_id="bottom",
    )
    return [top, *renderings, bottom]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_chunks=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 75, 130, 200]),
    ladder_index=st.integers(0, len(LADDERS) - 1),
    count=st.integers(0, 12),
)
def test_batch_matches_scalar_oracle_bitwise(seed, num_chunks, ladder_index, count):
    renderings = _renderings(seed, num_chunks, ladder_index, count)
    batch = ORACLE.true_qoe_batch(renderings)
    expected = [qoe_oracle.true_qoe(ORACLE, r) for r in renderings]
    assert batch.shape == (len(renderings),)
    assert _bits(batch) == _bits(expected)
    # The N=1 entry points are the batch too.
    assert _bits([ORACLE.true_qoe(r) for r in renderings]) == _bits(expected)
    assert _bits([ORACLE.true_mos(r) for r in renderings]) == _bits(
        [1.0 + 4.0 * value for value in expected]
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_chunks=st.sampled_from([5, 40, 149]),
    count=st.integers(BLOCK_ROWS - 3, 2 * BLOCK_ROWS + 3),
)
def test_batches_larger_than_one_block_match_scalar_oracle(seed, num_chunks, count):
    renderings = _renderings(seed, num_chunks, 0, count)
    assert _bits(ORACLE.true_qoe_batch(renderings)) == _bits(
        [qoe_oracle.true_qoe(ORACLE, r) for r in renderings]
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_chunks=st.sampled_from([3, 7, 11]),
    count=st.integers(1, BLOCK_ROWS + 10),
)
def test_shuffling_inputs_shuffles_outputs(seed, num_chunks, count):
    renderings = _renderings(seed, num_chunks, 0, count)
    order = np.random.default_rng(seed).permutation(len(renderings))
    batch = ORACLE.true_qoe_batch(renderings)
    shuffled = ORACLE.true_qoe_batch([renderings[int(i)] for i in order])
    assert _bits(shuffled) == _bits(batch[order])


def test_incident_series_match_scalar_oracle(small_encoded):
    for incident in (
        QualityIncident.rebuffering(0, 1.0),
        QualityIncident.rebuffering(0, 4.0),
        QualityIncident.bitrate_drop(0, drop_to_level=0),
    ):
        series = make_video_series(small_encoded, incident)
        assert _bits(ORACLE.true_qoe_batch(series)) == _bits(
            [qoe_oracle.true_qoe(ORACLE, r) for r in series]
        )


def test_chunk_experience_oracle_stays_in_unit_interval(small_encoded):
    series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 3.0))
    for rendered in series:
        experience = qoe_oracle.chunk_experience(ORACLE, rendered)
        assert experience.shape == (rendered.num_chunks,)
        assert np.all((experience >= 0.0) & (experience <= 1.0))


def test_mixed_videos_are_rejected():
    one = render_pristine(_encoded(8, 0))
    other_video = render_pristine(_encoded(8, 0, video_id="other"))
    other_ladder = render_pristine(_encoded(8, 1))
    with pytest.raises(ValueError, match="one video"):
        ORACLE.true_qoe_batch([one, other_video])
    with pytest.raises(ValueError, match="one video"):
        ORACLE.true_qoe_batch([one, other_ladder])
    with pytest.raises(ValueError):
        ORACLE.true_qoe_batch([])


def test_campaign_scores_each_rendering_once(small_encoded):
    series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 2.0))
    reference = render_pristine(small_encoded)
    oracle = GroundTruthOracle()
    campaign = MTurkCampaign(
        oracle=oracle, config=CampaignConfig(ratings_per_rendering=6, seed=4)
    )
    with mock.patch.object(
        oracle, "true_qoe_batch", wraps=oracle.true_qoe_batch
    ) as batch, mock.patch.object(
        oracle, "true_qoe", wraps=oracle.true_qoe
    ) as scalar:
        result = campaign.run(series, reference=reference)
    assert batch.call_count == 1
    assert scalar.call_count == 0
    (scored,), _ = batch.call_args
    ids = [r.render_id for r in scored]
    assert sorted(ids) == sorted([r.render_id for r in series] + [reference.render_id])
    # Each rendering was rated many times from that one score.
    assert len(result.records) > len(ids)


def test_campaign_rejects_two_renderings_under_one_id(small_encoded):
    series = make_video_series(small_encoded, QualityIncident.rebuffering(0, 2.0))
    clash = series[1].with_render_id(series[0].render_id)
    campaign = MTurkCampaign(oracle=ORACLE)
    with pytest.raises(ValueError, match="render ids"):
        campaign.run([series[0], clash])
    with pytest.raises(ValueError, match="render ids"):
        campaign.run(series[:2], reference=clash)
    # Even one playback may not appear under the reference's id: its
    # ratings would be discarded as reference ratings.
    with pytest.raises(ValueError, match="render ids"):
        campaign.run(
            [render_pristine(small_encoded), *series],
            reference=render_pristine(small_encoded),
        )
