"""Differential suite: the ABR classes' batched forms against the oracle.

Each base ABR's per-decision arithmetic has one implementation, a batched
method on its own class; the scalar method is its one-row call, and the
lockstep drivers and the decision service call the batched form on many
rows at once.  For every row of an N-row call, the batched form must
reproduce bit for bit what the scalar bodies kept in
:mod:`tests.abr_oracle` compute for that row's observation alone:

* **Harmonic mean / MPC (hypothesis):** history widths 0, below, at and
  above the window; the conservative scenario included.
* **Error distribution (hypothesis, stateful):** N oracle predictors and
  one batched predictor with N state rows are stepped together while rows
  leave the live set, as in a ragged shard; ratios clipped at both ends
  and exactly on bin edges, the cold-start → learned switch at three
  ratios, ``num_bins`` of 1, 5 and 7.
* **Pensieve (hypothesis):** state encoding with ladders narrower than
  the agent's ``num_levels``, weight horizons running past the last chunk
  and histories shorter and longer than the window; the action → (level,
  stall) mapping with and without stall actions.
* **BBA (hypothesis):** buffers exactly at ``reservoir_s`` and at
  ``reservoir_s + cushion_s``, on ladders of every width.

Floats are compared as ``float.hex`` or array bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import PlayerObservation
from repro.abr.bba import BufferBasedABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.abr.throughput import (
    ErrorDistributionPredictor,
    HarmonicMeanPredictor,
)
from repro.video.chunk import EncodingLadder
from tests import abr_oracle

#: Bitrates the test ladders are cut from (a ladder of ``n`` levels takes
#: the first ``n``).
_RATES_KBPS = (300, 750, 1200, 1850, 2850, 4300, 6000)

_THROUGHPUT = st.floats(0.05, 60.0, allow_nan=False, allow_infinity=False)


def _ladder(num_levels: int) -> EncodingLadder:
    return EncodingLadder(bitrates_kbps=_RATES_KBPS[:num_levels])


def _observation(
    throughput=(),
    download_times=None,
    num_levels: int = 5,
    sizes=None,
    buffer_s: float = 10.0,
    last_level: int = -1,
    chunk_index: int = 0,
    num_chunks: int = 10,
    weights=None,
) -> PlayerObservation:
    """An observation carrying exactly the inputs the oracle reads."""
    throughput = np.asarray(throughput, dtype=float)
    if download_times is None:
        download_times = np.full(throughput.size, 2.0)
    weights = np.ones(1) if weights is None else np.asarray(weights, float)
    if sizes is None:
        sizes = np.asarray(_RATES_KBPS[:num_levels], dtype=float) * 500.0
    upcoming = np.tile(np.asarray(sizes, dtype=float), (weights.size, 1))
    return PlayerObservation(
        chunk_index=chunk_index,
        num_chunks=num_chunks,
        buffer_s=buffer_s,
        last_level=last_level,
        throughput_history_mbps=throughput,
        download_time_history_s=np.asarray(download_times, dtype=float),
        upcoming_sizes_bytes=upcoming,
        upcoming_quality=np.zeros_like(upcoming),
        upcoming_weights=weights,
        chunk_duration_s=4.0,
        ladder=_ladder(num_levels),
    )


def _hex(values) -> list:
    return [float(value).hex() for value in np.asarray(values).ravel()]


@st.composite
def _history_matrix(draw, window: int):
    """A ``(rows, width)`` history matrix, width around ``window``."""
    rows = draw(st.integers(1, 6))
    width = draw(st.sampled_from(
        sorted({0, max(window - 1, 0), window, window + 1, window + 4})
    ))
    values = draw(st.lists(_THROUGHPUT, min_size=rows * width,
                           max_size=rows * width))
    return np.asarray(values, dtype=float).reshape(rows, width)


# ------------------------------------------------------------ harmonic mean


@settings(max_examples=100, deadline=None)
@given(data=st.data(), window=st.integers(1, 8),
       discount=st.sampled_from([0.0, 0.25, 0.4, 1.0]))
def test_harmonic_mean_and_mpc_rows_match_oracle(data, window, discount):
    histories = data.draw(_history_matrix(window))
    predictor = HarmonicMeanPredictor(window=window, default_mbps=1.3)
    abr = ModelPredictiveABR(predictor=predictor, robustness_discount=discount)
    predicted = predictor.predict_batch(histories)
    conservative = abr.conservative(predicted)
    for row, history in enumerate(histories):
        observation = _observation(throughput=history)
        expected = abr_oracle.harmonic_mean_predict(predictor, observation)
        assert predicted[row].hex() == float(expected).hex()
        assert float(predictor.predict(observation)).hex() == (
            float(expected).hex()
        )
        assert conservative[row].hex() == float(
            abr_oracle.conservative(abr, observation)
        ).hex()


# ------------------------------------------------------- error distribution


def _assert_rows_match(batched, row: int, oracle) -> None:
    """The batched predictor's state row ``row`` is the oracle's state."""
    assert int(batched._num_ratios[row]) == oracle._num_ratios
    assert batched._last_prediction[row].hex() == (
        float(oracle._last_prediction).hex()
    )
    assert batched._bin_counts[row].tolist() == oracle._bin_counts.tolist()


def _special_ratios(predictor: ErrorDistributionPredictor) -> list:
    """Samples that, after a 1.0 sample with ``window=1``, give ratios
    exactly on every bin edge and beyond both ends of the clip range."""
    lo, hi = predictor.ratio_range
    return [1.0, lo / 2.0, hi * 2.0] + predictor._bin_edges.tolist()


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    num_bins=st.sampled_from([1, 5, 7]),
    window=st.integers(1, 5),
    num_rows=st.integers(1, 5),
    steps=st.integers(1, 10),
)
def test_error_distribution_ragged_shard_matches_oracles(
    data, num_bins, window, num_rows, steps
):
    """N oracle predictors and one batched predictor with N state rows,
    stepped together; each row leaves the live set after its lifetime."""
    predictor = ErrorDistributionPredictor(
        window=window, num_bins=num_bins, default_mbps=0.9
    )
    sample = st.one_of(st.sampled_from(_special_ratios(predictor)), _THROUGHPUT)
    samples = [
        data.draw(st.lists(sample, min_size=steps, max_size=steps))
        for _ in range(num_rows)
    ]
    lifetimes = data.draw(st.lists(
        st.integers(0, steps), min_size=num_rows, max_size=num_rows
    ))
    distribution_steps = data.draw(st.lists(
        st.booleans(), min_size=steps, max_size=steps
    ))
    batched = predictor.for_rows(num_rows)
    oracles = [abr_oracle.ErrorDistributionOracle(predictor)
               for _ in range(num_rows)]
    for step in range(steps):
        live = np.array(
            [row for row in range(num_rows) if lifetimes[row] > step],
            dtype=int,
        )
        if live.size == 0:
            break
        histories = np.array(
            [samples[row][:step] for row in live.tolist()], dtype=float
        ).reshape(live.size, step)
        if distribution_steps[step]:
            tputs, probs = batched.predict_distribution_batch(live, histories)
            for position, row in enumerate(live.tolist()):
                expected = oracles[row].predict_distribution(
                    _observation(throughput=histories[position])
                )
                assert _hex(tputs[position]) == _hex([t for t, _ in expected])
                assert _hex(probs[position]) == _hex([p for _, p in expected])
        else:
            predicted = batched.predict_batch(live, histories)
            for position, row in enumerate(live.tolist()):
                expected = oracles[row].predict(
                    _observation(throughput=histories[position])
                )
                assert predicted[position].hex() == float(expected).hex()
        for row in range(num_rows):
            _assert_rows_match(batched, row, oracles[row])


@pytest.mark.parametrize("num_bins", [1, 5, 7])
def test_error_distribution_bin_edges_and_learned_switch(num_bins):
    """With ``window=1``, a 1.0 sample followed by ``e`` records the ratio
    ``e`` exactly: every bin edge and both clipped ends are binned as the
    oracle bins them, through the cold-start → learned switch."""
    predictor = ErrorDistributionPredictor(window=1, num_bins=num_bins)
    history = []
    for value in _special_ratios(predictor)[1:]:
        history += [1.0, value]
    scalar = ErrorDistributionPredictor(window=1, num_bins=num_bins)
    oracle = abr_oracle.ErrorDistributionOracle(predictor)
    switched = False
    for width in range(len(history) + 1):
        observation = _observation(throughput=history[:width])
        expected = oracle.predict_distribution(observation)
        assert _hex(scalar.predict_distribution(observation)) == _hex(expected)
        _assert_rows_match(scalar, 0, oracle)
        switched |= oracle._num_ratios == 3
    assert switched
    # Every recorded ratio landed in some bin; both ends were reached.
    assert oracle._bin_counts[0] > 0 and oracle._bin_counts[-1] > 0


# ----------------------------------------------------------------- Pensieve


@st.composite
def _pensieve_case(draw):
    config = PensieveConfig(
        history_length=draw(st.integers(1, 10)),
        num_levels=draw(st.integers(2, 7)),
        weight_horizon=draw(st.integers(0, 6)),
        stall_actions_s=draw(st.sampled_from([(), (1.0, 2.0), (0.0, 1.5)])),
        hidden_dims=(4,),
    )
    rows = draw(st.integers(1, 5))
    length = config.history_length
    width = draw(st.sampled_from(
        sorted({0, max(length - 1, 0), length, length + 3})
    ))
    horizon = draw(st.integers(1, 8))
    observations = []
    for _ in range(rows):
        num_levels = draw(st.integers(2, config.num_levels))
        num_chunks = draw(st.integers(1, 12))
        chunk_index = draw(st.integers(0, num_chunks - 1))
        upcoming = min(horizon, num_chunks - chunk_index)
        observations.append(_observation(
            throughput=draw(st.lists(_THROUGHPUT, min_size=width,
                                     max_size=width)),
            download_times=draw(st.lists(st.floats(0.01, 30.0),
                                         min_size=width, max_size=width)),
            num_levels=num_levels,
            sizes=draw(st.lists(st.floats(1e4, 5e6), min_size=num_levels,
                                max_size=num_levels)),
            buffer_s=draw(st.floats(0.0, 60.0)),
            last_level=draw(st.integers(-1, num_levels - 1)),
            chunk_index=chunk_index,
            num_chunks=num_chunks,
            weights=draw(st.lists(st.floats(0.1, 5.0), min_size=upcoming,
                                  max_size=upcoming)),
        ))
    return PensieveABR(config=config), observations


def _stacked_inputs(observations):
    """The batched encoder's inputs for ``observations``: zero-padded
    next-chunk sizes, weights padded with a junk value."""
    rows = len(observations)
    widest = max(obs.ladder.num_levels for obs in observations)
    deepest = max(obs.upcoming_weights.size for obs in observations)
    next_sizes = np.zeros((rows, widest))
    weights = np.full((rows, deepest), 99.0)
    for row, obs in enumerate(observations):
        next_sizes[row, :obs.ladder.num_levels] = obs.next_chunk_sizes()
        weights[row, :obs.upcoming_weights.size] = obs.upcoming_weights
    return (
        np.array([obs.throughput_history_mbps for obs in observations]),
        np.array([obs.download_time_history_s for obs in observations]),
        next_sizes,
        np.array([obs.ladder.num_levels for obs in observations]),
        np.array([obs.buffer_s for obs in observations]),
        np.array([obs.last_level for obs in observations]),
        np.array([obs.chunks_remaining for obs in observations]),
        np.array([obs.num_chunks for obs in observations]),
        weights,
        np.array([obs.upcoming_weights.size for obs in observations]),
    )


@settings(max_examples=100, deadline=None)
@given(case=_pensieve_case())
def test_pensieve_state_rows_match_oracle(case):
    abr, observations = case
    states = abr.encode_states(*_stacked_inputs(observations))
    for row, observation in enumerate(observations):
        expected = abr_oracle.encode_state(abr, observation)
        assert states[row].tobytes() == expected.tobytes()
        assert abr.encode_state(observation).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_pensieve_case(), data=st.data())
def test_pensieve_action_rows_match_oracle(case, data):
    abr, observations = case
    actions = np.array(data.draw(st.lists(
        st.integers(0, abr.config.num_actions - 1),
        min_size=len(observations), max_size=len(observations),
    )))
    last_levels = np.array([obs.last_level for obs in observations])
    levels, stalls = abr.decisions_for_actions(actions, last_levels)
    for row, observation in enumerate(observations):
        action = int(actions[row])
        expected = abr_oracle.decision_for_action(abr, observation, action)
        assert int(levels[row]) == expected.level
        assert stalls[row].hex() == float(expected.proactive_stall_s).hex()
        state = abr.encode_state(observation)
        assert abr.decision_for_action(observation, state, action) == expected


def test_pensieve_ladder_wider_than_agent_is_refused():
    """One width check, owned by the encoder, on the one-row call too."""
    abr = PensieveABR(config=PensieveConfig(num_levels=3, hidden_dims=(4,)))
    with pytest.raises(ValueError, match="4-level ladder is wider"):
        abr.encode_state(_observation(num_levels=4))


# ---------------------------------------------------------------------- BBA


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    reservoir_s=st.floats(0.5, 20.0),
    cushion_s=st.floats(0.5, 40.0),
)
def test_bba_rows_match_oracle(data, reservoir_s, cushion_s):
    abr = BufferBasedABR(reservoir_s=reservoir_s, cushion_s=cushion_s)
    buffer = st.one_of(
        st.sampled_from([0.0, reservoir_s, reservoir_s + cushion_s]),
        st.floats(0.0, 80.0),
    )
    rows = data.draw(st.integers(1, 8))
    buffers = np.array(data.draw(st.lists(buffer, min_size=rows,
                                          max_size=rows)))
    num_levels = np.array(data.draw(st.lists(
        st.integers(2, len(_RATES_KBPS)), min_size=rows, max_size=rows
    )))
    levels = abr.levels_for_buffers(buffers, num_levels)
    for row in range(rows):
        observation = _observation(
            num_levels=int(num_levels[row]), buffer_s=float(buffers[row])
        )
        expected = abr_oracle.bba_decide(abr, observation)
        assert int(levels[row]) == expected.level
        assert abr.decide(observation) == expected
