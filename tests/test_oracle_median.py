"""The oracle's 7-chunk window median against ``np.median``.

:func:`repro.qoe.ground_truth._window_median` runs a min/max network over
7 shifted views of the rows, padded at both ends so that the clipped
windows there keep their medians; rows shorter than 6 chunks go one
window at a time.  Each value must be what ``np.median`` gives for that
chunk's window, bit for bit: chunk counts below 6, 6, exactly 7 and above.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qoe.ground_truth import _SORT7, _window_median


def _medians(values: np.ndarray) -> np.ndarray:
    """``np.median`` over each chunk's window, one window at a time."""
    count = values.shape[1]
    return np.array([
        [np.median(row[max(0, index - 3):index + 4]) for index in range(count)]
        for row in values
    ]).reshape(values.shape)


def test_network_sorts_every_zero_one_input():
    # The 0-1 principle: a network that sorts every 0/1 input sorts every
    # input, so its middle wire is the median.
    for bits in itertools.product([0, 1], repeat=7):
        wires = list(bits)
        for low, high in _SORT7:
            pair = wires[low], wires[high]
            wires[low], wires[high] = min(pair), max(pair)
        assert wires == sorted(bits)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4),
    count=st.integers(1, 9),
    # A few distinct levels make ties common; a constant row is one level.
    levels=st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_median_matches_np_median_bitwise(rows, count, levels, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(levels)[rng.integers(0, len(levels), size=(rows, count))]
    assert _window_median(values).tobytes() == _medians(values).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_median_of_distinct_values_matches_np_median(count, seed):
    values = np.random.default_rng(seed).random((3, count))
    assert _window_median(values).tobytes() == _medians(values).tobytes()


def test_constant_rows_are_their_own_median():
    for count in range(1, 10):
        values = np.full((2, count), 0.375)
        assert _window_median(values).tobytes() == values.tobytes()
