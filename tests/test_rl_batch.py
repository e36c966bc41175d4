"""Differential trust suite for batched RL inference (batched ≡ scalar).

The lockstep engine's RL driver stacks every session's observation and
runs **one** actor forward per decision round.  The whole construction is
only sound if batching is *bitwise* invisible:

* ``repro.ml.nn.row_matmul`` must make every layer's matmul row-stable,
  so ``MLP.forward`` over a batch equals the per-row forwards bit for bit
  (``TestBatchedForwardDifferential`` — hypothesis over random widths,
  weights, batch sizes, dtypes and memory layouts);
* ``ActorCriticAgent.action_probabilities_batch`` must therefore equal
  ``action_probabilities`` per row (including ragged views, single-row
  and empty batches);
* exploration-mode sampling through the lockstep driver's per-session RNG
  streams must replay the serial ``WorkOrder.exploration_seed`` streams
  exactly, for any checkpoint and any shard split
  (``TestSamplingBitidentityFuzz`` — randomized end-to-end sessions with
  hypothesis-shrinkable repros; every failing example prints its full
  seed tuple, chaos-suite style).

Everything here asserts **bitwise** equality (``tobytes``), never
``allclose``: the golden-master harness treats a single flipped mantissa
bit as a red suite, so this layer must too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.core.sensei_abr import make_sensei_pensieve
from repro.engine.lockstep import run_rl_rollouts_lockstep
from repro.engine.runner import WorkOrder
from repro.ml.nn import MLP, row_matmul
from repro.ml.rl import ActorCriticAgent, ActorCriticConfig, EpisodeBuffer
from repro.utils.rand import rng_from_seed
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo
from tests.test_golden import _traces


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------- batched ≡ scalar forward


@st.composite
def matmul_cases(draw):
    """Random (x, w) pairs across widths, dtypes and memory layouts."""
    n = draw(st.integers(0, 7))
    d = draw(st.integers(1, 24))
    h = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = rng_from_seed(seed)
    x = rng.standard_normal((n, d)).astype(dtype) * draw(
        st.sampled_from([1.0, 1e-3, 1e6])
    )
    w = rng.standard_normal((d, h)).astype(dtype)
    if draw(st.booleans()):
        # Ragged view: a column/row slice of a larger array, so the input
        # is non-contiguous — batching must not care about strides.
        big = rng.standard_normal((n + 2, 2 * d)).astype(dtype)
        big[1 : n + 1, ::2] = x
        x = big[1 : n + 1, ::2]
    return x, w


class TestBatchedForwardDifferential:
    @given(matmul_cases())
    @settings(max_examples=60, deadline=None)
    def test_row_matmul_is_row_stable(self, case):
        """Row i of the batched product is bitwise the single-row product."""
        x, w = case
        batched = row_matmul(x, w)
        for i in range(x.shape[0]):
            assert _bitwise_equal(batched[i], row_matmul(x[i : i + 1], w)[0])
            assert _bitwise_equal(batched[i], row_matmul(x[i], w))

    @given(
        st.integers(1, 12),            # state_dim
        st.lists(st.integers(1, 24), min_size=1, max_size=3),  # hidden dims
        st.integers(1, 9),             # output dim
        st.integers(0, 6),             # batch size
        st.integers(0, 2**31 - 1),     # seed
    )
    @settings(max_examples=40, deadline=None)
    def test_mlp_forward_batched_equals_scalar(
        self, state_dim, hidden, out_dim, batch, seed
    ):
        """``MLP.forward`` over a batch ≡ per-row forwards, bitwise."""
        mlp = MLP(state_dim, tuple(hidden), out_dim, seed=seed)
        states = rng_from_seed(seed ^ 0x5EED).standard_normal(
            (batch, state_dim)
        )
        stacked, _ = mlp.forward(states)
        assert stacked.shape == (batch, out_dim)
        for i in range(batch):
            row, _ = mlp.forward(states[i])
            assert _bitwise_equal(stacked[i], row)

    @given(
        st.integers(1, 10),            # state_dim
        st.integers(2, 8),             # num_actions
        st.integers(0, 8),             # batch size
        st.integers(0, 2**31 - 1),     # seed
        st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_action_probabilities_batch_equals_scalar(
        self, state_dim, num_actions, batch, seed, dtype
    ):
        """Batched policy distributions ≡ scalar per row, any dtype input."""
        agent = ActorCriticAgent(ActorCriticConfig(
            state_dim=state_dim, num_actions=num_actions,
            hidden_dims=(16, 8), seed=seed % 1000,
        ))
        states = rng_from_seed(seed).standard_normal(
            (batch, state_dim)
        ).astype(dtype)
        stacked = agent.action_probabilities_batch(states)
        assert stacked.shape == (batch, num_actions)
        for i in range(batch):
            assert _bitwise_equal(
                stacked[i], agent.action_probabilities(np.asarray(states[i], dtype=float))
            )
        # Greedy decisions therefore agree too.
        if batch:
            assert np.array_equal(
                np.argmax(stacked, axis=1),
                [agent.select_action(np.asarray(s, dtype=float), greedy=True)
                 for s in states],
            )

    def test_empty_batch(self):
        agent = ActorCriticAgent(ActorCriticConfig(state_dim=4, num_actions=3))
        probs = agent.action_probabilities_batch(np.zeros((0, 4)))
        assert probs.shape == (0, 3)

    def test_single_row_batch(self):
        agent = ActorCriticAgent(ActorCriticConfig(state_dim=4, num_actions=3))
        state = rng_from_seed(5).standard_normal(4)
        assert _bitwise_equal(
            agent.action_probabilities_batch(state.reshape(1, -1))[0],
            agent.action_probabilities(state),
        )

    def test_rejects_non_matrix(self):
        agent = ActorCriticAgent(ActorCriticConfig(state_dim=4, num_actions=3))
        with pytest.raises(ValueError):
            agent.action_probabilities_batch(np.zeros(4))


# -------------------------------------------- sampling bit-identity fuzz


def _fuzz_encoded():
    source = SourceVideo.synthesize(
        "rlfuzz", "gaming", duration_s=32.0, chunk_duration_s=4.0, seed=97,
    )
    return SyntheticEncoder(seed=98).encode(source, DEFAULT_LADDER)


_ENCODED = _fuzz_encoded()
_TRACES = _traces()


def _random_checkpoint(family: str, checkpoint_seed: int) -> PensieveABR:
    """A policy at a random point in training, pure in ``checkpoint_seed``.

    A few policy-gradient updates on synthetic trajectories walk the
    weights (and both Adam moment estimates) away from initialisation —
    cheaper than real rollouts but exercising exactly the arithmetic a
    real checkpoint carries.
    """
    if family == "pensieve":
        abr = PensieveABR(config=PensieveConfig(seed=checkpoint_seed % 997))
    else:
        abr = make_sensei_pensieve(seed=checkpoint_seed % 997)
    rng = rng_from_seed(checkpoint_seed)
    cfg = abr.agent.config
    for _ in range(int(rng.integers(0, 4))):
        steps = int(rng.integers(2, 9))
        abr.agent.train_on_episode(EpisodeBuffer.from_arrays(
            rng.standard_normal((steps, cfg.state_dim)),
            rng.integers(0, cfg.num_actions, size=steps),
            rng.standard_normal(steps),
        ))
    abr.greedy = False
    return abr


def _orders(abr, exploration_seeds, chunk_weights):
    return [
        WorkOrder(
            abr=abr, encoded=_ENCODED, trace=_TRACES[i % len(_TRACES)],
            chunk_weights=chunk_weights, exploration_seed=int(seed),
        )
        for i, seed in enumerate(exploration_seeds)
    ]


def _result_key(result):
    return (
        result.rendered.levels.tobytes(),
        result.rendered.stalls_s.tobytes(),
        float(result.total_bytes).hex(),
        float(result.session_duration_s).hex(),
    )


def _trajectory_key(trajectory):
    return tuple(
        (state.tobytes(), int(action)) for state, action in trajectory
    )


class TestSamplingBitidentityFuzz:
    @given(
        st.sampled_from(["pensieve", "sensei-pensieve"]),
        st.integers(0, 2**31 - 1),                       # checkpoint seed
        st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=4),
        st.integers(0, 2**31 - 1),                       # shard-split seed
    )
    @settings(max_examples=8, deadline=None)
    def test_lockstep_sampling_replays_serial_streams(
        self, family, checkpoint_seed, exploration_seeds, split_seed
    ):
        """Batched exploration ≡ serial seeded streams, for any checkpoint,
        seed set and shard split — results *and* trajectories bitwise."""
        note(
            "repro: family=%s checkpoint_seed=%d exploration_seeds=%r "
            "split_seed=%d" % (family, checkpoint_seed, exploration_seeds,
                               split_seed)
        )
        abr = _random_checkpoint(family, checkpoint_seed)
        weights = (
            np.linspace(1.0, 2.0, _ENCODED.num_chunks)
            if family == "sensei-pensieve" else None
        )
        orders = _orders(abr, exploration_seeds, weights)

        # Serial reference: one fresh seeded stream per order.
        serial = []
        serial_trajectories = []
        for order in orders:
            order.abr.begin_capture()
            serial.append(order.run())
            serial_trajectories.append(order.abr.end_capture())

        # Lockstep over the whole batch...
        results, trajectories = run_rl_rollouts_lockstep(orders)
        # ...and over a random partition: sharding must be invisible.
        rng = rng_from_seed(split_seed)
        split = sorted(
            rng.choice(len(orders), size=int(rng.integers(0, len(orders))),
                       replace=False)
        )
        parts = np.split(np.arange(len(orders)), split)
        split_results, split_trajectories = [], []
        for part in parts:
            if part.size == 0:
                continue
            part_results, part_trajectories = run_rl_rollouts_lockstep(
                [orders[i] for i in part]
            )
            split_results.extend(part_results)
            split_trajectories.extend(part_trajectories)

        for index in range(len(orders)):
            assert _result_key(results[index]) == _result_key(serial[index])
            assert _result_key(split_results[index]) == _result_key(
                serial[index]
            )
            assert _trajectory_key(trajectories[index]) == _trajectory_key(
                serial_trajectories[index]
            )
            assert _trajectory_key(split_trajectories[index]) == (
                _trajectory_key(serial_trajectories[index])
            )

    def test_unseeded_exploration_is_rejected(self):
        """Exploration without a pinned seed has no stream to replay, so
        the lockstep rollout path and the serial reference both refuse
        it."""
        abr = _random_checkpoint("pensieve", 7)
        order = WorkOrder(abr=abr, encoded=_ENCODED, trace=_TRACES[0])
        with pytest.raises(ValueError, match="exploration_seed"):
            run_rl_rollouts_lockstep([order])
        with pytest.raises(ValueError, match="exploration_seed"):
            order.run()

    def test_greedy_orders_batch_without_seed(self):
        abr = _random_checkpoint("pensieve", 11)
        abr.greedy = True
        order = WorkOrder(abr=abr, encoded=_ENCODED, trace=_TRACES[0])
        (result,), _ = run_rl_rollouts_lockstep([order])
        assert _result_key(result) == _result_key(order.run())
