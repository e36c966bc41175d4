"""Differential tests for the arena-compiled planner kernel.

Evidence that the arena ``evaluate_candidates_batch`` — the only planner
kernel — computes exactly what the pre-arena kernel did and that its
results do not depend on how sessions are batched:

* **Arena ≡ oracle (hypothesis):** on randomly drawn batches — any
  session count, scenario count, ladder size, horizon, ``max_step`` mask,
  non-uniform weights, multi-stall options — the arena kernel is
  *bitwise* identical to the pre-arena kernel kept as a test-only oracle
  (:mod:`tests.planner_oracle`).
* **Batch-shape independence (hypothesis):** a batch, a contiguous split
  of it, each row alone and a repeat of the whole call agree bit for bit,
  also when uniform and non-uniform weight rows share a batch, and also
  when a larger call on another tree has grown and dirtied the shared
  scratch buffer in between.  Lockstep ≡ serial rests on this.
* **Caches and tiling:** the derived caches (switch terms, arenas) are
  LRU-bounded with counted evictions, the kernel retains one scratch
  buffer the size of its largest call, and the cache-blocked tile sizes
  stay within their floor and cap.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr import planner
from repro.abr.planner import (
    clear_plan_cache,
    enumerate_level_sequences,
    evaluate_candidates_batch,
    kernel_block_sessions,
)
from repro.obs import MetricsRegistry
from repro.qoe.ksqi import KSQIModel
from tests.planner_oracle import evaluate_batch_legacy

RESULT_FIELDS = (
    "best_level", "best_stall_s", "best_score", "expected_rebuffer_s"
)


def _batch_inputs(
    seed: int,
    num_sessions: int,
    num_scenarios: int,
    levels: int,
    horizon: int,
    max_step,
    weighted: bool,
    num_stalls: int,
    need_rebuffer: bool,
):
    """One randomly drawn but fully deterministic kernel call."""
    rng = np.random.default_rng(seed)
    candidates = enumerate_level_sequences(levels, horizon, max_step=max_step)
    sizes = rng.uniform(1e5, 5e6, size=(num_sessions, horizon, levels))
    sizes.sort(axis=2)
    quality = rng.uniform(5, 98, size=(num_sessions, horizon, levels))
    quality.sort(axis=2)
    weights = (
        rng.uniform(0.25, 2.0, size=(num_sessions, horizon))
        if weighted else np.ones((num_sessions, horizon))
    )
    last_level = rng.integers(-1, levels, size=num_sessions)
    tputs = rng.uniform(0.2, 12.0, size=(num_sessions, num_scenarios))
    probs = rng.uniform(0.05, 1.0, size=(num_sessions, num_scenarios))
    probs /= probs.sum(axis=1, keepdims=True)
    # An arbitrary-but-valid mask: the engine's max_step feasibility test
    # plus random extra knockouts, never masking a whole row.
    step = max_step if max_step is not None else levels
    mask = (last_level[:, None] < 0) | (
        np.abs(candidates[None, :, 0] - last_level[:, None]) <= step
    )
    knockout = rng.random(mask.shape) < 0.2
    knockout[np.arange(num_sessions), mask.argmax(axis=1)] = False
    mask = mask & ~knockout
    bitrates = np.sort(rng.uniform(200, 6000, size=levels))
    return dict(
        candidates=candidates,
        sizes=sizes,
        quality=quality,
        weights=weights,
        buffer_s=rng.uniform(0.0, 24.0, size=num_sessions),
        last_level=last_level,
        scenario_tputs=tputs,
        scenario_probs=probs,
        bitrates_kbps=bitrates,
        quality_model=KSQIModel(),
        stall_options_s=tuple(np.linspace(0.0, 2.0, num_stalls)),
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        candidate_mask=mask,
        need_expected_rebuffer=need_rebuffer,
        weights_uniform=not weighted,
    )


def _assert_bitwise_equal(a, b, context):
    for field in RESULT_FIELDS:
        assert np.array_equal(
            np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
        ), (context, field)
    assert a.num_candidates == b.num_candidates, context


class TestArenaMatchesLegacyBitwise:
    """The arena kernel is bit-identical to the pre-arena oracle."""

    @given(
        seed=st.integers(0, 2**31),
        num_sessions=st.integers(1, 14),
        num_scenarios=st.integers(1, 6),
        levels=st.integers(3, 6),
        max_step=st.sampled_from([None, 1, 2]),
        weighted=st.booleans(),
        num_stalls=st.integers(1, 3),
        need_rebuffer=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_batches(
        self, seed, num_sessions, num_scenarios, levels, max_step,
        weighted, num_stalls, need_rebuffer,
    ):
        kwargs = _batch_inputs(
            seed, num_sessions, num_scenarios, levels, horizon=4,
            max_step=max_step, weighted=weighted, num_stalls=num_stalls,
            need_rebuffer=need_rebuffer,
        )
        legacy = evaluate_batch_legacy(**kwargs)
        arena = evaluate_candidates_batch(**kwargs)
        _assert_bitwise_equal(arena, legacy, (seed, num_sessions))

    @given(seed=st.integers(0, 2**31), horizon=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_random_horizons(self, seed, horizon):
        kwargs = _batch_inputs(
            seed, num_sessions=5, num_scenarios=3, levels=4,
            horizon=horizon, max_step=2, weighted=True, num_stalls=2,
            need_rebuffer=True,
        )
        legacy = evaluate_batch_legacy(**kwargs)
        arena = evaluate_candidates_batch(**kwargs)
        _assert_bitwise_equal(arena, legacy, (seed, horizon))

    def test_padded_mixed_ladder_width(self):
        """Sizes/quality wider than the ladder (mixed-ladder shards)."""
        kwargs = _batch_inputs(
            3, num_sessions=4, num_scenarios=2, levels=4, horizon=4,
            max_step=2, weighted=False, num_stalls=1, need_rebuffer=False,
        )
        pad = np.zeros((4, 4, 2))
        kwargs["sizes"] = np.concatenate([kwargs["sizes"], pad + 1.0], axis=2)
        kwargs["quality"] = np.concatenate([kwargs["quality"], pad], axis=2)
        legacy = evaluate_batch_legacy(**kwargs)
        arena = evaluate_candidates_batch(**kwargs)
        _assert_bitwise_equal(arena, legacy, "padded")


#: Kernel arguments that carry one row per session.
_ROW_ARGS = (
    "sizes", "quality", "weights", "buffer_s", "last_level",
    "scenario_tputs", "scenario_probs", "candidate_mask",
)


def _rows_of(kwargs, start, stop):
    """The same kernel call restricted to sessions ``start:stop``."""
    return {**kwargs, **{name: kwargs[name][start:stop] for name in _ROW_ARGS}}


def _result_bytes(results):
    """Each result field over the concatenated batches, as raw bytes."""
    return {
        field: np.concatenate(
            [np.asarray(getattr(result, field)) for result in results]
        ).tobytes()
        for field in RESULT_FIELDS
    }


class TestBatchShapeIndependence:
    """A session's result does not depend on the batch it is scored in."""

    @given(
        seed=st.integers(0, 2**31),
        num_sessions=st.integers(2, 14),
        num_scenarios=st.integers(1, 6),
        levels=st.integers(3, 6),
        max_step=st.sampled_from([None, 1, 2]),
        num_stalls=st.integers(1, 3),
        need_rebuffer=st.booleans(),
        split_at=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_rows_and_reuse_are_bitwise_equal(
        self, seed, num_sessions, num_scenarios, levels, max_step,
        num_stalls, need_rebuffer, split_at,
    ):
        kwargs = _batch_inputs(
            seed, num_sessions, num_scenarios, levels, horizon=4,
            max_step=max_step, weighted=True, num_stalls=num_stalls,
            need_rebuffer=need_rebuffer,
        )
        # Mixed rows: a uniform row alone takes the kernel's uniform-weight
        # path, the same row inside a mixed batch the general one.
        uniform_rows = np.random.default_rng(seed + 1).random(num_sessions) < 0.5
        kwargs["weights"][uniform_rows] = 1.0
        kwargs["weights_uniform"] = None
        split = 1 + split_at % (num_sessions - 1)

        clear_plan_cache()  # the larger call below must grow the buffer
        whole = _result_bytes([evaluate_candidates_batch(**kwargs)])
        halves = _result_bytes([
            evaluate_candidates_batch(**_rows_of(kwargs, 0, split)),
            evaluate_candidates_batch(**_rows_of(kwargs, split, num_sessions)),
        ])
        rows = _result_bytes([
            evaluate_candidates_batch(**_rows_of(kwargs, row, row + 1))
            for row in range(num_sessions)
        ])
        # A bigger tree, ladder and batch grows the shared scratch buffer
        # and leaves every element the repeat call will reuse dirty.
        buffer = planner._SCRATCH
        evaluate_candidates_batch(**_batch_inputs(
            seed + 2, num_sessions + 2, num_scenarios, levels + 1, horizon=4,
            max_step=None, weighted=True, num_stalls=3, need_rebuffer=True,
        ))
        assert planner._SCRATCH.size > buffer.size
        repeat = _result_bytes([evaluate_candidates_batch(**kwargs)])
        context = (seed, num_sessions, split)
        assert halves == whole, ("split", context)
        assert rows == whole, ("rows", context)
        assert repeat == whole, ("repeat", context)
        for _, arena in planner._ARENAS.values():
            for ws in arena._workspaces.values():
                for name in ws.__slots__:
                    value = getattr(ws, name)
                    for view in value if isinstance(value, list) else [value]:
                        assert view.base is planner._SCRATCH, name


class TestDerivedCacheBounds:
    """Switch-term and arena caches are LRU-bounded with counted evictions;
    the kernel scratch stays the size of the largest single call."""

    def test_eviction_counters(self, monkeypatch):
        monkeypatch.setattr(planner, "_DERIVED_CACHE_CAP", 4)
        clear_plan_cache()
        before = dict(planner._CACHE_EVICTIONS)
        candidates = enumerate_level_sequences(4, 3, max_step=1)
        assert not candidates.flags.writeable  # cacheable
        ladders = [
            np.linspace(100.0 * (i + 1), 5000.0 + i, 4) for i in range(8)
        ]
        for bitrates in ladders:
            planner._switch_constants(candidates, bitrates)
            planner._arena_for(candidates, bitrates)
        assert len(planner._SWITCH_TERMS) <= 4
        assert len(planner._ARENAS) <= 4
        assert planner._CACHE_EVICTIONS["switch_terms"] >= before["switch_terms"] + 4
        assert planner._CACHE_EVICTIONS["arenas"] >= before["arenas"] + 4
        # Hits refresh recency: re-touching the oldest survivor keeps it.
        survivor = next(iter(planner._ARENAS))
        planner._arena_for(*_cache_entry_args(planner._ARENAS, survivor))
        planner._arena_for(candidates, np.linspace(99.0, 6001.0, 4))
        assert survivor in planner._ARENAS
        clear_plan_cache()

    def test_scratch_is_the_largest_single_call(self):
        """Many batch shapes on several trees retain one call's scratch."""
        trees = [(3, 4, None), (5, 4, 2), (4, 5, 1)]  # (levels, h, max_step)

        def call(tree, num_sessions):
            levels, horizon, max_step = tree
            kwargs = _batch_inputs(
                num_sessions, num_sessions, 3, levels, horizon, max_step,
                weighted=True, num_stalls=2, need_rebuffer=True,
            )
            kwargs["bitrates_kbps"] = np.linspace(300.0, 4300.0, levels)
            evaluate_candidates_batch(**kwargs)

        def scratch_bytes():
            gauges = MetricsRegistry().snapshot()["gauges"]
            return gauges["planner.arena.workspace_bytes"]

        largest = 0
        for tree in trees:
            clear_plan_cache()
            call(tree, 30)
            largest = max(largest, scratch_bytes())
        clear_plan_cache()
        for num_sessions in range(1, 31):
            for tree in trees:
                call(tree, num_sessions)
        assert scratch_bytes() == largest
        clear_plan_cache()

    def test_writable_candidates_never_cached(self):
        clear_plan_cache()
        candidates = enumerate_level_sequences(4, 3, max_step=1).copy()
        assert candidates.flags.writeable
        planner._arena_for(candidates, np.linspace(100.0, 4000.0, 4))
        assert len(planner._ARENAS) == 0
        clear_plan_cache()


def _cache_entry_args(cache, key):
    candidates = cache[key][0]
    # Reconstruct the ladder from the key's tobytes() payload.
    return candidates, np.frombuffer(key[1], dtype=np.float64)


class TestBlockSessions:
    """Cache-blocked tiling: floors, caps and the recorded tile sizes."""

    def test_floor_and_cap(self):
        for scenarios in (1, 5):
            block = kernel_block_sessions(5, 4, 2, scenarios)
            assert 12 <= block <= 64

    def test_tile_sizes_match_the_recorded_kernel_section(self):
        # BENCH_engine.json's kernel.block_sessions: Fugu- and MPC-shaped
        assert kernel_block_sessions(5, 4, 2, 5) == 23
        assert kernel_block_sessions(5, 4, 2, 1) == 54

    def test_fewer_scenarios_allow_bigger_blocks(self):
        assert kernel_block_sessions(5, 4, 2, 1) >= kernel_block_sessions(
            5, 4, 2, 5
        )
