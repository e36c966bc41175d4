"""Kernel-only perf floor: the planner batch kernel in isolation.

Times the production arena kernel (``evaluate_candidates_batch``,
float64, reported as ``arena_f64``) against the pre-arena allocating
kernel it is bit-identical to (``legacy``: the test-only oracle in
``tests/planner_oracle.py``) over the engine's quick-grid call shapes, and
asserts the arena's aggregate candidates-scored/sec speedup is at least
:data:`MIN_ARENA_SPEEDUP`.  The numbers are printed (run with ``-s``) and
written nowhere.

The measured shapes mirror what the lockstep coordinator actually sends to
``evaluate_candidates_batch`` on the quick grid: a Fugu-style batch
(12 sessions x 5 throughput scenarios over the 295-candidate max_step=2
tree), an MPC-style batch (single conservative scenario) and a
SENSEI-style weighted batch (sensitivity weights + rebuffer expectation).
Each configuration runs interleaved best-of-rounds so host-load drift hits
every side alike — the same methodology as the engine floors — and the
two kernels take turns running first, so neither always inherits the
other's cache and allocator state.

Run via ``make perf-floors`` or, from the repository root,
``PYTHONPATH=src python -m pytest benchmarks/test_perf_kernel.py -v -s``
(the oracle is imported as ``tests.planner_oracle``).
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
import pytest

from repro.abr.planner import enumerate_level_sequences, evaluate_candidates_batch
from repro.qoe.ksqi import KSQIModel
from tests.planner_oracle import evaluate_batch_legacy

#: Floor on the arena's aggregate speedup over the pre-arena kernel at
#: quick scale (the recording host measures ~2.5x): low enough for host
#: noise on shared runners, but an arena that stops being meaningfully
#: faster fails loudly.
MIN_ARENA_SPEEDUP = 1.5

#: The bitrate ladder every measured shape plans over.
LADDER_KBPS = np.array([300.0, 750.0, 1850.0, 2850.0, 4300.0])


def _make_inputs(num_sessions: int, num_scenarios: int, *, seed: int,
                 weighted: bool = False, need_rebuffer: bool = False,
                 levels: int = 5, horizon: int = 4,
                 max_step: int = 2) -> Dict[str, object]:
    """Engine-shaped kernel inputs (sorted ladders, masked max_step tree)."""
    rng = np.random.default_rng(seed)
    candidates = enumerate_level_sequences(levels, horizon, max_step=max_step)
    sizes = rng.uniform(2e5, 4e6, size=(num_sessions, horizon, levels))
    sizes.sort(axis=2)
    quality = rng.uniform(20, 95, size=(num_sessions, horizon, levels))
    quality.sort(axis=2)
    if weighted:
        weights = rng.uniform(0.5, 1.5, size=(num_sessions, horizon))
    else:
        weights = np.ones((num_sessions, horizon))
    last_level = rng.integers(-1, levels, size=num_sessions)
    tputs = rng.uniform(0.5, 8.0, size=(num_sessions, num_scenarios))
    probs = rng.uniform(0.1, 1.0, size=(num_sessions, num_scenarios))
    probs /= probs.sum(axis=1, keepdims=True)
    mask = (last_level[:, None] < 0) | (
        np.abs(candidates[None, :, 0] - last_level[:, None]) <= max_step
    )
    return dict(
        candidates=candidates,
        sizes=sizes,
        quality=quality,
        weights=weights,
        buffer_s=rng.uniform(2, 18, size=num_sessions),
        last_level=last_level,
        scenario_tputs=tputs,
        scenario_probs=probs,
        bitrates_kbps=LADDER_KBPS[:levels],
        quality_model=KSQIModel(),
        stall_options_s=(0.0,),
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        candidate_mask=mask,
        need_expected_rebuffer=need_rebuffer,
        weights_uniform=not weighted,
    )


def _shapes(tiny: bool) -> Dict[str, Dict[str, object]]:
    """The quick-grid kernel call mix (smaller batches at tiny scale)."""
    batch = 4 if tiny else 12
    return {
        "fugu_batch": _make_inputs(batch, 5, seed=11),
        "mpc_batch": _make_inputs(batch, 1, seed=13),
        "sensei_batch": _make_inputs(
            batch, 5, seed=17, weighted=True, need_rebuffer=True
        ),
    }


def _candidates_per_call(kwargs: Dict[str, object]) -> int:
    return (
        kwargs["sizes"].shape[0]
        * kwargs["candidates"].shape[0]
        * kwargs["scenario_tputs"].shape[1]
    )


@pytest.mark.benchmark(group="kernel")
def test_kernel_candidates_per_sec(context):
    """Oracle (legacy) vs arena f64, interleaved best-of-rounds."""
    tiny = context.scale.name == "tiny"
    rounds = 4 if tiny else 40
    iters = 20 if tiny else 25
    shapes = _shapes(tiny)
    configs = (
        ("legacy", evaluate_batch_legacy),
        ("arena_f64", evaluate_candidates_batch),
    )

    best: Dict[str, Dict[str, float]] = {
        name: {config: float("inf") for config, _ in configs}
        for name in shapes
    }
    for name, kwargs in shapes.items():
        for _, kernel in configs:
            kernel(**kwargs)  # warm
    for round_index in range(rounds):
        order = configs if round_index % 2 == 0 else configs[::-1]
        for name, kwargs in shapes.items():
            for config, kernel in order:
                t0 = time.perf_counter()
                for _ in range(iters):
                    kernel(**kwargs)
                elapsed = (time.perf_counter() - t0) / iters
                best[name][config] = min(best[name][config], elapsed)

    total_time = {config: 0.0 for config, _ in configs}
    total_candidates = 0
    for name, kwargs in shapes.items():
        total_candidates += _candidates_per_call(kwargs)
        for config, _ in configs:
            total_time[config] += best[name][config]
        print(
            f"\n{name}: legacy {best[name]['legacy'] * 1e6:.0f}us, "
            f"arena f64 {best[name]['arena_f64'] * 1e6:.0f}us "
            f"({best[name]['legacy'] / best[name]['arena_f64']:.2f}x)"
        )
    speedup = total_time["legacy"] / total_time["arena_f64"]
    print(
        f"\nkernel aggregate: arena f64 {speedup:.2f}x legacy, "
        f"{total_candidates / total_time['arena_f64']:.0f} cands/s"
    )

    if not tiny:
        assert speedup >= MIN_ARENA_SPEEDUP


@pytest.mark.benchmark(group="kernel")
def test_arena_matches_legacy_on_bench_shapes(context):
    """The measured shapes score bitwise-identically on both kernels."""
    for name, kwargs in _shapes(tiny=True).items():
        legacy = evaluate_batch_legacy(**kwargs)
        arena = evaluate_candidates_batch(**kwargs)
        for field in (
            "best_level", "best_stall_s", "best_score", "expected_rebuffer_s"
        ):
            assert np.array_equal(
                np.asarray(getattr(legacy, field)),
                np.asarray(getattr(arena, field)),
            ), (name, field)
        assert legacy.num_candidates == arena.num_candidates
