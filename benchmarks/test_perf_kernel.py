"""Kernel-only microbenchmark: the planner batch kernel in isolation.

Measures candidates-scored/sec for the production arena kernel
(``evaluate_candidates_batch``, float64, reported as ``arena_f64``)
against the pre-arena allocating kernel it is bit-identical to
(``legacy``: the test-only oracle in ``tests/planner_oracle.py``) over the
engine's quick-grid call shapes, and writes a ``kernel`` section into
``BENCH_engine.json`` (read-modify-write: the engine harness's sections
are preserved).

The measured shapes mirror what the lockstep coordinator actually sends to
``evaluate_candidates_batch`` on the quick grid: a Fugu-style batch
(12 sessions x 5 throughput scenarios over the 295-candidate max_step=2
tree), an MPC-style batch (single conservative scenario) and a
SENSEI-style weighted batch (sensitivity weights + rebuffer expectation).
Each configuration runs interleaved best-of-rounds so host-load drift hits
every side alike — the same methodology as the engine harness.

Also records arena build-time amortisation (how many kernel calls one
arena build pays for itself in) and the cache-blocked tile sizes
(:func:`repro.abr.planner.kernel_block_sessions`) the coordinator would
use for each shape.

Run via ``make bench-kernel`` or, from the repository root,
``PYTHONPATH=src python -m pytest benchmarks/test_perf_kernel.py -v``
(the oracle is imported as ``tests.planner_oracle``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.abr import planner
from repro.abr.planner import (
    clear_plan_cache,
    enumerate_level_sequences,
    evaluate_candidates_batch,
    kernel_block_sessions,
)
from repro.engine.report import update_bench_section
from repro.qoe.ksqi import KSQIModel
from tests.planner_oracle import evaluate_batch_legacy

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The tracked target: arena float64 must score candidates at least this
#: much faster than the pre-arena kernel on the quick-grid call mix.
TARGET_ARENA_SPEEDUP = 2.0

#: Assertion floor at quick scale — below the target (host noise on shared
#: runners), but an arena that stops being meaningfully faster fails loudly.
MIN_ARENA_SPEEDUP = 1.5

#: The ISSUE/ROADMAP acceptance bar recorded in the report.
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
    rounds = 3 if tiny else 5
    iters = 20 if tiny else 120
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
    for _ in range(rounds):
        for name, kwargs in shapes.items():
            for config, kernel in configs:
                t0 = time.perf_counter()
                for _ in range(iters):
                    kernel(**kwargs)
                elapsed = (time.perf_counter() - t0) / iters
                best[name][config] = min(best[name][config], elapsed)

    section: Dict[str, object] = {"scale": context.scale.name, "shapes": {}}
    total_time = {config: 0.0 for config, _ in configs}
    total_candidates = 0
    for name, kwargs in shapes.items():
        per_call = _candidates_per_call(kwargs)
        total_candidates += per_call
        entry: Dict[str, float] = {}
        for config, _ in configs:
            elapsed = best[name][config]
            total_time[config] += elapsed
            entry[f"{config}_us"] = round(elapsed * 1e6, 1)
            entry[f"{config}_cands_per_sec"] = round(per_call / elapsed, 0)
        entry["speedup_arena_f64"] = round(
            best[name]["legacy"] / best[name]["arena_f64"], 2
        )
        section["shapes"][name] = entry
        print(
            f"\n{name}: legacy {entry['legacy_us']:.0f}us, "
            f"arena f64 {entry['arena_f64_us']:.0f}us "
            f"({entry['speedup_arena_f64']:.2f}x)"
        )

    aggregate = {
        f"{config}_cands_per_sec": round(total_candidates / total_time[config])
        for config, _ in configs
    }
    aggregate["speedup_arena_f64"] = round(
        total_time["legacy"] / total_time["arena_f64"], 2
    )
    aggregate["target_speedup_arena_f64"] = TARGET_ARENA_SPEEDUP
    section["aggregate"] = aggregate

    # Arena build-time amortisation: one cold build vs per-call savings on
    # the dominant shape.
    kwargs = shapes["fugu_batch"]
    clear_plan_cache()
    candidates = enumerate_level_sequences(5, 4, max_step=2)
    t0 = time.perf_counter()
    arena = planner._TreeArena(candidates, LADDER_KBPS)
    build_s = time.perf_counter() - t0
    saved = max(
        best["fugu_batch"]["legacy"] - best["fugu_batch"]["arena_f64"], 1e-9
    )
    section["arena_build"] = {
        "build_ms": round(build_s * 1e3, 3),
        "amortise_calls": int(np.ceil(build_s / saved)),
    }
    assert arena.C == candidates.shape[0]

    # Cache-blocked tile sizes the coordinator would use per shape.
    section["block_sessions"] = {
        "fugu": kernel_block_sessions(5, 4, 2, 5),
        "mpc": kernel_block_sessions(5, 4, 2, 1),
    }

    update_bench_section("kernel", section, REPORT_PATH)
    print(
        f"\nkernel aggregate: arena f64 "
        f"{aggregate['speedup_arena_f64']:.2f}x legacy, "
        f"{aggregate['arena_f64_cands_per_sec']:.0f} cands/s; "
        f"build {section['arena_build']['build_ms']:.1f}ms amortised in "
        f"{section['arena_build']['amortise_calls']} calls; wrote kernel "
        f"section to {REPORT_PATH.name}"
    )

    if not tiny:
        assert aggregate["speedup_arena_f64"] >= MIN_ARENA_SPEEDUP


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
