"""Golden-master regression harness for the streaming engine.

``tests/golden/stream_results.json`` pins the *bitwise* output of a small
canonical session grid — every ABR family x two traces x proactive-stall
mode on/off, plus genuinely *trained* Pensieve and SENSEI-Pensieve
policies in both greedy and seeded-exploration mode — as produced by the
serial (seed-semantics) backend.  The test replays the grid through the
serial and lockstep backends and fails on any drift: a single
flipped bit in a level choice, a stall timestamp or a measured throughput
is a red suite, because the whole value of the fast engine rests on
trusting that its outputs are exactly the seed's (see docs/TESTING.md).

The trained-RL cells are the trust anchor for the lockstep engine's
batched RL driver: greedy cells pin the stacked-forward/argmax path, and
exploration cells (with a pinned ``WorkOrder.exploration_seed``) pin the
per-session RNG streams that let exploring policies batch at all.

Floats are serialised with ``float.hex()`` — lossless, so the comparison
is bit-exact, not approximate.

Regenerating (only after an *intentional*, reviewed semantic change):

    make regen-golden          # or: python tests/test_golden.py --regen
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.abr.rate import RateBasedABR
from repro.core.sensei_abr import SenseiFuguABR, make_sensei_pensieve
from repro.engine.runner import BatchRunner, WorkOrder
from repro.network.bank import TraceBank
from repro.player.session import StreamResult
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "stream_results.json"

#: Proactive-stall modes: "on" drives SENSEI's stall scheduling (contrasted
#: sensitivity weights + the default stall options), "off" disables it
#: (uniform weights, no stall actions) so the grid pins both code paths.
STALL_MODES = ("on", "off")


def _encoded_video():
    """The canonical golden video: small but long enough to rebuffer."""
    source = SourceVideo.synthesize(
        "golden-sports", "sports", duration_s=64.0, chunk_duration_s=4.0,
        seed=1207,
    )
    return SyntheticEncoder(seed=1208).encode(source, DEFAULT_LADDER)


def _traces():
    """Two canonical traces: an ample one and a scarce, variable one.

    The scarce trace's 0.45 scale is picked so the SENSEI-Fugu stall-on
    cells actually schedule proactive stalls *and* some sessions rebuffer
    (asserted below) — the golden grid must keep pinning both stall paths.
    """
    bank = TraceBank(num_traces=2, duration_s=500.0, seed=1209)
    fast, _ = bank.traces()
    return [fast, fast.scaled(0.45, name="golden-scarce")]


def _abr_families(stall_mode: str):
    """One instance of every ABR family, fresh per call (seeded RL)."""
    stall_on = stall_mode == "on"
    return [
        BufferBasedABR(),
        RateBasedABR(),
        ModelPredictiveABR(),
        FuguABR(),
        SenseiFuguABR() if stall_on else SenseiFuguABR(
            stall_options_s=(0.0,)
        ),
        PensieveABR(config=PensieveConfig(seed=1210)),
        make_sensei_pensieve(seed=1211),
    ]


def _chunk_weights(encoded, stall_mode: str):
    if stall_mode != "on":
        return None
    # Strong sensitivity contrast: every fourth chunk is a key moment —
    # exactly the shape that opens SENSEI's proactive-stall gate.
    return np.where(np.arange(encoded.num_chunks) % 4 == 0, 3.0, 0.4)


def _train_rl(abr, encoded, traces, chunk_weights, episode_seeds):
    """A few genuine policy-gradient updates, deterministic by seeds.

    Every episode is a pure function of (parameters, episode seed) — each
    order pins ``exploration_seed`` — and its rewards come from the
    training collector's reward, so the resulting weights are fully pinned
    by the seeds here and the grid stays reproducible.  Returned in greedy
    mode.
    """
    from repro.engine.runner import WorkOrder
    from repro.ml.rl import EpisodeBuffer
    from repro.training.collector import _rollout_from_trajectory
    from repro.training.curriculum import EpisodeSpec

    abr.greedy = False
    for seed in episode_seeds:
        for trace in traces:
            abr.begin_capture()
            result = WorkOrder(
                abr, encoded, trace, chunk_weights=chunk_weights,
                exploration_seed=seed,
            ).run()
            rollout = _rollout_from_trajectory(
                abr.quality_model,
                EpisodeSpec(encoded, trace, chunk_weights, seed),
                result, abr.end_capture(),
            )
            abr.agent.train_on_episode(EpisodeBuffer.from_arrays(
                rollout.states, rollout.actions, rollout.rewards,
            ))
    abr.greedy = True
    return abr


def _trained_rl_cells(encoded, traces):
    """Trained Pensieve-family cells, greedy and seeded-exploration mode.

    Greedy cells pin the batched stacked-forward/argmax path; exploration
    cells pin the per-session RNG streams (``WorkOrder.exploration_seed``)
    the lockstep RL driver replays.  Both backends must reproduce all of
    them bitwise.
    """
    weights = _chunk_weights(encoded, "on")
    trained = [
        (None, _train_rl(
            PensieveABR(config=PensieveConfig(seed=1220)),
            encoded, traces, None, (1222, 1223),
        )),
        (weights, _train_rl(
            make_sensei_pensieve(seed=1221),
            encoded, traces, weights, (1224, 1225),
        )),
    ]
    cells = []
    for cell_weights, abr in trained:
        explorer = copy.deepcopy(abr)
        explorer.greedy = False
        for index, trace in enumerate(traces):
            cells.append((
                f"{abr.name}-trained/{trace.name}/greedy",
                WorkOrder(
                    abr=abr, encoded=encoded, trace=trace,
                    chunk_weights=cell_weights,
                ),
            ))
            seed = 1230 + index
            cells.append((
                f"{abr.name}-trained/{trace.name}/explore-{seed}",
                WorkOrder(
                    abr=explorer, encoded=encoded, trace=trace,
                    chunk_weights=cell_weights, exploration_seed=seed,
                ),
            ))
    return cells


def golden_orders():
    """The canonical (cell key, WorkOrder) grid, deterministic by seeds."""
    encoded = _encoded_video()
    traces = _traces()
    cells = []
    for stall_mode in STALL_MODES:
        weights = _chunk_weights(encoded, stall_mode)
        for abr in _abr_families(stall_mode):
            for trace in traces:
                key = f"{abr.name}/{trace.name}/stall-{stall_mode}"
                cells.append(
                    (
                        key,
                        WorkOrder(
                            abr=abr,
                            encoded=encoded,
                            trace=trace,
                            chunk_weights=weights,
                        ),
                    )
                )
    cells.extend(_trained_rl_cells(encoded, traces))
    return cells


# --------------------------------------------------------- serialisation


def _hex_list(values) -> list:
    return [float(value).hex() for value in values]


def serialize_result(result: StreamResult) -> dict:
    """Lossless JSON form of everything a StreamResult observable carries."""
    rendered = result.rendered
    timeline = result.timeline
    return {
        "abr": result.abr_name,
        "trace": result.trace_name,
        "levels": [int(level) for level in rendered.levels],
        "stalls_s": _hex_list(rendered.stalls_s),
        "startup_delay_s": float(rendered.startup_delay_s).hex(),
        "total_bytes": float(result.total_bytes).hex(),
        "session_duration_s": float(result.session_duration_s).hex(),
        "downloads": {
            "size_bytes": _hex_list(
                record.size_bytes for record in timeline.downloads
            ),
            "start_time_s": _hex_list(
                record.start_time_s for record in timeline.downloads
            ),
            "duration_s": _hex_list(
                record.duration_s for record in timeline.downloads
            ),
            "throughput_mbps": _hex_list(
                record.throughput_mbps for record in timeline.downloads
            ),
            "buffer_before_s": _hex_list(
                record.buffer_before_s for record in timeline.downloads
            ),
            "buffer_after_s": _hex_list(
                record.buffer_after_s for record in timeline.downloads
            ),
        },
        "stall_events": [
            [
                event.cause,
                int(event.chunk_index),
                float(event.start_time_s).hex(),
                float(event.duration_s).hex(),
            ]
            for event in timeline.stalls
        ],
    }


def compute_golden(backend: str) -> dict:
    cells = golden_orders()
    runner = BatchRunner(backend=backend)
    results = runner.run_orders([order for _, order in cells])
    return {
        key: serialize_result(result)
        for (key, _), result in zip(cells, results)
    }


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    payload = {
        "_comment": (
            "Golden-master StreamResults (serial backend, float hex). "
            "Regenerate ONLY after an intentional semantic change: "
            "make regen-golden. See docs/TESTING.md."
        ),
        "cells": compute_golden("serial"),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {GOLDEN_PATH} ({len(payload['cells'])} cells)")


# ----------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def golden_cells() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - setup error
        pytest.fail(
            f"{GOLDEN_PATH} missing - regenerate with `make regen-golden`"
        )
    return json.loads(GOLDEN_PATH.read_text())["cells"]


class TestGoldenMasters:
    @pytest.mark.parametrize("backend", ["serial", "lockstep"])
    def test_backend_matches_golden_bitwise(self, golden_cells, backend):
        """Every backend reproduces the pinned grid bit for bit."""
        computed = compute_golden(backend)
        assert sorted(computed) == sorted(golden_cells), (
            "golden grid shape changed - regenerate with `make regen-golden`"
        )
        for key, expected in golden_cells.items():
            actual = computed[key]
            if actual != expected:
                drifted = [
                    field
                    for field in expected
                    if actual.get(field) != expected[field]
                ]
                pytest.fail(
                    f"golden drift in cell {key!r}, fields {drifted}: "
                    "the engine no longer reproduces the pinned seed "
                    "semantics bitwise. If (and only if) this change is "
                    "intentional, regenerate with `make regen-golden` and "
                    "review the fixture diff."
                )

    def test_grid_covers_proactive_stalls(self, golden_cells):
        """The pinned grid exercises the proactive-stall path — otherwise
        golden coverage of SENSEI's distinguishing action silently decays."""
        stall_cells = [
            cell
            for key, cell in golden_cells.items()
            if key.startswith("SENSEI-Fugu/") and key.endswith("stall-on")
        ]
        assert any(
            any(event[0] == "proactive" for event in cell["stall_events"])
            for cell in stall_cells
        )

    def test_grid_covers_rebuffering(self, golden_cells):
        """The scarce trace must actually rebuffer someone."""
        assert any(
            any(event[0] == "rebuffer" for event in cell["stall_events"])
            for cell in golden_cells.values()
        )

    def test_grid_covers_trained_rl_both_modes(self, golden_cells):
        """Trained RL coverage must not decay: both families, both modes.

        The exploration cells are what pins the lockstep RL driver's
        per-session RNG streams; losing them would let the sampling path
        drift without a red suite.
        """
        for family in ("Pensieve-trained", "SENSEI-Pensieve-trained"):
            greedy = [
                key for key in golden_cells
                if key.startswith(f"{family}/") and key.endswith("/greedy")
            ]
            explore = [
                key for key in golden_cells
                if key.startswith(f"{family}/") and "/explore-" in key
            ]
            assert greedy and explore, family
        # Exploration must actually diverge from greedy somewhere, or the
        # explore cells silently pin the same trajectories twice.
        assert any(
            golden_cells[greedy_key]["levels"] != golden_cells[explore_key]["levels"]
            for greedy_key in golden_cells if greedy_key.endswith("/greedy")
            for explore_key in golden_cells
            if "/explore-" in explore_key
            and explore_key.split("/")[:2] == greedy_key.split("/")[:2]
        )


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:  # pragma: no cover - convenience entry point
        print(__doc__)
        print("usage: python tests/test_golden.py --regen")
