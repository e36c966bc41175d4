"""Convenience entry points for running streaming sessions.

These wrap :class:`~repro.player.session.StreamingSession` so that the
experiment harness and the examples can simulate an (ABR, video, trace)
combination — or a whole grid of them — in one call.  Grid sweeps are
delegated to the batch engine (:class:`~repro.engine.runner.BatchRunner`),
whose default lockstep core steps the whole grid as batched arrays,
bit-identical to the seed's sequential loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.network.trace import ThroughputTrace
from repro.player.session import SessionConfig, StreamingSession, StreamResult
from repro.video.encoder import EncodedVideo


def simulate_session(
    abr: ABRAlgorithm,
    encoded: EncodedVideo,
    trace: ThroughputTrace,
    config: Optional[SessionConfig] = None,
    chunk_weights: Optional[np.ndarray] = None,
) -> StreamResult:
    """Run one streaming session and return its result."""
    session = StreamingSession(
        encoded=encoded,
        trace=trace,
        abr=abr,
        config=config,
        chunk_weights=chunk_weights,
    )
    return session.run()


def simulate_many(
    abrs: Sequence[ABRAlgorithm],
    videos: Sequence[EncodedVideo],
    traces: Sequence[ThroughputTrace],
    config: Optional[SessionConfig] = None,
    weights_by_video: Optional[Dict[str, np.ndarray]] = None,
    runner: Optional["BatchRunner"] = None,
) -> List[Tuple[str, str, str, StreamResult]]:
    """Simulate every (ABR, video, trace) combination.

    Returns a list of ``(abr_name, video_id, trace_name, result)`` tuples in
    deterministic iteration order.  ``weights_by_video`` optionally supplies
    sensitivity weights per video id (used by SENSEI variants); other videos
    stream with uniform weights.

    ``runner`` is the batch engine; ``None`` uses the default (lockstep)
    :class:`~repro.engine.runner.BatchRunner`.  Results come back in the
    seed's iteration order whichever engine runs them.
    """
    from repro.engine.runner import BatchRunner, orders_for_grid

    runner = runner if runner is not None else BatchRunner()
    keyed_orders = orders_for_grid(
        abrs, videos, traces, config=config, weights_by_video=weights_by_video
    )
    results = runner.run_orders([order for _, order in keyed_orders])
    return [
        (key[0], key[1], key[2], result)
        for (key, _), result in zip(keyed_orders, results)
    ]
