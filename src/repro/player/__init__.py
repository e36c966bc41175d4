"""Player substrate: a trace-driven DASH-style streaming session simulator.

This replaces the paper's DASH.js + Media Source Extensions testbed with a
discrete-event simulation of the same control loop: download one chunk at a
time at the level chosen by the ABR algorithm, drain the playback buffer in
real time, rebuffer when the buffer empties, and — uniquely to SENSEI —
honour *proactive stalls* scheduled by the ABR algorithm even when the
buffer is not empty (the MSE SourceBufferSink delay described in §6).

A session is run as a :class:`~repro.engine.runner.WorkOrder`: one order's
``run()`` is the serial reference, and
:meth:`~repro.engine.runner.BatchRunner.run_orders` runs many.
"""

from repro.player.buffer import PlaybackBuffer
from repro.player.events import DownloadRecord, StallEvent, SessionTimeline
from repro.player.session import SessionConfig, SessionState, StreamResult
from repro.player.manifest import SenseiManifest, manifest_to_xml, manifest_from_xml

__all__ = [
    "PlaybackBuffer",
    "DownloadRecord",
    "StallEvent",
    "SessionTimeline",
    "SessionConfig",
    "SessionState",
    "StreamResult",
    "SenseiManifest",
    "manifest_to_xml",
    "manifest_from_xml",
]
