"""Run provenance and the span phase split.

:func:`environment_fingerprint`, :func:`git_revision` and
:func:`utc_now_iso` describe a run the same way wherever one is recorded:
experiment ``ResultSet`` metadata (:mod:`repro.experiments.registry`), the
decision service's load report (:mod:`repro.service.loadgen`) and the
end-to-end benchmark (``bench/``).  :func:`phases_from_snapshot` splits a
metrics snapshot's dispatch span into its kernel and stepping leaves for
``repro profile``, the registry and the perf-harness floors in
``benchmarks/``.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Union

#: Span names the phase arithmetic is defined over.  ``planner.kernel``
#: and ``player.step`` are disjoint leaves under the ``engine.dispatch``
#: root (a kernel call never nests inside a step or vice versa), so
#: dispatch minus the two leaves is a meaningful "everything else" bucket.
DISPATCH_SPAN = "engine.dispatch"
KERNEL_SPAN = "planner.kernel"
STEP_SPAN = "player.step"


def utc_now_iso() -> str:
    """The current wall-clock instant as an ISO-8601 UTC timestamp."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def environment_fingerprint() -> Dict[str, object]:
    """The runtime fingerprint stamped on result sets and load reports."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def git_revision(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a work tree."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = output.stdout.strip()
    return revision if output.returncode == 0 and revision else None


def phases_from_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The phase breakdown of a metrics snapshot's spans.

    Splits the :data:`DISPATCH_SPAN` wall clock into the two disjoint
    leaves the tracer times — :data:`KERNEL_SPAN` (candidate-tensor
    evaluation) and :data:`STEP_SPAN` (SoA player stepping) — plus an
    arithmetic ``other_s`` remainder (driver decide loops, request
    merging, result assembly).  Shares are fractions of the dispatch
    total and only emitted when a dispatch span was recorded.  Leaves
    recorded outside any dispatch (the decision service's kernel calls,
    say) can push their sum past the dispatch total; the remainder is
    clamped at zero rather than reported negative.

    Returns ``{}`` when the snapshot has no spans (telemetry off).
    """
    spans = snapshot.get("spans", {})
    if not spans:
        return {}

    def total(name: str) -> float:
        return float(spans.get(name, {}).get("total_s", 0.0))

    dispatch = total(DISPATCH_SPAN)
    kernel = total(KERNEL_SPAN)
    stepping = total(STEP_SPAN)
    phases: Dict[str, object] = {
        "dispatch_s": round(dispatch, 6),
        "planner_kernel_s": round(kernel, 6),
        "stepping_s": round(stepping, 6),
        "other_s": round(max(dispatch - kernel - stepping, 0.0), 6),
    }
    if dispatch > 0.0:
        phases["planner_kernel_share"] = round(kernel / dispatch, 4)
        phases["stepping_share"] = round(stepping / dispatch, 4)
        phases["other_share"] = round(
            max(1.0 - kernel / dispatch - stepping / dispatch, 0.0), 4
        )
    return phases
