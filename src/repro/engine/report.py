"""Perf-trajectory reporting: the ``BENCH_engine.json`` writer.

The perf harness (``benchmarks/test_perf_engine.py``) measures three things
every run — sessions/sec, planner decisions/sec and the quick-scale grid
wall-clock (the serial per-session engine vs the ``auto()`` engine, measured
back to back in the same process) — and persists them here so the numbers
can be tracked PR over PR.  Every write is a read-modify-write of the
existing file: a section the run did not measure keeps its last value.

The provenance helpers (:func:`environment_fingerprint`,
:func:`git_revision`) are shared with the experiment artifact store
(:mod:`repro.experiments.results`), so bench reports and ``ResultSet``
metadata describe runs the same way.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Union

from repro.faults.integrity import atomic_write_text

#: Default report location (repo root).
DEFAULT_REPORT_NAME = "BENCH_engine.json"

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
    """The runtime fingerprint stamped on bench reports and result sets."""
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


@dataclass
class BenchReport:
    """Aggregate of one perf-harness run.

    Attributes
    ----------
    sessions_per_sec:
        Engine-path streaming sessions completed per second.
    decisions_per_sec:
        Planner decisions per second, per measured ABR.
    grid:
        Quick-scale grid timings: serial-engine and engine wall-clock
        seconds, the resulting ``speedup_vs_serial_engine``, cell count and
        the backend the engine used.
    plan_cache:
        Candidate-tree memo statistics (hits, misses, currsize) observed
        over the grid run — the shared-tree guarantee made visible: a
        handful of misses builds every tree a whole sweep plans over.
    fault_log:
        Recovery accounting from the measured runners
        (:meth:`repro.faults.log.FaultLog.as_dict`): retries, pool
        rebuilds, serial fallbacks, timeouts, quarantines and the
        wall-clock they cost.  All-zero on a healthy run — a bench
        number produced through recovery paths is flagged, not hidden.
    phases:
        Span-tracer phase breakdown of a telemetry-enabled grid run
        (:func:`phases_from_snapshot`): planner-kernel vs player-stepping
        vs everything-else wall-clock seconds and their shares of the
        dispatch span.  Measured by :mod:`repro.obs.trace`, not
        hand-timed.
    meta:
        Environment fingerprint (python, platform, CPU count) plus the
        run's ``started_at`` timestamp and ``duration_s`` wall clock.
    """

    sessions_per_sec: float = 0.0
    decisions_per_sec: Dict[str, float] = field(default_factory=dict)
    grid: Dict[str, float] = field(default_factory=dict)
    #: RL (Pensieve-family) grid timings: the batched-RL-driver lockstep
    #: engine versus the serial per-session engine on the same cells, same
    #: run — the RL counterpart of ``grid.speedup_vs_serial_engine``.
    rl_grid: Dict[str, object] = field(default_factory=dict)
    plan_cache: Dict[str, int] = field(default_factory=dict)
    fault_log: Dict[str, object] = field(default_factory=dict)
    phases: Dict[str, object] = field(default_factory=dict)
    kernel: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return asdict(self)


def phases_from_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The phase breakdown of a metrics snapshot's spans.

    Splits the :data:`DISPATCH_SPAN` wall clock into the two disjoint
    leaves the tracer times — :data:`KERNEL_SPAN` (candidate-tensor
    evaluation) and :data:`STEP_SPAN` (SoA player stepping) — plus an
    arithmetic ``other_s`` remainder (driver decide loops, request
    merging, result assembly).  Shares are fractions of the dispatch
    total and only emitted when a dispatch span was recorded.  On the
    process backend the worker leaves accumulate in parallel wall
    clocks, so their sum may exceed the parent's dispatch time; the
    remainder is clamped at zero rather than reported negative.

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


def write_bench_report(
    report: BenchReport, path: Union[str, Path, None] = None
) -> Path:
    """Write the report as indented JSON; returns the path written.

    Sections still at their :class:`BenchReport` default keep the values
    already on file (see :func:`_merge_into_report`), so a run that stopped
    early, or never reached a section, does not blank it.
    """
    return _merge_into_report(report.to_dict(), path)


def update_bench_section(
    name: str, payload: Dict[str, object], path: Union[str, Path, None] = None
) -> Path:
    """Read-modify-write one top-level section of ``BENCH_engine.json``.

    Used by section-owning harnesses (the kernel microbench) to refresh
    their numbers without clobbering the rest of the report.
    """
    return _merge_into_report({name: payload}, path)


def _merge_into_report(
    sections: Dict[str, object], path: Union[str, Path, None]
) -> Path:
    """The one read-modify-write of the report file.

    Each of ``sections`` replaces the file's copy unless it is still at its
    :class:`BenchReport` default; every other section is carried forward
    (or written at its default when the file is new).  ``meta``, when
    given, describes the new run and always replaces the old one; the
    environment fingerprint, ``started_at`` and the git revision are
    stamped where missing.
    """
    if path is None:
        path = Path.cwd() / DEFAULT_REPORT_NAME
    path = Path(path)
    defaults = BenchReport().to_dict()
    merged = {**defaults, **(read_bench_report(path) or {})}
    for key, value in sections.items():
        if key == "meta" or value != defaults.get(key):
            merged[key] = value
    meta = merged["meta"]
    for key, value in environment_fingerprint().items():
        meta.setdefault(key, value)
    meta.setdefault("started_at", utc_now_iso())
    revision = git_revision()
    if revision is not None:
        meta.setdefault("git_revision", revision)
    atomic_write_text(path, json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return path


def read_bench_report(path: Union[str, Path]) -> Optional[dict]:
    """Load a previously written report, or ``None`` if absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())
