"""Batch simulation engine: the performance layer of the reproduction.

The experiment harness sweeps (ABR x video x trace) grids through thousands
of streaming sessions.  This package holds everything that makes those
sweeps fast without changing their results:

* :mod:`repro.engine.precompute` — per-video observation matrices served as
  slices (:class:`SessionPrecompute`) and fixed-size history ring buffers
  (:class:`HistoryRing`), so the per-chunk control loop allocates nothing it
  can precompute;
* :mod:`repro.engine.lockstep` — the lockstep multi-session core:
  :func:`run_orders_lockstep` advances a whole shard of sessions chunk-step
  by chunk-step, batching the MPC/Fugu/SENSEI planner across sessions as
  one ``(session x stall x scenario x candidate)`` tensor evaluation while
  staying bit-identical to serial execution;
* :mod:`repro.engine.runner` — :class:`BatchRunner`, which runs a list of
  :class:`WorkOrder`s through the lockstep core (the default) or the
  serial reference loop, always preserving result ordering;
* :mod:`repro.engine.report` — run provenance (environment fingerprint,
  git revision) and the span-derived phase split of a dispatch.

A lockstep shard that raises is re-run through the serial reference path,
with every recovery counted in the runner's
:class:`~repro.faults.log.FaultLog` (re-exported here as
:class:`FaultLog`).  See ``docs/ROBUSTNESS.md``.

See ``docs/PERFORMANCE.md`` for the architecture, the perf floors and the
end-to-end benchmark.
"""

from __future__ import annotations

from repro.engine.lockstep import run_orders_lockstep
from repro.engine.precompute import HistoryRing, SessionPrecompute
from repro.engine.runner import BatchRunner, WorkOrder
from repro.faults.log import FaultLog, ShardRecoveryWarning

__all__ = [
    "BatchRunner",
    "FaultLog",
    "HistoryRing",
    "SessionPrecompute",
    "ShardRecoveryWarning",
    "WorkOrder",
    "run_orders_lockstep",
]
