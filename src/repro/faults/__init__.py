"""Deterministic fault injection + the integrity/recovery vocabulary.

The fault-tolerant execution layer has three tiers, and this package is
its shared foundation (see ``docs/ROBUSTNESS.md`` for the full model):

1. **Shard recovery** — a lockstep shard that raises
   (:func:`repro.engine.lockstep.run_orders_lockstep`) is re-run through
   the serial reference path, bit-identically; every recovery is counted
   in a :class:`FaultLog`.
2. **Artifact & checkpoint integrity** — every persistent write is atomic
   and checksummed (:mod:`repro.faults.integrity`); corrupt files are
   quarantined with a reason record instead of silently swallowed.
3. **Deterministic fault injection** — a seeded :class:`FaultPlan`
   (:meth:`FaultPlan.random`) activated via :func:`inject` drives faults
   through hooks in the lockstep core and the stores, so chaos scenarios are
   reproducible fixtures: CI proves each one recovers to bit-identical
   results or fails loudly with a quarantine record, never silently wrong.

This package deliberately imports nothing from the engine, experiments or
training layers — they import *it* — so the hooks can sit anywhere in the
stack without cycles.
"""

from __future__ import annotations

from repro.faults.injector import (
    FaultInjector,
    SimulatedWorkerCrash,
    active_injector,
    inject,
)
from repro.faults.integrity import (
    CHECKSUM_KEY,
    QUARANTINE_DIR,
    atomic_write_bytes,
    atomic_write_text,
    attach_checksum,
    payload_checksum,
    quarantine_file,
    quarantine_records,
    sha256_hex,
    verify_checksum,
)
from repro.faults.log import (
    COUNTER_FIELDS,
    FaultLog,
    IntegrityWarning,
    ShardRecoveryWarning,
    merge_counter_dicts,
)
from repro.faults.plan import (
    CORRUPT_MODES,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    SHARD_FAULT_KINDS,
    STORE_FAULT_KINDS,
)

__all__ = [
    "CHECKSUM_KEY",
    "CORRUPT_MODES",
    "COUNTER_FIELDS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "IntegrityWarning",
    "QUARANTINE_DIR",
    "SHARD_FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "ShardRecoveryWarning",
    "SimulatedWorkerCrash",
    "active_injector",
    "atomic_write_bytes",
    "atomic_write_text",
    "attach_checksum",
    "inject",
    "merge_counter_dicts",
    "payload_checksum",
    "quarantine_file",
    "quarantine_records",
    "sha256_hex",
    "verify_checksum",
]
