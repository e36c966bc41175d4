"""The fault injector: hooks the execution layer and the stores consult.

Activation is a context manager::

    with inject(FaultPlan.random(seed=7)) as injector:
        results = runner.run_orders(orders)
    assert injector.fired  # what actually struck

Hook points (all no-ops when no injector is active):

* the lockstep core calls :meth:`FaultInjector.strike_shard` before it
  runs each shard — a matching ``raise_in_shard`` fault is *consumed* and
  raises :class:`SimulatedWorkerCrash` for that shard only, so the serial
  re-run that recovers it runs clean (the transient-fault model recovery
  is built for);
* :func:`repro.faults.integrity.atomic_write_bytes` calls
  :meth:`FaultInjector.corrupt_bytes` — a matching ``corrupt_artifact``
  fault truncates or bit-flips the payload before it hits disk.
"""

from __future__ import annotations

from contextlib import contextmanager
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.faults.plan import FaultPlan, SHARD_FAULT_KINDS


class SimulatedWorkerCrash(RuntimeError):
    """An injected crash standing in for a shard that fails mid-run.

    Raised by a ``raise_in_shard`` fault inside the lockstep core, it takes
    the same recovery path as a genuine error in a shard.
    """


class FaultInjector:
    """Consumes a :class:`FaultPlan`'s faults as the run reaches them."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._remaining: List[int] = [spec.times for spec in plan.faults]
        #: Human-readable record of every fault that actually struck.
        self.fired: List[str] = []

    # --------------------------------------------------------------- queries

    def exhausted(self) -> bool:
        """Whether every planned fault has fired its full ``times``."""
        return not any(self._remaining)

    def _take(self, spec_index: int, note: str) -> None:
        self._remaining[spec_index] -= 1
        self.fired.append(note)

    # ----------------------------------------------------------------- hooks

    def strike_shard(self, shard_index: int) -> None:
        """Raise :class:`SimulatedWorkerCrash` if a shard fault aimed at
        ``shard_index`` is live (consuming one firing of it)."""
        for i, spec in enumerate(self.plan.faults):
            if (
                spec.kind in SHARD_FAULT_KINDS
                and self._remaining[i] > 0
                and (spec.shard is None or spec.shard == shard_index)
            ):
                self._take(i, f"{spec.kind}@shard{shard_index}")
                raise SimulatedWorkerCrash(f"injected fault: {spec.kind}")

    def corrupt_bytes(self, path: Union[str, Path], data: bytes) -> bytes:
        """Apply a matching ``corrupt_artifact`` fault to a pending write."""
        name = Path(path).name
        for i, spec in enumerate(self.plan.faults):
            if (
                spec.kind == "corrupt_artifact"
                and self._remaining[i] > 0
                and fnmatch(name, spec.path_glob)
            ):
                self._take(i, f"corrupt_artifact[{spec.mode}]@{name}")
                if spec.mode == "truncate":
                    return data[: len(data) // 2]
                flipped = bytearray(data)
                if flipped:
                    # Flip one low bit mid-payload: deterministic, and for
                    # text formats usually still parseable — the silent
                    # corruption only a checksum catches.
                    flipped[len(flipped) // 2] ^= 0x01
                return bytes(flipped)
        return data


_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The active injector, or ``None``."""
    return _ACTIVE


@contextmanager
def inject(
    plan: Union[FaultPlan, FaultInjector]
) -> Iterator[FaultInjector]:
    """Activate a fault plan for the duration of the ``with`` block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already active in this process")
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


__all__ = [
    "FaultInjector",
    "SimulatedWorkerCrash",
    "active_injector",
    "inject",
]
