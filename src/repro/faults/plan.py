"""Deterministic fault plans: chaos scenarios as reproducible fixtures.

A :class:`FaultPlan` is a frozen list of :class:`FaultSpec`s — *raise in
shard 2*, *bit-flip the next ``result.json`` written* — that the execution
layer and the stores consult through injection hooks
(:mod:`repro.faults.injector`).  Because a plan is plain data and
:meth:`FaultPlan.random` derives one purely from a seed, every chaos
scenario is a reproducible test fixture: the same seed injects the same
faults at the same points, so CI can assert that each one either recovers
to bit-identical results or fails loudly with a quarantine record — never
silently wrong (``tests/test_faults.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.utils.validation import require

#: Faults aimed at one lockstep shard of work (the shard index is the
#: order in which :func:`repro.engine.lockstep.run_orders_lockstep` runs
#: its shards).
SHARD_FAULT_KINDS = ("raise_in_shard",)

#: Faults aimed at persistence.
STORE_FAULT_KINDS = ("corrupt_artifact",)

FAULT_KINDS = SHARD_FAULT_KINDS + STORE_FAULT_KINDS

#: Corruption modes for ``corrupt_artifact``: ``truncate`` models a torn
#: write (caught by JSON/npz parsing or checksums), ``bitflip`` models
#: silent media corruption (parses fine; only checksums catch it).
CORRUPT_MODES = ("truncate", "bitflip")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Attributes
    ----------
    kind: one of :data:`FAULT_KINDS`.
    shard: target shard index for shard faults (``None`` = first shard
        run after activation).
    path_glob: ``fnmatch`` pattern on the *file name* a
        ``corrupt_artifact`` fault strikes (``result.json``, ``*.json``,
        ``state.npz``, …).
    mode: ``truncate`` or ``bitflip`` for ``corrupt_artifact``.
    times: how many firings before the fault is exhausted (faults are
        consumed: a spent fault never strikes again).
    """

    kind: str
    shard: Optional[int] = None
    path_glob: str = "*"
    mode: str = "truncate"
    times: int = 1

    def __post_init__(self) -> None:
        require(self.kind in FAULT_KINDS,
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        require(self.mode in CORRUPT_MODES,
                f"corrupt mode must be one of {CORRUPT_MODES}, got {self.mode!r}")
        require(self.times >= 1, "times must be >= 1")

    def describe(self) -> str:
        """One-line human-readable form (used in fault-log events)."""
        if self.kind == "raise_in_shard":
            target = "first shard" if self.shard is None else f"shard {self.shard}"
            return f"raise in {target}"
        return f"{self.mode} next write matching {self.path_glob!r}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of faults to inject into one run."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def describe(self) -> Tuple[str, ...]:
        """Human-readable plan summary."""
        return tuple(spec.describe() for spec in self.faults)

    # ------------------------------------------------------------- generation

    @classmethod
    def random(
        cls,
        seed: int,
        max_faults: int = 3,
        num_shards: int = 8,
        kinds: Tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultPlan":
        """A deterministic pseudo-random plan: same seed, same plan.

        ``kinds`` narrows the fault population (e.g. store-only chaos
        tests); ``num_shards`` bounds shard targets so every generated
        fault can actually fire on a small grid.
        """
        require(max_faults >= 1, "max_faults must be >= 1")
        require(num_shards >= 1, "num_shards must be >= 1")
        rng = random.Random(int(seed))
        specs = []
        for _ in range(rng.randint(1, max_faults)):
            kind = rng.choice(list(kinds))
            if kind in SHARD_FAULT_KINDS:
                specs.append(
                    FaultSpec(kind=kind, shard=rng.randrange(num_shards))
                )
            else:
                specs.append(
                    FaultSpec(
                        kind=kind,
                        path_glob=rng.choice(
                            ("result.json", "*.json", "state.npz", "*")
                        ),
                        mode=rng.choice(list(CORRUPT_MODES)),
                    )
                )
        return cls(faults=tuple(specs), seed=int(seed))

    # ---------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (round-trips via :meth:`from_dict`) — lets chaos
        fixtures live in files or CI matrices."""
        return {
            "seed": self.seed,
            "faults": [
                {f.name: getattr(spec, f.name) for f in fields(spec)}
                for spec in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            faults=tuple(
                FaultSpec(**entry) for entry in payload.get("faults", [])
            ),
            seed=payload.get("seed"),
        )
