"""Load generator + benchmark report for the decision service.

Closed-loop, multi-tenant: each registered session runs one asyncio task
that calls ``decide()`` again the moment the previous answer arrives, so
offered load scales with session count and the micro-batching window and
the fair scheduler both see realistic contention.  Everything is built
from the standard :class:`~repro.experiments.common.ExperimentContext`
inventory (videos × traces × the non-RL ABR zoo), so a loadtest exercises
exactly the assets the offline experiments sweep.

:func:`bench_payload` shapes the results into the load report
(``BENCH_SERVICE_SCHEMA``; ``python -m repro loadtest --out PATH`` writes
it) — decisions/sec, p50/p99/mean request latency, the batch-size distribution
and per-tenant fairness accounting — with the same environment/git
fingerprints experiment ``ResultSet`` metadata carries, and
:func:`verify_online_offline` is the golden-master hook: every
non-degraded finished session is re-run offline through the stock
:class:`WorkOrder` path and must match level-for-level, stall-for-stall.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.abr import (
    BufferBasedABR,
    FuguABR,
    ModelPredictiveABR,
    RateBasedABR,
)
from repro.core.sensei_abr import SenseiFuguABR
from repro.engine.report import (
    environment_fingerprint,
    git_revision,
    utc_now_iso,
)
from repro.service.service import DecisionService
from repro.service.sessions import SessionEntry

__all__ = [
    "ABR_FACTORIES",
    "BENCH_SERVICE_SCHEMA",
    "TenantSpec",
    "bench_payload",
    "default_tenants",
    "register_load",
    "run_load",
    "synthetic_weights",
    "verify_online_offline",
    "write_bench",
]

BENCH_SERVICE_SCHEMA = "bench_service/v1"

#: The non-RL ABR zoo the loadtest (and the golden test) cycles through.
ABR_FACTORIES: Dict[str, type] = {
    "bba": BufferBasedABR,
    "rate": RateBasedABR,
    "mpc": ModelPredictiveABR,
    "fugu": FuguABR,
    "sensei": SenseiFuguABR,
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the offered load."""

    name: str
    weight: float = 1.0
    sessions: int = 2
    #: ABR kinds cycled across this tenant's sessions.
    abrs: Tuple[str, ...] = ("bba", "mpc", "fugu", "sensei")


def default_tenants(
    sessions_per_tenant: int = 4, weight_ratio: float = 4.0
) -> List[TenantSpec]:
    """The canonical contention pair: gold weighted ``weight_ratio`` : 1."""
    return [
        TenantSpec("gold", weight=weight_ratio, sessions=sessions_per_tenant),
        TenantSpec("bronze", weight=1.0, sessions=sessions_per_tenant),
    ]


def synthetic_weights(num_chunks: int) -> np.ndarray:
    """Rising per-chunk sensitivity: keeps SENSEI's shift-gate reachable
    (later chunks matter more, so stalling *now* can pay off) without the
    cost of running the profiler inside a loadtest."""
    return np.linspace(1.0, 2.0, num_chunks)


def register_load(
    service: DecisionService,
    context,
    tenants: Sequence[TenantSpec],
) -> List[SessionEntry]:
    """Register every tenant's sessions over the context's inventory.

    Sessions round-robin the (video, trace) grid; ABR kinds cycle each
    tenant's ``abrs``.  SENSEI sessions get synthetic chunk weights (see
    :func:`synthetic_weights`); everything else uses uniform weights.
    """
    videos = context.videos()
    traces = context.traces()
    entries: List[SessionEntry] = []
    cell = 0
    for spec in tenants:
        for index in range(spec.sessions):
            kind = spec.abrs[index % len(spec.abrs)]
            encoded = videos[cell % len(videos)]
            trace = traces[(cell // len(videos)) % len(traces)]
            cell += 1
            weights = (
                synthetic_weights(encoded.num_chunks)
                if kind == "sensei" else None
            )
            entries.append(service.register(
                tenant=spec.name,
                session_id=f"{kind}-{index}",
                abr=ABR_FACTORIES[kind](),
                encoded=encoded,
                trace=trace,
                chunk_weights=weights,
                weight=spec.weight,
            ))
    return entries


async def run_load(
    service: DecisionService,
    entries: Sequence[SessionEntry],
    max_decisions_per_session: Optional[int] = None,
    duration_s: Optional[float] = None,
) -> Dict[str, object]:
    """Drive every session closed-loop until done (or a bound trips).

    Returns the raw load report: wall time, decision/degraded counts,
    latency samples, per-tenant tallies.
    """
    latencies: List[float] = []
    per_tenant: Dict[str, Dict[str, int]] = {}
    started = time.perf_counter()
    deadline = started + duration_s if duration_s is not None else None

    async def drive(entry: SessionEntry) -> None:
        count = 0
        while not entry.done:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if (max_decisions_per_session is not None
                    and count >= max_decisions_per_session):
                return
            response = await service.decide(entry.tenant, entry.session_id)
            count += 1
            latencies.append(response.latency_s)
            tally = per_tenant.setdefault(
                entry.tenant, {"decisions": 0, "degraded": 0, "finished": 0}
            )
            tally["decisions"] += 1
            if response.degraded:
                tally["degraded"] += 1
            if response.done:
                tally["finished"] += 1

    await asyncio.gather(*(drive(entry) for entry in entries))
    wall_s = time.perf_counter() - started
    decisions = len(latencies)
    return {
        "sessions": len(entries),
        "finished_sessions": sum(1 for entry in entries if entry.done),
        "decisions": decisions,
        "degraded": sum(entry.degraded for entry in entries),
        "wall_s": wall_s,
        "decisions_per_sec": decisions / wall_s if wall_s > 0 else 0.0,
        "latencies_s": latencies,
        "per_tenant": per_tenant,
    }


def _percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted samples."""
    if not sorted_samples:
        return 0.0
    rank = min(
        len(sorted_samples) - 1,
        max(0, int(round(q / 100.0 * (len(sorted_samples) - 1)))),
    )
    return float(sorted_samples[rank])


def bench_payload(
    service: DecisionService,
    load_report: Dict[str, object],
    tenants: Sequence[TenantSpec],
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Shape a load report into the ``BENCH_service.json`` schema."""
    latencies = sorted(load_report.get("latencies_s", []))
    batch_stats = service.batcher.stats()
    flushes = batch_stats["flushes"]
    payload: Dict[str, object] = {
        "schema": BENCH_SERVICE_SCHEMA,
        "generated_at": utc_now_iso(),
        "environment": environment_fingerprint(),
        "git_revision": git_revision(),
        "config": {
            "max_batch": service.batcher.max_batch,
            "max_delay_s": service.batcher.max_delay_s,
            "capacity": service.scheduler.capacity,
            "shed_timeout_s": service.shed_timeout_s,
            "tenants": [
                {"name": spec.name, "weight": spec.weight,
                 "sessions": spec.sessions, "abrs": list(spec.abrs)}
                for spec in tenants
            ],
        },
        "throughput": {
            "decisions": load_report["decisions"],
            "degraded": load_report["degraded"],
            "wall_s": round(load_report["wall_s"], 6),
            "decisions_per_sec": round(load_report["decisions_per_sec"], 3),
        },
        "latency": {
            "samples": len(latencies),
            "p50_ms": round(1e3 * _percentile(latencies, 50.0), 6),
            "p99_ms": round(1e3 * _percentile(latencies, 99.0), 6),
            "mean_ms": round(
                1e3 * sum(latencies) / len(latencies), 6
            ) if latencies else 0.0,
            "max_ms": round(1e3 * latencies[-1], 6) if latencies else 0.0,
        },
        "batch": {
            "flushes": flushes,
            "size_flushes": batch_stats["size_flushes"],
            "timer_flushes": batch_stats["timer_flushes"],
            "mean_size": round(
                batch_stats["items"] / flushes, 3
            ) if flushes else 0.0,
            "ewma_size": batch_stats["ewma_size"],
        },
        "fairness": service.scheduler.stats(),
        "per_tenant": load_report.get("per_tenant", {}),
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_bench(
    path: Union[str, Path], payload: Dict[str, object]
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def verify_online_offline(
    service: DecisionService, entries: Sequence[SessionEntry]
) -> Dict[str, object]:
    """Golden check: finished, never-degraded sessions must equal offline.

    Each qualifying session is replayed offline through its stock
    :class:`WorkOrder`; levels and stalls must match exactly (the
    bit-identity contract).  Degraded sessions are excluded — shedding is
    the documented divergence point.
    """
    checked = 0
    mismatches: List[Dict[str, object]] = []
    for entry in entries:
        if not entry.done or entry.degraded or entry.result is None:
            continue
        offline = service.offline_result(entry)
        online = entry.result
        checked += 1
        if not (
            np.array_equal(online.rendered.levels, offline.rendered.levels)
            and np.array_equal(
                online.rendered.stalls_s, offline.rendered.stalls_s
            )
            and online.rendered.startup_delay_s
            == offline.rendered.startup_delay_s
        ):
            mismatches.append({
                "session": list(entry.key),
                "abr": entry.clone.name,
                "online_levels": online.rendered.levels.tolist(),
                "offline_levels": offline.rendered.levels.tolist(),
            })
    return {"checked": checked, "mismatches": mismatches,
            "identical": not mismatches}
