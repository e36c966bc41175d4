"""The always-on ABR decision service (docs/SERVICE.md).

The roadmap's production story: a long-lived asyncio front-end over the
batch engine.  Sessions register keyed by ``(tenant, session_id)``; each
holds its :class:`~repro.engine.runner.WorkOrder` and the unmodified
:class:`~repro.player.session.SessionState` built from it; ``decide()``
requests coalesce in an adaptive micro-batching window and each flush is
answered by one batched planner dispatch through
:func:`repro.engine.lockstep.plan_batch`, so online decisions are
bit-identical to the offline sweeps.  Admission under saturation is
weighted-fair across tenants with explicit degraded-mode load shedding,
and the whole surface is instrumented through :mod:`repro.obs`.

* :mod:`repro.service.service` — :class:`DecisionService` (the front door)
* :mod:`repro.service.batcher` — the adaptive micro-batching window
* :mod:`repro.service.fairsched` — weighted fair admission (SFQ)
* :mod:`repro.service.sessions` — the session table + ABR clones
* :mod:`repro.service.decisions` — batched, bit-identical decide paths
* :mod:`repro.service.loadgen` — load generator + the JSON load report
  (written only where ``python -m repro loadtest --out PATH`` says)
"""

from repro.service.batcher import AdaptiveBatcher
from repro.service.decisions import decide_batch
from repro.service.fairsched import WeightedFairScheduler
from repro.service.loadgen import (
    ABR_FACTORIES,
    BENCH_SERVICE_SCHEMA,
    TenantSpec,
    bench_payload,
    default_tenants,
    register_load,
    run_load,
    verify_online_offline,
    write_bench,
)
from repro.service.service import (
    BATCH_SIZE_BUCKETS,
    DecisionResponse,
    DecisionService,
    SessionEvictedError,
)
from repro.service.sessions import (
    SessionEntry,
    SessionKey,
    SessionTable,
    planner_kind,
)

__all__ = [
    "ABR_FACTORIES",
    "AdaptiveBatcher",
    "BATCH_SIZE_BUCKETS",
    "BENCH_SERVICE_SCHEMA",
    "DecisionResponse",
    "DecisionService",
    "SessionEntry",
    "SessionEvictedError",
    "SessionKey",
    "SessionTable",
    "TenantSpec",
    "WeightedFairScheduler",
    "bench_payload",
    "decide_batch",
    "default_tenants",
    "planner_kind",
    "register_load",
    "run_load",
    "verify_online_offline",
    "write_bench",
]
