"""The decision service: batching boundaries, fairness, online ≡ offline.

Four layers, bottom-up:

* ``TestAdaptiveBatcher`` — the micro-batching window's boundary
  conditions: flush-at-N vs flush-at-T, the timer-race generation guard,
  empty windows, error propagation, drain semantics.
* ``TestWeightedFairScheduler`` — SFQ admission: the deterministic
  drain-order skew test (≥1.8x grants for 4:1 weights under contention),
  backlog shedding, timeout shedding, virtual-time idleness.
* ``TestDecisionService`` — the service loop: eviction mid-flight,
  degraded fallback, in-flight protocol guard, clean shutdown draining
  the window, telemetry surface.
* ``TestOnlineOfflineIdentity`` — the golden contract: sessions decided
  online through micro-batched ``plan_batch`` flushes finish bit-identical
  to the serial offline ``WorkOrder`` path, across every non-RL ABR
  family, while running concurrently in shared flushes.

No pytest-asyncio in the toolchain: every async scenario runs under a
plain ``asyncio.run`` inside a synchronous test.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments.spec import resolve_scale
from repro.obs import MetricsRegistry, use_registry
from repro.service import (
    ABR_FACTORIES,
    AdaptiveBatcher,
    DecisionService,
    SessionEvictedError,
    TenantSpec,
    WeightedFairScheduler,
    bench_payload,
    default_tenants,
    register_load,
    run_load,
    verify_online_offline,
)
from repro.service import loadgen
from repro.service.loadgen import synthetic_weights

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def context() -> ExperimentContext:
    return ExperimentContext(scale=resolve_scale("tiny"), seed=7)


# ------------------------------------------------------------------ batcher


class TestAdaptiveBatcher:
    def test_flush_at_size(self):
        async def scenario():
            flushes = []

            def flush(items):
                flushes.append(list(items))
                return [item * 2 for item in items]

            batcher = AdaptiveBatcher(flush, max_batch=4, max_delay_s=5.0)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(4))
            )
            return flushes, results, batcher

        flushes, results, batcher = asyncio.run(scenario())
        # The 4th submit trips the size trigger long before the 5 s timer.
        assert flushes == [[0, 1, 2, 3]]
        assert results == [0, 2, 4, 6]
        assert batcher.size_flushes == 1
        assert batcher.timer_flushes == 0

    def test_flush_at_timer(self):
        async def scenario():
            batcher = AdaptiveBatcher(
                lambda items: [item + 1 for item in items],
                max_batch=100, max_delay_s=0.01,
            )
            result = await asyncio.wait_for(batcher.submit(41), timeout=5.0)
            return result, batcher

        result, batcher = asyncio.run(scenario())
        assert result == 42
        assert batcher.timer_flushes == 1
        assert batcher.size_flushes == 0

    def test_stale_timer_is_ignored_after_size_flush(self):
        """The flush-at-N vs flush-at-T race: a timer armed for an
        already-flushed window must not flush its successor early."""
        async def scenario():
            flushes = []

            def flush(items):
                flushes.append(list(items))
                return list(items)

            batcher = AdaptiveBatcher(flush, max_batch=2, max_delay_s=5.0)
            stale_generation = batcher._generation
            await asyncio.gather(batcher.submit(1), batcher.submit(2))
            assert flushes == [[1, 2]]
            # A new window opens; replay the stale window's timer.
            pending = asyncio.ensure_future(batcher.submit(3))
            await asyncio.sleep(0)
            batcher._on_timer(stale_generation)
            assert batcher.pending == 1  # guard held: item 3 still queued
            await batcher.drain()
            assert await pending == 3
            return flushes, batcher

        flushes, batcher = asyncio.run(scenario())
        assert flushes == [[1, 2], [3]]
        assert batcher.flush_count == 2

    def test_empty_window_timer_and_drain_are_noops(self):
        async def scenario():
            batcher = AdaptiveBatcher(lambda items: list(items),
                                      max_batch=4, max_delay_s=0.01)
            batcher._on_timer(batcher._generation)  # nothing queued
            await batcher.drain()  # empty drain
            await batcher.drain()  # idempotent
            assert batcher.flush_count == 0
            with pytest.raises(RuntimeError, match="draining"):
                await batcher.submit(1)

        asyncio.run(scenario())

    def test_flush_error_fails_every_waiter(self):
        async def scenario():
            def flush(items):
                raise RuntimeError("kernel exploded")

            batcher = AdaptiveBatcher(flush, max_batch=2, max_delay_s=5.0)
            results = await asyncio.gather(
                batcher.submit(1), batcher.submit(2),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_per_item_exception_results(self):
        async def scenario():
            def flush(items):
                return [
                    KeyError("gone") if item == "bad" else item
                    for item in items
                ]

            batcher = AdaptiveBatcher(flush, max_batch=2, max_delay_s=5.0)
            good, bad = await asyncio.gather(
                batcher.submit("good"), batcher.submit("bad"),
                return_exceptions=True,
            )
            return good, bad

        good, bad = asyncio.run(scenario())
        assert good == "good"
        assert isinstance(bad, KeyError)

    def test_adaptive_delay_shrinks_under_light_load(self):
        async def scenario():
            batcher = AdaptiveBatcher(lambda items: list(items),
                                      max_batch=16, max_delay_s=0.002,
                                      ewma_alpha=1.0)
            assert batcher.effective_delay_s() == pytest.approx(0.002)
            await asyncio.wait_for(batcher.submit(1), timeout=5.0)
            # One single-item flush: EWMA collapses to 1, the window
            # tightens toward min_delay for the next lull.
            assert batcher.ewma_size == 1.0
            assert batcher.effective_delay_s() < 0.002

        asyncio.run(scenario())


# ---------------------------------------------------------------- fairness


class TestWeightedFairScheduler:
    def test_weighted_contention_skew(self):
        """4:1 weights must yield a ≥1.8x grant ratio under contention.

        Deterministic variant of the FAIR_SCHED wave test: one slot, both
        tenants queue eight requests at equal offered load, and the grant
        order over the contention window is decided purely by SFQ start
        tags.
        """
        async def scenario():
            scheduler = WeightedFairScheduler(capacity=1, max_backlog=64)
            scheduler.set_weight("X", 4.0)
            scheduler.set_weight("Y", 1.0)
            order = []
            assert await scheduler.acquire("hold")  # occupy the slot

            async def worker(tenant):
                assert await scheduler.acquire(tenant)
                order.append(tenant)
                await scheduler.release(tenant)

            tasks = []
            for index in range(8):  # interleaved equal offered load
                tasks.append(asyncio.ensure_future(worker("X")))
                tasks.append(asyncio.ensure_future(worker("Y")))
                await asyncio.sleep(0)
            await scheduler.release("hold")
            await asyncio.gather(*tasks)
            return order, scheduler

        order, scheduler = asyncio.run(scenario())
        window = order[:10]
        grants_x = window.count("X")
        grants_y = window.count("Y")
        assert grants_x / max(grants_y, 1) >= 1.8
        assert scheduler.grants["X"] == scheduler.grants["Y"] == 8  # all served

    def test_backlog_overflow_sheds_immediately(self):
        async def scenario():
            scheduler = WeightedFairScheduler(capacity=1, max_backlog=2)
            assert await scheduler.acquire("t")
            queued = [
                asyncio.ensure_future(scheduler.acquire("t"))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            shed = await scheduler.acquire("t")  # 3rd waiter: over backlog
            assert shed is False
            assert scheduler.shed["t"] == 1
            await scheduler.release("t")
            assert await queued[0]
            await scheduler.release("t")
            assert await queued[1]
            await scheduler.release("t")

        asyncio.run(scenario())

    def test_timeout_sheds_and_rolls_back_virtual_time(self):
        async def scenario():
            scheduler = WeightedFairScheduler(capacity=1)
            assert await scheduler.acquire("a")
            shed = await scheduler.acquire("b", timeout=0.01)
            assert shed is False
            assert scheduler.shed["b"] == 1
            assert scheduler.queue_depth("b") == 0
            # The shed request must not have inflated b's next start tag.
            assert scheduler._finish_tags["b"] == pytest.approx(
                scheduler._virtual_time
            )
            await scheduler.release("a")
            # The lazily-cancelled waiter must not deadlock later grants.
            assert await scheduler.acquire("b", timeout=0.5)
            await scheduler.release("b")

        asyncio.run(scenario())

    def test_release_without_acquire_raises(self):
        async def scenario():
            scheduler = WeightedFairScheduler(capacity=1)
            with pytest.raises(RuntimeError, match="release"):
                await scheduler.release("t")

        asyncio.run(scenario())


# ----------------------------------------------------------------- service


def _register_one(service, context, tenant="t", session_id="s", kind="mpc"):
    videos = context.videos()
    traces = context.traces()
    encoded = videos[0]
    weights = (synthetic_weights(encoded.num_chunks)
               if kind == "sensei" else None)
    return service.register(
        tenant=tenant, session_id=session_id, abr=ABR_FACTORIES[kind](),
        encoded=encoded, trace=traces[0], chunk_weights=weights,
    )


class TestDecisionService:
    def test_eviction_mid_flight_fails_explicitly(self, context):
        async def scenario():
            service = DecisionService(max_batch=16, max_delay_s=0.05)
            _register_one(service, context)
            pending = asyncio.ensure_future(service.decide("t", "s"))
            await asyncio.sleep(0)  # request lands in the open window
            service.evict("t", "s")
            with pytest.raises(SessionEvictedError):
                await asyncio.wait_for(pending, timeout=5.0)
            await service.close()

        asyncio.run(scenario())

    def test_degraded_fallback_on_shed(self, context):
        async def scenario():
            registry = MetricsRegistry()
            with use_registry(registry):
                service = DecisionService(
                    max_batch=4, max_delay_s=0.005, capacity=1,
                    shed_timeout_s=0.01,
                )
                gold = _register_one(service, context, "gold", "g0")
                bronze = _register_one(service, context, "bronze", "b0")
                service.set_tenant_weight("gold", 4.0)
                service.set_tenant_weight("bronze", 1.0)
                # Occupy the only slot so bronze's request must shed.
                assert await service.scheduler.acquire("gold")
                response = await service.decide("bronze", "b0")
                await service.scheduler.release("gold")
                await service.close()
            return response, bronze, registry.snapshot()

        response, bronze, snapshot = asyncio.run(scenario())
        assert response.degraded is True
        assert response.level == 0
        assert response.proactive_stall_s == 0.0
        assert response.batch_size == 0
        # Degraded decisions still advance the session.
        assert bronze.state.chunk_index == 1
        assert bronze.degraded == 1
        assert snapshot["counters"]["service.degraded_total"] == 1
        assert snapshot["counters"]["service.tenant.bronze.degraded"] == 1

    def test_concurrent_decides_for_one_session_rejected(self, context):
        async def scenario():
            service = DecisionService(max_batch=16, max_delay_s=0.05)
            _register_one(service, context)
            first = asyncio.ensure_future(service.decide("t", "s"))
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="sequential"):
                await service.decide("t", "s")
            assert (await asyncio.wait_for(first, 5.0)).degraded is False
            await service.close()

        asyncio.run(scenario())

    def test_close_drains_in_flight_window(self, context):
        async def scenario():
            service = DecisionService(max_batch=16, max_delay_s=30.0)
            _register_one(service, context)
            pending = asyncio.ensure_future(service.decide("t", "s"))
            await asyncio.sleep(0)
            # The window would otherwise sit for 30 s; close() flushes it.
            await service.close()
            response = await asyncio.wait_for(pending, timeout=5.0)
            assert response.degraded is False
            with pytest.raises(RuntimeError, match="closed"):
                await service.decide("t", "s")
            await service.close()  # idempotent
            return service

        service = asyncio.run(scenario())
        assert service.health()["status"] == "closed"

    def test_close_shuts_owned_runner(self, context):
        """Closing a service that made its own (serial) runner for the
        offline re-run leaves that re-run equal to the online session."""
        async def scenario():
            service = DecisionService(max_batch=4, max_delay_s=0.005)
            entry = _register_one(service, context, kind="bba")
            while not entry.done:
                await service.decide("t", "s")
            offline = service.offline_result(entry)  # creates owned runner
            runner = service._runner
            await service.close()
            return entry, offline, runner, service

        entry, offline, runner, service = asyncio.run(scenario())
        assert runner is not None and runner.backend == "serial"
        assert np.array_equal(
            entry.result.rendered.levels, offline.rendered.levels
        )

    def test_telemetry_surface(self, context):
        async def scenario():
            registry = MetricsRegistry()
            with use_registry(registry):
                service = DecisionService(max_batch=4, max_delay_s=0.005)
                entry = _register_one(service, context, kind="fugu")
                for _ in range(3):
                    await service.decide("t", "s")
                health = service.health()
                await service.close()
            return registry.snapshot(), health, entry

        snapshot, health, entry = asyncio.run(scenario())
        assert snapshot["counters"]["service.decisions_total"] == 3
        assert snapshot["counters"]["service.tenant.t.decisions"] == 3
        latency = snapshot["histograms"]["service.request_latency_s"]
        assert latency["count"] == 3
        # µs-resolution buckets, not the phase-scale defaults.
        assert latency["buckets"][0] < 1e-4
        assert snapshot["histograms"]["service.batch_size"]["count"] == 3
        assert health["sessions"] == 1
        assert health["sessions_by_tenant"] == {"t": 1}
        assert entry.decisions == 3


# ------------------------------------------------------- golden bit-identity


class TestOnlineOfflineIdentity:
    def test_all_families_bit_identical_under_shared_flushes(
        self, context, monkeypatch
    ):
        """Every non-RL family, decided online in *shared* micro-batches,
        must finish bit-identical to its serial offline run — including
        SENSEI sessions that schedule proactive stalls."""
        # Weight-contrasted videos (the recipe of the lockstep test
        # test_sensei_proactive_stalls_survive_lockstep) provoke SENSEI's
        # phase-2 stalls; both SENSEI sessions land on the first trace.
        monkeypatch.setattr(
            loadgen, "synthetic_weights",
            lambda num_chunks: np.where(
                np.arange(num_chunks) % 4 == 0, 3.0, 0.4
            ),
        )

        async def scenario():
            service = DecisionService(
                max_batch=8, max_delay_s=0.002, capacity=64,
                shed_timeout_s=None,
            )
            tenants = [
                TenantSpec("gold", weight=4.0, sessions=5,
                           abrs=("sensei", "bba", "rate", "mpc", "fugu")),
                TenantSpec("bronze", weight=1.0, sessions=5,
                           abrs=("fugu", "sensei", "mpc", "rate", "bba")),
            ]
            entries = register_load(service, context, tenants)
            report = await run_load(service, entries)
            verdict = verify_online_offline(service, entries)
            payload = bench_payload(service, report, tenants)
            await service.close()
            return entries, report, verdict, payload

        entries, report, verdict, payload = asyncio.run(scenario())
        assert report["finished_sessions"] == len(entries) == 10
        assert report["degraded"] == 0
        kinds = {entry.kind for entry in entries}
        assert kinds == {"generic", "mpc", "fugu", "sensei"}
        assert verdict["checked"] == 10
        assert verdict["identical"], verdict["mismatches"]
        # The online stall gate actually opened: some SENSEI session took
        # a proactive stall and still verified identical above.
        assert any(
            entry.result.timeline.proactive_stall_count() > 0
            for entry in entries if entry.kind == "sensei"
        )
        # Shared flushes actually happened: sessions were co-batched.
        assert payload["batch"]["mean_size"] > 1.0
        assert payload["latency"]["p99_ms"] > 0.0
        assert payload["throughput"]["decisions"] == report["decisions"]

    def test_degraded_sessions_are_excluded_from_verification(self, context):
        async def scenario():
            service = DecisionService(max_batch=4, max_delay_s=0.005,
                                      capacity=1, shed_timeout_s=0.01)
            entry = _register_one(service, context, kind="bba")
            assert await service.scheduler.acquire("hold")
            degraded = await service.decide("t", "s")  # shed → degraded
            await service.scheduler.release("hold")
            while not entry.done:
                await service.decide("t", "s")
            verdict = verify_online_offline(service, [entry])
            await service.close()
            return degraded, verdict

        degraded, verdict = asyncio.run(scenario())
        assert degraded.degraded is True
        assert verdict["checked"] == 0  # divergence point documented out
