"""Chaos + integrity suite for the fault-tolerant execution layer.

Three layers, mirroring ``docs/ROBUSTNESS.md``:

* **unit** — the fault vocabulary itself (:class:`FaultLog` accounting,
  deterministic :class:`FaultPlan` generation, checksum/atomic-write/
  quarantine primitives);
* **integration** — stores and runners under specific injected faults:
  corrupt cells/artifacts/checkpoints are quarantined and recomputed (or
  fail loudly where recomputation is impossible), killed workers and
  timed-out shards are retried to *bit-identical* results;
* **property** — hypothesis draws seeds, :meth:`FaultPlan.random` expands
  them into chaos scenarios, and every scenario must either converge to
  the fault-free golden results or fail loudly with a quarantine record.
  Silently-wrong outcomes are the only forbidden ending.

The real-SIGKILL tests spawn actual pool workers and are marked ``slow``
+ ``chaos`` (CI runs them in the ``chaos-smoke`` job; ``make chaos``
locally).
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.engine.runner import BatchRunner, orders_for_grid
from repro.experiments.results import ArtifactStore, CellCache, ResultSet
from repro.experiments.spec import ExperimentSpec
from repro.faults import (
    COUNTER_FIELDS,
    FaultLog,
    FaultPlan,
    FaultSpec,
    IntegrityWarning,
    SHARD_FAULT_KINDS,
    STORE_FAULT_KINDS,
    ShardRecoveryWarning,
    active_injector,
    attach_checksum,
    atomic_write_text,
    inject,
    merge_counter_dicts,
    payload_checksum,
    quarantine_file,
    quarantine_records,
    verify_checksum,
)
from repro.network.bank import TraceBank
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo


def _encode(video_id: str, genre: str, duration_s: float, seed: int):
    source = SourceVideo.synthesize(
        video_id, genre, duration_s=duration_s, chunk_duration_s=4.0,
        seed=seed,
    )
    return SyntheticEncoder(seed=seed + 10).encode(source, DEFAULT_LADDER)


@pytest.fixture(scope="module")
def chaos_orders():
    """A small (ABR x video x trace) grid: enough orders for real shards."""
    videos = [
        _encode("ch-sports", "sports", 48.0, 61),
        _encode("ch-nature", "nature", 64.0, 62),
    ]
    traces = TraceBank(num_traces=3, duration_s=300.0, seed=71).traces()
    keyed = orders_for_grid([BufferBasedABR(), FuguABR()], videos, traces)
    return [order for _, order in keyed]


@pytest.fixture(scope="module")
def golden(chaos_orders):
    """Fault-free reference results every chaos run must converge to."""
    return BatchRunner(backend="serial").run_orders(chaos_orders)


def assert_results_identical(left, right):
    """Bitwise identity of two StreamResults (the salvage contract)."""
    assert np.array_equal(left.rendered.levels, right.rendered.levels)
    assert np.array_equal(left.rendered.stalls_s, right.rendered.stalls_s)
    assert left.rendered.startup_delay_s == right.rendered.startup_delay_s
    assert left.total_bytes == right.total_bytes
    assert left.session_duration_s == right.session_duration_s
    assert left.abr_name == right.abr_name
    assert left.trace_name == right.trace_name


def assert_all_identical(golden, results):
    assert len(results) == len(golden)
    for left, right in zip(golden, results):
        assert_results_identical(left, right)


# =============================================================== unit layer


class TestFaultLog:
    def test_counters_and_any_faults(self):
        log = FaultLog()
        assert not log.any_faults()
        log.retries += 2
        log.wall_clock_lost_s += 0.5
        log.record("lost shard 3")
        assert log.any_faults()
        counters = log.counters()
        assert counters["retries"] == 2
        assert counters["wall_clock_lost_s"] == 0.5
        assert set(COUNTER_FIELDS) < set(counters)
        assert log.as_dict()["events"] == ["lost shard 3"]

    def test_snapshot_since_isolates_a_run(self):
        log = FaultLog()
        log.retries = 5
        before = log.snapshot()
        log.retries += 1
        log.timeouts += 2
        delta = log.since(before)
        assert delta["retries"] == 1
        assert delta["timeouts"] == 2
        assert delta["pool_rebuilds"] == 0

    def test_merge_counter_dicts(self):
        merged = merge_counter_dicts(
            {"retries": 1, "wall_clock_lost_s": 0.25},
            {"retries": 2, "quarantined": 1},
        )
        assert merged["retries"] == 3
        assert merged["quarantined"] == 1
        assert merged["wall_clock_lost_s"] == 0.25


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(ValueError, match="corrupt mode"):
            FaultSpec(kind="corrupt_artifact", mode="shred")
        with pytest.raises(ValueError, match="at_pickle"):
            FaultSpec(kind="broken_pickle", at_pickle=0)

    def test_random_is_deterministic(self):
        assert FaultPlan.random(seed=42) == FaultPlan.random(seed=42)
        assert FaultPlan.random(seed=42) != FaultPlan.random(seed=43)

    def test_round_trips_through_dict(self):
        plan = FaultPlan.random(seed=7)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        # and through JSON, so chaos fixtures can live in files
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_every_seed_yields_a_valid_plan(self, seed):
        plan = FaultPlan.random(seed=seed)
        assert 1 <= len(plan.faults) <= 3
        assert all(
            spec.kind in SHARD_FAULT_KINDS + STORE_FAULT_KINDS
            for spec in plan.faults
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_injector_refuses_nested_activation(self):
        with inject(FaultPlan(faults=())):
            with pytest.raises(RuntimeError, match="already active"):
                with inject(FaultPlan(faults=())):
                    pass
        assert active_injector() is None


class TestIntegrityPrimitives:
    def test_checksum_round_trip_and_tamper_detection(self):
        payload = attach_checksum({"a": 1, "b": [1, 2, 3]})
        assert verify_checksum(payload)
        tampered = dict(payload)
        tampered["a"] = 2
        assert not verify_checksum(tampered)
        # pre-integrity payloads (no checksum) stay readable
        assert verify_checksum({"a": 1})

    def test_checksum_is_key_order_independent(self):
        assert payload_checksum({"a": 1, "b": 2}) == payload_checksum(
            {"b": 2, "a": 1}
        )

    def test_atomic_write_leaves_no_scratch(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_quarantine_moves_file_and_records_reason(self, tmp_path):
        victim = tmp_path / "data.json"
        victim.write_text("{torn")
        log = FaultLog()
        with pytest.warns(IntegrityWarning, match="quarantined"):
            moved = quarantine_file(
                victim, tmp_path / "quarantine", "checksum mismatch",
                fault_log=log,
            )
        assert moved is not None and moved.exists()
        assert not victim.exists()
        assert log.quarantined == 1
        records = quarantine_records(tmp_path / "quarantine")
        assert len(records) == 1
        assert records[0]["reason"] == "checksum mismatch"
        assert records[0]["original_path"] == str(victim)


# ======================================================== store integration


class TestCellCacheIntegrity:
    def test_round_trip(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.put("grid/a/b", 1.25)
        assert cache.get("grid/a/b") == 1.25
        assert cache.hits == 1

    def test_corrupt_cell_is_quarantined_not_silent(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.put("grid/a/b", 1.25)
        path = cache._path("grid/a/b")
        path.write_text("{torn")
        with pytest.warns(IntegrityWarning, match="quarantined"):
            assert cache.get("grid/a/b") is None
        assert cache.misses == 1
        assert cache.fault_log.quarantined == 1
        assert not path.exists()
        assert len(quarantine_records(cache.quarantine_root)) == 1
        # the slot is reusable: a recompute repairs the cache
        cache.put("grid/a/b", 2.5)
        assert cache.get("grid/a/b") == 2.5

    def test_bitflipped_cell_fails_checksum(self, tmp_path):
        """A flip that keeps the JSON parseable is caught by the checksum."""
        cache = CellCache(tmp_path)
        cache.put("grid/a/b", 1000)
        path = cache._path("grid/a/b")
        payload = json.loads(path.read_text())
        payload["value"] = 1001  # parses fine; only the checksum knows
        path.write_text(json.dumps(payload, sort_keys=True))
        with pytest.warns(IntegrityWarning, match="checksum mismatch"):
            assert cache.get("grid/a/b") is None


def _store_and_result(tmp_path, seed=13):
    store = ArtifactStore(tmp_path)
    spec = ExperimentSpec(experiment="chaos-store", scale="tiny", seed=seed)
    result = ResultSet(
        experiment="chaos-store", spec=spec,
        data={"value": 42.5, "curve": [1, 2, 3]},
    )
    return store, spec, result


class TestArtifactStoreIntegrity:
    def test_save_is_checksummed_and_atomic(self, tmp_path):
        store, spec, result = _store_and_result(tmp_path)
        directory = store.save(result)
        payload = json.loads((directory / "result.json").read_text())
        assert verify_checksum(payload)
        assert payload["checksum"].startswith("sha256:")
        assert list(directory.glob("*.tmp")) == []
        loaded = store.load(spec)
        assert loaded is not None and loaded.data == result.data

    def test_corrupt_artifact_is_quarantined_and_reported_absent(
        self, tmp_path
    ):
        store, spec, result = _store_and_result(tmp_path)
        directory = store.save(result)
        (directory / "result.json").write_text("{torn")
        with pytest.warns(IntegrityWarning, match="quarantined"):
            assert store.load(spec) is None  # caller recomputes
        assert store.fault_log.quarantined == 1
        assert len(quarantine_records(store.quarantine_root)) == 1
        # save/load again: the quarantine repaired the slot
        store.save(result)
        assert store.load(spec) is not None

    def test_entries_and_find_skip_corrupt_artifacts(self, tmp_path):
        store, _, result = _store_and_result(tmp_path)
        store.save(result)
        other_spec = ExperimentSpec(
            experiment="chaos-store", scale="tiny", seed=14
        )
        other = ResultSet(
            experiment="chaos-store", spec=other_spec, data={"value": 1}
        )
        bad_dir = store.save(other)
        (bad_dir / "result.json").write_text("{torn")
        with pytest.warns(IntegrityWarning):
            entries = store.entries()
        assert len(entries) == 1  # the healthy one; no crash, no silence
        # entries() already quarantined the corrupt file, so find() now
        # sees only the healthy artifact — and picks it, not a crash.
        found = store.find("chaos-store")
        assert found is not None and found.data["value"] == 42.5

    def test_injected_bitflip_is_caught_on_load(self, tmp_path):
        """corrupt_artifact via the injector: write 'succeeds', load must
        quarantine — the write path is the hook, the read path the net."""
        store, spec, result = _store_and_result(tmp_path)
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt_artifact", path_glob="result.json",
                      mode="bitflip"),
        ))
        with inject(plan) as injector:
            store.save(result)
        assert injector.fired == ["corrupt_artifact[bitflip]@result.json"]
        with pytest.warns(IntegrityWarning):
            assert store.load(spec) is None
        assert store.fault_log.quarantined == 1


class TestCheckpointStoreIntegrity:
    @pytest.fixture()
    def policy(self):
        from repro.abr.pensieve import PensieveABR, PensieveConfig

        return PensieveABR(config=PensieveConfig(seed=5))

    def test_save_load_round_trip_is_verified(self, tmp_path, policy):
        from repro.training.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        store.save(policy, "agent")
        metadata = store.metadata("agent")
        assert metadata["state_checksum"].startswith("sha256:")
        assert verify_checksum(metadata)
        reloaded = store.load(store.latest())
        assert reloaded.trained_episodes == policy.trained_episodes

    def test_corrupt_state_quarantines_and_fails_loudly(
        self, tmp_path, policy
    ):
        from repro.training.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        store.save(policy, "agent")
        state_path = tmp_path / "agent" / "state.npz"
        data = bytearray(state_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        state_path.write_bytes(bytes(data))
        with pytest.warns(IntegrityWarning):
            with pytest.raises(ValueError, match="state verification"):
                store.load("agent")
        assert store.fault_log.quarantined == 1
        assert len(quarantine_records(store.quarantine_root)) == 1

    def test_corrupt_metadata_quarantines_and_fails_loudly(
        self, tmp_path, policy
    ):
        from repro.training.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        store.save(policy, "agent")
        (tmp_path / "agent" / "metadata.json").write_text("{torn")
        with pytest.warns(IntegrityWarning):
            with pytest.raises(ValueError, match="unreadable"):
                store.load("agent")

    def test_injected_truncation_on_save_is_terminal_on_load(
        self, tmp_path, policy
    ):
        from repro.training.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt_artifact", path_glob="state.npz",
                      mode="truncate"),
        ))
        with inject(plan) as injector:
            store.save(policy, "agent")
        assert injector.fired
        with pytest.warns(IntegrityWarning):
            with pytest.raises(ValueError):
                store.load("agent")


# ======================================================= runner integration


class TestLockstepRecovery:
    def test_raise_in_shard_recovers_bit_identically(
        self, chaos_orders, golden
    ):
        runner = BatchRunner(backend="lockstep")
        plan = FaultPlan(faults=(FaultSpec(kind="raise_in_shard"),))
        with inject(plan) as injector:
            with pytest.warns(ShardRecoveryWarning, match="serial"):
                results = runner.run_orders(chaos_orders)
        assert injector.exhausted()
        assert_all_identical(golden, results)
        assert runner.fault_log.serial_fallbacks >= 1
        assert runner.fault_log.worker_crashes >= 1

    def test_kill_worker_degrades_to_crash_in_process(
        self, chaos_orders, golden
    ):
        """In-process, kill_worker must not SIGKILL the test run: it
        degrades to a simulated crash and takes the same recovery path."""
        runner = BatchRunner(backend="lockstep")
        plan = FaultPlan(faults=(FaultSpec(kind="kill_worker"),))
        with inject(plan):
            with pytest.warns(ShardRecoveryWarning):
                results = runner.run_orders(chaos_orders)
        assert_all_identical(golden, results)


class TestRunnerLifecycle:
    def test_invalid_recovery_knobs_are_rejected(self):
        with pytest.raises(ValueError, match="max_shard_retries"):
            BatchRunner(max_shard_retries=-1)
        with pytest.raises(ValueError, match="shard_timeout_s"):
            BatchRunner(shard_timeout_s=0.0)


@pytest.mark.slow
@pytest.mark.chaos
class TestProcessPoolChaos:
    """Real pools, real worker deaths.  The acceptance gate: every salvage
    must be bit-identical to the fault-free golden master."""

    def _process_runner(self, **knobs):
        return BatchRunner(backend="process", max_workers=2,
                           retry_backoff_s=0.01, **knobs)

    def test_sigkilled_worker_mid_grid_salvages_bit_identically(
        self, chaos_orders, golden
    ):
        plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0),))
        with mock.patch("repro.engine.runner.os.cpu_count", return_value=4):
            runner = self._process_runner()
            with inject(plan) as injector:
                with pytest.warns(ShardRecoveryWarning, match="worker died"):
                    results = runner.run_orders(chaos_orders)
        assert injector.fired == ["kill_worker@shard0"]
        assert_all_identical(golden, results)
        assert runner.fault_log.pool_rebuilds >= 1
        assert runner.fault_log.retries >= 1
        assert runner.fault_log.worker_crashes >= 1
        assert runner.fault_log.wall_clock_lost_s > 0.0

    def test_rebuilt_pool_keeps_the_dispatch_size(self, chaos_orders, golden):
        """A pool is rebuilt at the size its dispatch chose (one worker per
        order here), not one worker per core."""
        orders = chaos_orders[:4]
        plan = FaultPlan(faults=(FaultSpec(kind="kill_worker", shard=0),))
        with mock.patch("repro.engine.runner.os.cpu_count", return_value=8), \
                mock.patch("repro.engine.runner.ProcessPoolExecutor",
                           wraps=ProcessPoolExecutor) as spawn:
            runner = BatchRunner(backend="process", retry_backoff_s=0.01)
            with inject(plan):
                with pytest.warns(ShardRecoveryWarning, match="worker died"):
                    results = runner.run_orders(orders)
        assert_all_identical(golden[:4], results)
        assert runner.fault_log.pool_rebuilds == 1
        assert [call.kwargs["max_workers"] for call in spawn.call_args_list] \
            == [4, 4]

    def test_timed_out_shard_is_retried_bit_identically(
        self, chaos_orders, golden
    ):
        plan = FaultPlan(faults=(
            FaultSpec(kind="delay_shard", shard=0, delay_s=5.0),
        ))
        with mock.patch("repro.engine.runner.os.cpu_count", return_value=4):
            runner = self._process_runner(shard_timeout_s=1.0)
            with inject(plan):
                with pytest.warns(ShardRecoveryWarning, match="exceeded"):
                    results = runner.run_orders(chaos_orders)
        assert_all_identical(golden, results)
        assert runner.fault_log.timeouts >= 1
        assert runner.fault_log.retries >= 1

    def test_unpicklable_dispatch_falls_back_in_process(
        self, chaos_orders, golden
    ):
        plan = FaultPlan(faults=(FaultSpec(kind="broken_pickle"),))
        with mock.patch("repro.engine.runner.os.cpu_count", return_value=4):
            runner = self._process_runner()
            with inject(plan):
                with pytest.warns(ShardRecoveryWarning, match="pickle"):
                    results = runner.run_orders(chaos_orders)
        assert_all_identical(golden, results)
        assert runner.fault_log.pickle_failures >= 1

    def test_repeated_crashes_exhaust_retries_into_serial_fallback(
        self, chaos_orders, golden
    ):
        """Every shard crash-looping forces the in-process fallback: the
        run still completes, bit-identically, and says how."""
        crashes = FaultSpec(kind="raise_in_shard", times=100)
        plan = FaultPlan(faults=(crashes,))
        with mock.patch("repro.engine.runner.os.cpu_count", return_value=4):
            runner = self._process_runner(max_shard_retries=1)
            with inject(plan):
                with pytest.warns(ShardRecoveryWarning):
                    results = runner.run_orders(chaos_orders)
        assert_all_identical(golden, results)
        assert runner.fault_log.serial_fallbacks >= 1
        assert runner.fault_log.retries >= 1


# ========================================================== property layer


class TestChaosProperties:
    """Hypothesis over random fault plans: recover bit-identically or fail
    loudly — never silently wrong (the ISSUE's acceptance criterion)."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_random_shard_faults_converge_to_golden(
        self, chaos_orders, golden, seed
    ):
        plan = FaultPlan.random(
            seed=seed, kinds=SHARD_FAULT_KINDS, num_shards=4,
            max_delay_s=0.02,
        )
        runner = BatchRunner(backend="lockstep")
        with warnings.catch_warnings():
            # Recovery warnings are expected here; the suite-wide
            # promotion to error (pytest.ini) is for *unexpected* ones.
            warnings.simplefilter("ignore", ShardRecoveryWarning)
            with inject(plan) as injector:
                results = runner.run_orders(chaos_orders)
        assert_all_identical(golden, results)
        if any("raise_in_shard" in note or "kill_worker" in note
               for note in injector.fired):
            assert runner.fault_log.any_faults()

    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_store_faults_never_serve_wrong_data(self, tmp_path, seed):
        store, spec, result = _store_and_result(
            tmp_path / f"s{seed}", seed=13
        )
        plan = FaultPlan.random(seed=seed, kinds=("corrupt_artifact",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrityWarning)
            with inject(plan):
                store.save(result)
            loaded = store.load(spec)
        if loaded is None:
            # loud path: the corruption was caught and quarantined
            assert store.fault_log.quarantined >= 1
        else:
            # recovered path: the data is exactly right, not almost right
            assert loaded.data == result.data
