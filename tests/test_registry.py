"""Tests for the unified experiment API: specs, registry, artifacts, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.core.sensei_abr import make_sensei_pensieve
from repro.engine.runner import BatchRunner
from repro.experiments import registry as registry_mod
from repro.experiments.cli import main as cli_main
from repro.training.checkpoint import CheckpointStore
from repro.experiments.registry import (
    context_for,
    experiment_names,
    get_experiment,
    run,
)
from repro.experiments.results import (
    ArtifactStore,
    CellCache,
    ResultSet,
    RESULTSET_FORMAT_VERSION,
)
from repro.experiments.spec import ExperimentSpec, resolve_scale, scale_names
from repro.faults.integrity import attach_checksum


#: A ``fig12b`` spec as ``result.json`` stored it while the process-pool
#: backend existed (every stored spec carried ``max_workers``).
LEGACY_FIG12B_SPEC = {
    "experiment": "fig12b", "scale": "quick", "seed": 11,
    "backend": "process", "max_workers": 2, "include_pensieve": None,
    "checkpoint_root": None, "checkpoint_fingerprint": None, "params": {},
}


def tiny_spec(experiment: str, **overrides) -> ExperimentSpec:
    fields = dict(experiment=experiment, scale="tiny", seed=13)
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExperimentSpec:
    def test_defaults_and_freezing(self):
        spec = ExperimentSpec(
            experiment="fig04",
            params={"clip_chunks": 5, "ratios": [0.5, 1.0]},
        )
        assert spec.scale == "quick"
        assert spec.seed == 7
        assert isinstance(spec.params, tuple)
        assert spec.params_dict() == {"clip_chunks": 5, "ratios": [0.5, 1.0]}
        assert hash(spec) == hash(spec)  # fully hashable after freezing

    def test_hash_is_stable_and_param_order_independent(self):
        a = ExperimentSpec(experiment="fig04", params={"a": 1, "b": 2})
        b = ExperimentSpec(experiment="fig04", params={"b": 2, "a": 1})
        assert a.spec_hash() == b.spec_hash()

    def test_hash_tracks_result_shaping_fields(self):
        base = tiny_spec("fig04")
        assert base.spec_hash() != base.with_(seed=14).spec_hash()
        assert base.spec_hash() != base.with_(scale="quick").spec_hash()
        assert (
            base.spec_hash()
            != base.with_(params={"clip_chunks": 4}).spec_hash()
        )

    def test_artifact_addresses_are_pinned(self):
        """Stored artifacts are found by these hashes; any change to the
        hash payload strands every results directory written before it."""
        tiny = ExperimentSpec("fig04", scale="tiny", seed=7)
        assert tiny.spec_hash() == "b4d1613f46d3e99b"
        assert tiny.context_hash() == "e9df87b8bd7dbc6c"
        full = ExperimentSpec("headline", scale="full", seed=7)
        assert full.spec_hash() == "5675133cc2cb12c4"
        assert full.context_hash() == "48dba9faeb9a3cc7"

    def test_legacy_process_spec_loads_as_lockstep(self):
        legacy = dict(LEGACY_FIG12B_SPEC)
        spec = ExperimentSpec.from_dict(legacy)
        assert legacy == LEGACY_FIG12B_SPEC  # the caller's dict is untouched
        assert spec.spec_hash() == "816893b2db540fa9"
        assert "backend" not in spec.to_dict()
        assert "max_workers" not in spec.to_dict()

    @pytest.mark.parametrize(
        "backend", ["serial", "lockstep", "auto", "process"]
    )
    def test_stored_backend_fields_are_dropped_on_load(self, backend):
        """Specs stored while a spec named its engine load to the pinned
        addresses, whatever engine they named."""
        stored = {
            "experiment": "fig04", "scale": "tiny", "seed": 7,
            "backend": backend, "max_workers": 2, "include_pensieve": None,
            "checkpoint_root": None, "checkpoint_fingerprint": None,
            "params": {},
        }
        spec = ExperimentSpec.from_dict(stored)
        assert spec == ExperimentSpec("fig04", scale="tiny", seed=7)
        assert spec.spec_hash() == "b4d1613f46d3e99b"
        assert spec.context_hash() == "e9df87b8bd7dbc6c"
        legacy = ExperimentSpec.from_dict(
            dict(LEGACY_FIG12B_SPEC, backend=backend)
        )
        assert legacy.spec_hash() == "816893b2db540fa9"

    def test_retired_process_backend_is_rejected_loudly(self):
        with pytest.raises(TypeError):
            ExperimentSpec("fig04", backend="process")
        with pytest.raises(ValueError, match="serial.*lockstep"):
            BatchRunner(backend="process")
        with pytest.raises(SystemExit):
            cli_main(["run", "fig04", "--workers", "2", "--no-save"])

    @pytest.mark.parametrize("command", [
        ["run", "fig04", "--no-save"],
        ["train"],
        ["profile", "fig04"],
    ])
    def test_backend_flag_is_gone(self, command):
        """Every entry point runs the lockstep core: the flag named after
        the retired spec field is rejected."""
        retired = "backend"
        with pytest.raises(SystemExit):
            cli_main(command + [f"--{retired}", "lockstep"])

    def test_context_hash_is_figure_agnostic(self):
        a = tiny_spec("fig12a")
        b = tiny_spec("headline")
        assert a.spec_hash() != b.spec_hash()
        assert a.context_hash() == b.context_hash()
        assert a.context_hash() != a.with_(seed=99).context_hash()
        # Checkpoint state lives in the RL cell keys, not the directory
        # key, so base cells are shared across checkpoint roots.
        assert a.context_hash() == (
            a.with_(checkpoint_root="somewhere").context_hash()
        )

    def test_with_is_safe_on_dict_valued_params(self):
        spec = ExperimentSpec(experiment="fig04", params={"opts": {"x": 1}})
        clone = spec.with_(seed=9)
        assert clone.seed == 9
        assert clone.params_dict() == {"opts": {"x": 1}}
        assert clone.spec_hash() == spec.with_(seed=9).spec_hash()

    def test_round_trip(self):
        spec = tiny_spec("fig04", params={"clip_chunks": 5})
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_dict_valued_params_round_trip_as_dicts(self):
        params = {"opts": {"x": 1, "nested": [2, 3]}, "plain": [1, 2]}
        spec = ExperimentSpec(experiment="fig04", params=params)
        assert spec.params_dict() == params
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.params_dict() == params

    def test_rejects_bad_backend_and_unknown_fields(self):
        with pytest.raises(TypeError):
            ExperimentSpec(experiment="fig04", backend="gpu")
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"experiment": "fig04", "nope": 1})

    def test_scale_presets(self):
        assert {"quick", "full", "tiny"} <= set(scale_names())
        assert resolve_scale("tiny").num_videos == 2
        with pytest.raises(ValueError):
            resolve_scale("galactic")


class TestRegistry:
    def test_catalogue_covers_the_figures(self):
        names = experiment_names()
        for expected in (
            "table1", "fig01", "fig03", "fig04", "fig05", "fig20",
            "fig02-15", "fig16", "fig12c", "appendix-b",
            "fig06", "fig12a", "fig12b", "fig13", "fig14",
            "fig17", "fig18a", "fig18b", "headline",
            "quickstart", "bandwidth-savings", "profile-video",
        ):
            assert expected in names

    def test_unknown_experiment_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment("fig99")

    def test_registered_fn_is_the_module_function(self):
        from repro.experiments import abr_eval

        assert get_experiment("fig12a").fn is abr_eval.fig12a_qoe_gain_cdf

    def test_unknown_param_is_rejected_before_running(self):
        with pytest.raises(ValueError, match="does not accept params"):
            run(tiny_spec("fig04", params={"bogus_knob": 1}))

    def test_run_without_store_returns_resultset(self, tmp_path):
        result = run(
            tiny_spec("table1", checkpoint_root=str(tmp_path / "ckpt"))
        )
        assert isinstance(result, ResultSet)
        assert result.experiment == "table1"
        assert result.data["num_videos"] == 16
        assert result.cache_hit is False
        assert result.meta["scale"] == "tiny"
        assert result.meta["seed"] == 13
        assert result.meta["format_version"] == RESULTSET_FORMAT_VERSION

    def test_context_for_uses_spec_fields(self, tmp_path):
        spec = tiny_spec("fig04", seed=21, checkpoint_root=str(tmp_path))
        context = context_for(spec)
        assert context.seed == 21
        assert context.scale.name == "tiny"
        assert context.checkpoint_root == tmp_path


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = tiny_spec("fig04")
        result = run(spec, store=store)
        loaded = store.load(spec)
        assert loaded is not None
        assert loaded.cache_hit is True
        assert loaded.data_json() == result.data_json()
        assert (store.path_for(spec) / "result.json").exists()

    def test_csv_written_for_row_experiments(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = tiny_spec("table1")
        run(spec, store=store)
        csv_text = (store.path_for(spec) / "result.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "name,genre,length,source"
        assert len(lines) == 1 + 16  # header + one row per catalogue video

    def test_newer_format_version_is_refused(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = tiny_spec("table1")
        run(spec, store=store)
        path = store.path_for(spec) / "result.json"
        payload = json.loads(path.read_text())
        payload["format_version"] = RESULTSET_FORMAT_VERSION + 1
        # Re-stamp the checksum: the tampered file must pass integrity
        # verification so the version gate itself is what rejects it.
        path.write_text(json.dumps(attach_checksum(payload)))
        with pytest.raises(ValueError, match="format version"):
            store.load(spec)

    def test_artifact_stored_by_the_process_backend_is_a_cache_hit(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        spec_hash = "816893b2db540fa9"
        payload = attach_checksum({
            "format_version": RESULTSET_FORMAT_VERSION,
            "experiment": "fig12b",
            "spec": dict(LEGACY_FIG12B_SPEC),
            "spec_hash": spec_hash,
            "meta": {"backend": "process", "fault_log": {
                "retries": 0, "pool_rebuilds": 0, "serial_fallbacks": 0,
                "timeouts": 0, "worker_crashes": 0, "pickle_failures": 0,
                "quarantined": 0, "wall_clock_lost_s": 0.0,
            }},
            "data": {"bandwidth_saving_at_equal_qoe": 0.0},
        })
        directory = tmp_path / "fig12b" / spec_hash
        directory.mkdir(parents=True)
        (directory / "result.json").write_text(json.dumps(payload))

        def no_compute(*args, **kwargs):
            raise AssertionError("a stored artifact must not be recomputed")

        monkeypatch.setattr(registry_mod, "context_for", no_compute)
        spec = ExperimentSpec("fig12b", scale="quick", seed=11)
        result = run(spec, store=store)
        assert result.cache_hit
        assert result.spec_hash == spec_hash
        assert result.data == {"bandwidth_saving_at_equal_qoe": 0.0}
        assert [entry["spec_hash"] for entry in store.entries()] == [spec_hash]
        assert store.find("fig12b").spec == spec

    def test_entries_and_find(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = tiny_spec("table1")
        run(spec, store=store)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["experiment"] == "table1"
        assert store.find("table1") is not None
        assert store.find(spec.spec_hash()[:8]) is not None
        assert store.find("nonesuch") is None


class TestCellCache:
    def test_round_trip_and_key_check(self, tmp_path):
        cache = CellCache(tmp_path / "cells")
        assert cache.get("grid/BBA/v/t") is None
        cache.put("grid/BBA/v/t", 0.5)
        assert cache.get("grid/BBA/v/t") == 0.5
        assert cache.hits == 1

    def test_truncated_cell_is_a_quarantined_miss_not_an_error(self, tmp_path):
        from repro.faults.log import IntegrityWarning

        cache = CellCache(tmp_path)
        cache.put("k", 1.0)
        cache._path("k").write_text('{"key": "k", "val')  # crash mid-write
        # A torn cell is a miss, but never a *silent* one: it is moved to
        # quarantine with a warning so the corruption leaves evidence.
        with pytest.warns(IntegrityWarning, match="quarantined"):
            assert cache.get("k") is None
        assert cache.fault_log.quarantined == 1
        cache.put("k", 2.0)  # and the cache repairs itself
        assert cache.get("k") == 2.0

    def test_disabled_modes(self, tmp_path):
        disabled = CellCache(None)
        disabled.put("k", 1.0)
        assert disabled.get("k") is None
        no_read = CellCache(tmp_path, read=False)
        no_read.put("k", 1.0)
        assert no_read.get("k") is None
        assert CellCache(tmp_path).get("k") == 1.0


@pytest.fixture
def count_orders(monkeypatch):
    """Counts streaming work orders actually executed by any BatchRunner."""
    counter = {"orders": 0}
    original = BatchRunner.run_orders

    def counting(self, orders):
        counter["orders"] += len(orders)
        return original(self, orders)

    monkeypatch.setattr(BatchRunner, "run_orders", counting)
    return counter


class TestCaching:
    """The acceptance criteria: identical specs are served from cache with
    zero recomputation and bit-identical data; interrupted grids resume
    from finished cells."""

    def test_identical_spec_reuses_artifact_bit_identically(
        self, tmp_path, count_orders
    ):
        store = ArtifactStore(tmp_path / "results")
        spec = tiny_spec(
            "fig12a", checkpoint_root=str(tmp_path / "no-checkpoints")
        )
        first = run(spec, store=store)
        executed_once = count_orders["orders"]
        assert executed_once > 0
        second = run(spec, store=store)
        assert second.cache_hit is True
        assert count_orders["orders"] == executed_once  # no recomputation
        assert second.data_json() == first.data_json()  # bit-identical

    def test_interrupted_grid_resumes_from_finished_cells(
        self, tmp_path, count_orders
    ):
        store = ArtifactStore(tmp_path / "results")
        spec = tiny_spec(
            "fig12a", checkpoint_root=str(tmp_path / "no-checkpoints")
        )
        first = run(spec, store=store)
        executed_once = count_orders["orders"]
        # Simulate a crash after the grid cells landed but before the
        # result artifact was written.  (first.spec, not spec: run()
        # normalises the unused checkpoint_root out of the cache identity.)
        (store.path_for(first.spec) / "result.json").unlink()
        resumed = run(spec, store=store)
        assert resumed.cache_hit is False
        assert count_orders["orders"] == executed_once  # cells, not sessions
        assert resumed.data_json() == first.data_json()

    def test_grid_figures_share_cells(self, tmp_path, count_orders):
        store = ArtifactStore(tmp_path / "results")
        kwargs = dict(checkpoint_root=str(tmp_path / "no-checkpoints"))
        run(tiny_spec("fig12a", **kwargs), store=store)
        executed_once = count_orders["orders"]
        run(tiny_spec("headline", **kwargs), store=store)
        assert count_orders["orders"] == executed_once  # same grid, reused

    def test_unobservable_fields_do_not_fragment_the_cache(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        run(tiny_spec("table1"), store=store)
        # table1 can observe neither checkpoints nor include_pensieve, so
        # specs differing only in those fields hit the same artifact.
        decorated = tiny_spec(
            "table1",
            checkpoint_root=str(tmp_path / "ck"),
            include_pensieve=False,
        )
        assert run(decorated, store=store).cache_hit is True

    def test_include_pensieve_spellings_share_one_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        run(tiny_spec("fig12a"), store=store)
        # Default, the explicit flag, and a --set param override all
        # normalise to the same cache identity.
        via_flag = tiny_spec("fig12a", include_pensieve=False)
        assert run(via_flag, store=store).cache_hit is True
        via_param = tiny_spec(
            "fig12a", params={"include_pensieve": False}
        )
        assert run(via_param, store=store).cache_hit is True

    def test_force_recomputes_but_matches(self, tmp_path, count_orders):
        store = ArtifactStore(tmp_path / "results")
        spec = tiny_spec(
            "fig12a", checkpoint_root=str(tmp_path / "no-checkpoints")
        )
        first = run(spec, store=store)
        executed_once = count_orders["orders"]
        forced = run(spec, store=store, force=True)
        assert forced.cache_hit is False
        assert count_orders["orders"] == 2 * executed_once
        assert forced.data_json() == first.data_json()


class TestCheckpointAwareCaching:
    """Cache identity must track checkpoint *contents*, and cached cells
    must keep even policy loading lazy."""

    def _seed_checkpoints(self, root):
        store = CheckpointStore(root)
        store.save(PensieveABR(config=PensieveConfig(seed=61)), "pensieve-best")
        store.save(make_sensei_pensieve(seed=62), "sensei-pensieve-best")
        return store

    def test_retraining_invalidates_cached_results(
        self, tmp_path, count_orders
    ):
        root = tmp_path / "ckpt"
        self._seed_checkpoints(root)
        art_store = ArtifactStore(tmp_path / "results")
        spec = tiny_spec(
            "fig12a", include_pensieve=True, checkpoint_root=str(root)
        )
        first = run(spec, store=art_store)
        executed_once = count_orders["orders"]
        assert first.spec.checkpoint_fingerprint is not None
        # Identical spec + unchanged checkpoints: pure cache hit.
        again = run(spec, store=art_store)
        assert again.cache_hit is True
        assert count_orders["orders"] == executed_once
        # "Retraining" (overwriting the checkpoints bumps their save
        # indices) must invalidate the artifact — but only the RL cells
        # recompute; the BBA/Fugu/SENSEI cells are still shared.
        self._seed_checkpoints(root)
        rerun = run(spec, store=art_store)
        assert rerun.cache_hit is False
        assert (
            rerun.spec.checkpoint_fingerprint
            != first.spec.checkpoint_fingerprint
        )
        rl_cells = 2 * 2 * 3  # 2 RL algorithms x (2 videos x 3 traces)
        assert count_orders["orders"] == executed_once + rl_cells

    def test_fully_cached_grid_never_loads_policies(
        self, tmp_path, count_orders, monkeypatch
    ):
        root = tmp_path / "ckpt"
        self._seed_checkpoints(root)
        art_store = ArtifactStore(tmp_path / "results")
        spec = tiny_spec(
            "fig12a", include_pensieve=True, checkpoint_root=str(root)
        )
        first = run(spec, store=art_store)
        executed_once = count_orders["orders"]
        # Crash after the cells landed but before the artifact was written.
        (art_store.path_for(first.spec) / "result.json").unlink()
        loads = {"count": 0}
        original_load = CheckpointStore.load

        def counting_load(self, name):
            loads["count"] += 1
            return original_load(self, name)

        monkeypatch.setattr(CheckpointStore, "load", counting_load)
        resumed = run(spec, store=art_store)
        assert resumed.cache_hit is False
        assert count_orders["orders"] == executed_once  # cells reused
        assert loads["count"] == 0  # lazy: no policy materialised
        assert resumed.data_json() == first.data_json()


    def test_retired_fallback_cells_are_never_served(
        self, tmp_path, monkeypatch
    ):
        """Without checkpoints the RL cell keys name the fallback's recipe,
        so a cell scored by an older fallback (keyed ``ad-hoc-training``)
        is never served for the policy the current recipe trains."""
        from repro.experiments import abr_eval

        art_store = ArtifactStore(tmp_path / "results")
        spec = tiny_spec(
            "fig12a", include_pensieve=True,
            checkpoint_root=str(tmp_path / "no-checkpoints"),
        )
        context = context_for(spec)
        cache = art_store.cell_cache(spec)
        sentinel = 1234.5
        for name in ("Pensieve", "SENSEI-Pensieve"):
            for encoded in context.videos():
                for trace in context.traces():
                    cache.put(
                        f"grid/{name}/{encoded.source.video_id}/"
                        f"{trace.name}/ad-hoc-training",
                        sentinel,
                    )
        grids = []
        evaluate_grid = abr_eval._evaluate_grid

        def capturing(*args, **kwargs):
            grids.append(evaluate_grid(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(abr_eval, "_evaluate_grid", capturing)
        run(spec, store=art_store)
        (scores,) = grids
        for name in ("Pensieve", "SENSEI-Pensieve"):
            assert len(scores[name]) == 6
            assert sentinel not in scores[name].values()


class TestDeterminism:
    """Satellite: identical specs are bit-identical on both backends."""

    def test_seed_changes_results(self, tmp_path):
        kwargs = dict(checkpoint_root=str(tmp_path / "no-checkpoints"))
        a = run(tiny_spec("fig12a", seed=13, **kwargs))
        b = run(tiny_spec("fig12a", seed=14, **kwargs))
        assert a.data_json() != b.data_json()

    def test_serial_and_lockstep_backends_are_bit_identical(self, tmp_path):
        spec = tiny_spec(
            "fig12a", checkpoint_root=str(tmp_path / "no-checkpoints")
        )
        serial = run(spec, runner=BatchRunner(backend="serial"))
        lockstep = run(spec)
        assert serial.meta["backend"] == "serial"
        assert lockstep.meta["backend"] == "lockstep"
        assert serial.data_json() == lockstep.data_json()
        assert serial.spec_hash == lockstep.spec_hash


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12a" in out
        assert "quickstart" in out

    def test_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "fig12a" for entry in payload)

    def test_run_and_cache_hit_and_report(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        argv = ["run", "table1", "--scale", "tiny", "--seed", "3",
                "--results", results]
        assert cli_main(argv) == 0
        assert "computed" in capsys.readouterr().out
        assert cli_main(argv) == 0
        assert "cached" in capsys.readouterr().out
        assert cli_main(["report", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert cli_main(["report", "table1", "--results", results]) == 0
        assert "experiment: table1" in capsys.readouterr().out

    def test_run_param_override(self, tmp_path, capsys):
        argv = ["run", "fig04", "--scale", "tiny",
                "--results", str(tmp_path / "results"),
                "--set", "clip_chunks=4"]
        assert cli_main(argv) == 0
        store = ArtifactStore(tmp_path / "results")
        stored = store.find("fig04")
        assert stored is not None
        assert stored.spec.params_dict() == {"clip_chunks": 4}
        assert len(stored.data["positions_s"]) == 4

    def test_run_no_save_writes_nothing(self, tmp_path, capsys):
        argv = ["run", "table1", "--scale", "tiny", "--no-save",
                "--results", str(tmp_path / "results")]
        assert cli_main(argv) == 0
        assert not (tmp_path / "results").exists()

    def test_report_missing_target_fails(self, tmp_path, capsys):
        code = cli_main(
            ["report", "nonesuch", "--results", str(tmp_path / "results")]
        )
        assert code == 1

    def test_unknown_experiment_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            cli_main(["run", "fig99", "--results", str(tmp_path / "r")])
