"""Tests for the bench reporter and shared provenance helpers
(`repro/engine/report.py`)."""

from __future__ import annotations

import json

from repro.engine.report import (
    BenchReport,
    environment_fingerprint,
    git_revision,
    phases_from_snapshot,
    read_bench_report,
    update_bench_section,
    utc_now_iso,
    write_bench_report,
)


def _snapshot_with_spans(dispatch=1.0, kernel=0.6, step=0.25):
    return {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": {
            "engine.dispatch": {"count": 1, "total_s": dispatch,
                                "max_s": dispatch},
            "planner.kernel": {"count": 10, "total_s": kernel, "max_s": 0.1},
            "player.step": {"count": 20, "total_s": step, "max_s": 0.02},
        },
    }


class TestBenchReport:
    def test_to_dict_round_trips_fields(self):
        report = BenchReport(
            sessions_per_sec=120.5,
            decisions_per_sec={"Fugu": 1000.0},
            grid={"speedup": 4.1, "cells": 48},
        )
        payload = report.to_dict()
        assert payload["sessions_per_sec"] == 120.5
        assert payload["decisions_per_sec"] == {"Fugu": 1000.0}
        assert payload["grid"]["speedup"] == 4.1

    def test_write_and_read(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        written = write_bench_report(
            BenchReport(sessions_per_sec=10.0), path=path
        )
        assert written == path
        payload = read_bench_report(path)
        assert payload["sessions_per_sec"] == 10.0
        # The environment fingerprint is stamped automatically.
        assert payload["meta"]["python"]
        assert payload["meta"]["platform"]
        assert payload["meta"]["cpu_count"] >= 1

    def test_write_preserves_explicit_meta(self, tmp_path):
        report = BenchReport(meta={"python": "overridden"})
        payload = read_bench_report(
            write_bench_report(report, path=tmp_path / "b.json")
        )
        assert payload["meta"]["python"] == "overridden"

    def test_read_missing_returns_none(self, tmp_path):
        assert read_bench_report(tmp_path / "absent.json") is None

    def test_partial_run_keeps_sections_it_did_not_measure(self, tmp_path):
        path = tmp_path / "b.json"
        full = BenchReport(
            sessions_per_sec=12.5,
            decisions_per_sec={"Fugu": 900.0},
            grid={"cells": 48, "speedup_vs_serial_engine": 2.4},
            rl_grid={"speedup_vs_serial_engine": 4.7},
            plan_cache={"hits": 10, "misses": 3, "currsize": 3},
            kernel={"legacy": {"candidates_per_sec": 1.0}},
        )
        write_bench_report(full, path=path)
        grid_only = BenchReport(
            grid={"cells": 48, "speedup_vs_serial_engine": 1.6}
        )
        payload = read_bench_report(write_bench_report(grid_only, path=path))
        assert payload["grid"]["speedup_vs_serial_engine"] == 1.6
        for key in ("sessions_per_sec", "decisions_per_sec", "rl_grid",
                    "plan_cache", "kernel"):
            assert payload[key] == full.to_dict()[key], key

    def test_section_update_shares_the_merge(self, tmp_path):
        path = tmp_path / "b.json"
        write_bench_report(BenchReport(sessions_per_sec=3.0), path=path)
        update_bench_section("kernel", {"ratio": 1.7}, path)
        payload = read_bench_report(path)
        assert payload["kernel"] == {"ratio": 1.7}
        assert payload["sessions_per_sec"] == 3.0
        assert payload["meta"]["python"]

    def test_written_json_is_sorted_and_terminated(self, tmp_path):
        path = write_bench_report(BenchReport(), path=tmp_path / "b.json")
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(
            json.dumps(json.loads(text), sort_keys=True)
        )


class TestPhasesFromSnapshot:
    def test_splits_dispatch_into_disjoint_leaves(self):
        phases = phases_from_snapshot(_snapshot_with_spans())
        assert phases["dispatch_s"] == 1.0
        assert phases["planner_kernel_s"] == 0.6
        assert phases["stepping_s"] == 0.25
        assert phases["other_s"] == 0.15
        assert phases["planner_kernel_share"] == 0.6
        assert phases["stepping_share"] == 0.25
        assert phases["other_share"] == 0.15

    def test_empty_snapshot_gives_no_phases(self):
        assert phases_from_snapshot({"spans": {}}) == {}
        assert phases_from_snapshot({}) == {}

    def test_parallel_leaf_overshoot_clamps_other_at_zero(self):
        # Process-backend worker spans accumulate in parallel wall clocks,
        # so the leaf sum can exceed the parent dispatch; the remainder is
        # clamped, never negative.
        phases = phases_from_snapshot(
            _snapshot_with_spans(dispatch=1.0, kernel=0.8, step=0.4)
        )
        assert phases["other_s"] == 0.0
        assert phases["other_share"] == 0.0

    def test_missing_leaves_count_as_zero(self):
        snapshot = _snapshot_with_spans()
        del snapshot["spans"]["planner.kernel"]
        phases = phases_from_snapshot(snapshot)
        assert phases["planner_kernel_s"] == 0.0
        assert phases["other_s"] == 0.75

    def test_phases_survive_bench_report_round_trip(self, tmp_path):
        report = BenchReport(phases=phases_from_snapshot(_snapshot_with_spans()))
        payload = read_bench_report(
            write_bench_report(report, path=tmp_path / "b.json")
        )
        assert payload["phases"]["planner_kernel_share"] == 0.6

    def test_started_at_stamped_by_default(self, tmp_path):
        payload = read_bench_report(
            write_bench_report(BenchReport(), path=tmp_path / "b.json")
        )
        assert payload["meta"]["started_at"]

    def test_explicit_started_at_preserved(self, tmp_path):
        report = BenchReport(meta={"started_at": "2026-01-01T00:00:00+00:00"})
        payload = read_bench_report(
            write_bench_report(report, path=tmp_path / "b.json")
        )
        assert payload["meta"]["started_at"] == "2026-01-01T00:00:00+00:00"

    def test_utc_now_iso_shape(self):
        stamp = utc_now_iso()
        assert stamp.endswith("+00:00")
        assert "T" in stamp


class TestProvenanceHelpers:
    def test_environment_fingerprint_keys(self):
        fingerprint = environment_fingerprint()
        assert set(fingerprint) == {"python", "platform", "cpu_count"}
        assert isinstance(fingerprint["python"], str)

    def test_git_revision_in_repo(self):
        revision = git_revision()
        # The test suite runs from a work tree, so a 40-hex hash comes back.
        assert revision is not None
        assert len(revision) == 40
        assert all(c in "0123456789abcdef" for c in revision)

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(cwd=tmp_path) is None
