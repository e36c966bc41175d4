"""Tests for the span phase split and the shared provenance helpers
(`repro/engine/report.py`)."""

from __future__ import annotations

from repro.engine.report import (
    environment_fingerprint,
    git_revision,
    phases_from_snapshot,
    utc_now_iso,
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
        # Kernel spans recorded outside any dispatch (the decision
        # service's flushes) can push the leaf sum past the dispatch total;
        # the remainder is clamped, never negative.
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
