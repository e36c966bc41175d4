"""Self-test of the benchmark: declaration, result schema, verdicts, tracing,
output checks, and a smoke-length run that must leave the work tree as it
found it."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bench import cli
from bench.layers import TracedPass, accounting_error
from bench.stats import judge, percentile, quartiles
from bench.tracer import Target, Tracer, self_times
from bench.workloads import WORKLOADS, BatchWorkload, GridFull, ProfileFull

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cli.REPO_ROOT,
        capture_output=True, text=True, timeout=timeout,
    )


# ------------------------------------------------------------ declaration


def test_declaration_is_well_formed():
    doc = cli.load_declaration()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)


# ---------------------------------------------------------------- schema


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_measure_reports_every_per_layer_metric():
    completed = _bench("measure", "--workload", "service_r1000", "--seed", "3",
                       "--seconds", "1", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = _last_json(completed.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = cli.load_declaration()["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["service.decisions"]["value"] > 0


def test_smoke_run_prints_metrics_and_leaves_the_tree_clean():
    git = shutil.which("git")
    status = [git, "status", "--porcelain", "--untracked-files=all"]
    tracked = git is not None and subprocess.run(
        [git, "rev-parse", "--is-inside-work-tree"], cwd=cli.REPO_ROOT,
        capture_output=True, text=True,
    ).returncode == 0
    before = subprocess.run(status, cwd=cli.REPO_ROOT, capture_output=True,
                            text=True).stdout if tracked else None

    out = cli.DEFAULT_OUT / "selftest-run.json"
    completed = _bench("run", "--workloads", "service_r1000", "--seed", "3",
                       "--seconds", "1", "--out", str(out))
    assert completed.returncode == 0, completed.stderr
    report = json.loads(out.read_text())
    result = report["workloads"]["service_r1000"]
    declared = cli.load_declaration()["end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["n"] >= 1
        assert entry["value"] > 0
        assert metric["name"] in completed.stdout
    assert report["environment"]["nproc"] >= 1

    if tracked:
        after = subprocess.run(status, cwd=cli.REPO_ROOT, capture_output=True,
                               text=True).stdout
        assert after == before


def test_measure_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(cli.DECLARATION, tmp_path / "BENCHMARK.json")
    shutil.copytree(cli.REPO_ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "grid_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# ---------------------------------------------------------------- checks


def _nudge(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def test_grid_check_rejects_a_one_ulp_perturbation():
    grid = GridFull()
    scores = {"SENSEI": {("v", "t"): 0.75}, "BBA": {("v", "t"): 0.5}}
    grid.reference = ({"mean_qoe": {"SENSEI": 0.75}}, scores)
    assert grid.check(({"mean_qoe": {"SENSEI": 0.75}},
                       {k: dict(v) for k, v in scores.items()}))
    perturbed = {k: dict(v) for k, v in scores.items()}
    perturbed["BBA"][("v", "t")] = _nudge(0.5)
    assert not grid.check(({"mean_qoe": {"SENSEI": 0.75}}, perturbed))


def test_profile_check_rejects_perturbed_weights():
    profile = ProfileFull()
    weights = np.linspace(0.5, 1.5, 8)
    profile.reference = {"lava": (weights.tobytes(), 1.25)}
    perturbed = weights.copy()
    perturbed[3] = _nudge(perturbed[3])
    assert profile.check({"lava": (weights.tobytes(), 1.25)})
    assert not profile.check({"lava": (perturbed.tobytes(), 1.25)})
    assert not profile.check({"lava": (weights.tobytes(), _nudge(1.25))})


class _Constant(BatchWorkload):
    name = "constant"
    min_ops = 2

    def __init__(self, reference: float) -> None:
        self.reference_value = reference

    def prepare(self, seed: int) -> None:
        self.reference = self.reference_value

    def op(self) -> float:
        return 1.0

    def check(self, output: float) -> bool:
        return output == self.reference

    def units_per_op(self) -> float:
        return 1.0


def test_a_perturbed_reference_fails_the_run_loudly(monkeypatch, capsys):
    outcome = _Constant(reference=_nudge(1.0)).execute(0, 0.0, trace=False)
    assert outcome.attempted == 2 and outcome.failed == 2
    assert "output check failed" in capsys.readouterr().err

    monkeypatch.setitem(WORKLOADS, "profile_full",
                        lambda: _Constant(reference=_nudge(1.0)))
    args = SimpleNamespace(workload="profile_full", seed=0, seconds=0.0,
                           trace=0, spans=None)
    assert cli.measure(args) == 1
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is False and result["failed"] == 2


def test_shed_decisions_fail_without_making_the_run_incorrect():
    from bench.workloads import Outcome, ProbeResult, ServiceOpen

    outcome = Outcome()
    probe = ProbeResult(arrivals=10, shed=2, errors=1)
    ServiceOpen("service_r1000", 1000)._account(
        SimpleNamespace(service=None), probe, outcome
    )
    assert (outcome.attempted, outcome.failed, outcome.incorrect) == (10, 3, 1)


# ------------------------------------------------------------------ stats


def test_percentiles_and_quartiles():
    assert percentile([], 90) == 0.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)


def test_compare_verdicts_on_synthetic_runs():
    rng = np.random.default_rng(0)
    parent = list(100 + rng.normal(0, 1, 10))
    assert judge(parent, [v * 0.9 for v in parent], "lower", 0.1).verdict == "better"
    assert judge(parent, [v * 1.2 for v in parent], "lower", 0.1).verdict == "worse"
    assert judge(parent, list(reversed(parent)), "lower", 0.1).verdict == "unchanged"
    assert judge(parent, [v * 1.2 for v in parent], "higher", 0.1).verdict == "better"
    assert judge(parent[:3], [v * 0.9 for v in parent[:3]], "lower",
                 0.1).verdict == "unresolved"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert judge(noisy, list(reversed(noisy)), "lower", 0.1).verdict == "unresolved"
    # One pair in ten lost still counts as a gain; two do not.
    change = [v * 0.9 for v in parent]
    change[0] = parent[0] * 1.01
    assert judge(parent, change, "lower", 0.1).verdict == "better"
    change[1] = parent[1] * 1.01
    assert judge(parent, change, "lower", 0.1).verdict == "unchanged"


def _run_file(path, values, failed=0):
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"], "n": 1}
               for m in cli.load_declaration()["end_to_end"]}
    path.write_text(json.dumps({"workloads": {"grid_full": {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": metrics}}}))
    return str(path)


def test_compare_exits_nonzero_on_regression_or_new_failures(tmp_path, capsys):
    parent = [_run_file(tmp_path / f"p{i}.json", {"op_p50_ms": 100 + i})
              for i in range(3)]
    same = [_run_file(tmp_path / f"s{i}.json", {"op_p50_ms": 101 - i})
            for i in range(3)]
    slow = [_run_file(tmp_path / f"w{i}.json", {"op_p50_ms": 150 + i})
            for i in range(3)]
    failing = [_run_file(tmp_path / f"f{i}.json", {"op_p50_ms": 100 + i},
                         failed=1) for i in range(3)]
    compare = lambda change: cli.compare(  # noqa: E731
        SimpleNamespace(parent=parent, change=change))
    assert compare(same) == 0
    assert "worse" not in capsys.readouterr().out
    assert compare(slow) == 1
    assert compare(failing) == 1


# ----------------------------------------------------------------- tracer


def _leaf(x):
    return x + 1


def _middle(x):
    return _leaf(x) + _leaf(x)


async def _waiting(x):
    return _leaf(x)


def test_tracer_nests_spans_accounts_time_and_restores():
    import asyncio

    module = sys.modules[__name__]
    original = module._leaf
    tracer = Tracer()
    targets = (Target(__name__, "_leaf", "leaf"),
               Target(__name__, "_middle", "middle"),
               Target(__name__, "_waiting", "waiting"))
    with tracer.instrument(targets):
        with tracer.span("bench.op", op=0):
            assert module._middle(1) == 4
            assert asyncio.run(module._waiting(1)) == 2
    assert module._leaf is original
    names = [span.name for span in tracer.spans]
    assert names.count("leaf") == 3 and names[-1] == "bench.op"
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name == "leaf":
            assert by_id[span.parent].name in ("middle", "waiting")
        assert span.op == 0
    traced = TracedPass(label="single", spans=tracer.spans, ops=1)
    assert accounting_error(traced) < 1e-9
    root = by_id[[s.id for s in tracer.spans if s.name == "bench.op"][0]]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)


def test_tracer_records_nothing_in_other_processes():
    tracer = Tracer()
    tracer.pid = -1  # as seen from a forked worker
    with tracer.instrument((Target(__name__, "_leaf", "leaf"),)):
        assert sys.modules[__name__]._leaf(1) == 2
    assert tracer.spans == []
