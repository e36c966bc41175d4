"""Command line of the benchmark (run from the repository root).

``python -m bench measure --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is one
    JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
    (the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
    per-layer metrics with ``--trace 1``).
``python -m bench run --seed 7 --out bench/out/run.json``
    Every workload, one at a time, each in its own subprocess; prints each
    end-to-end metric with its unit and sample count, writes the run file
    and exits non-zero if any output check failed.
``python -m bench trace --seed 7 --out bench/out/trace.jsonl``
    Every workload once with span wrappers; writes the span timeline and
    prints each layer's self time and the tracing overhead.
``python -m bench compare --parent P.json... --change C.json...``
    Gain / regression verdicts from two sets of run files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DECLARATION = REPO_ROOT / "BENCHMARK.json"
DEFAULT_OUT = REPO_ROOT / "bench" / "out"


def load_declaration() -> dict:
    return json.loads(DECLARATION.read_text())


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak resident set."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------- measure


def _environment() -> Dict[str, object]:
    import numpy
    from repro.engine.report import git_revision
    from repro.engine.runner import BatchRunner

    return {
        "nproc": os.cpu_count(),
        "auto_backend": BatchRunner.auto().backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(REPO_ROOT),
    }


def _select(
    produced: Dict[str, Tuple[float, int]], declared: Sequence[dict]
) -> Tuple[Dict[str, dict], Dict[str, int]]:
    metrics: Dict[str, dict] = {}
    counts: Dict[str, int] = {}
    for entry in declared:
        name = entry["name"]
        if name not in produced:
            raise KeyError(f"BENCHMARK.json declares {name!r}, "
                           "which the benchmark does not measure")
        value, count = produced[name]
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
        counts[name] = count
    return metrics, counts


def _write_spans(path: Path, workload: str, passes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for traced in passes:
            origin = min((s.start for s in traced.spans), default=0.0)
            for span in traced.spans:
                handle.write(json.dumps({
                    "workload": workload, "pass": traced.label,
                    "id": span.id, "name": span.name,
                    "start": span.start - origin, "end": span.end - origin,
                    "parent": span.parent, "op": span.op,
                }) + "\n")


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _import_seconds() -> float:
    """Time to import the program (and the benchmark) in a fresh
    interpreter: the part of set-up a process pays once."""
    code = ("import time; started = time.perf_counter(); "
            "import bench.workloads; print(time.perf_counter() - started)")
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=_child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(completed.stdout)


def measure(args: argparse.Namespace) -> int:
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"bench: {source / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from bench.layers import accounting_error, layer_metrics
    from bench.stats import percentile
    from bench.tracer import layer_table, format_table
    from bench.workloads import SETUP_REPEATS, WORKLOADS

    declaration = load_declaration()
    declared = {entry["name"] for entry in declaration["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in declared:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    outcome = WORKLOADS[args.workload]().execute(
        args.seed, float(args.seconds), bool(args.trace)
    )
    if args.trace:
        produced = {
            name: (value, outcome.passes[0].ops)
            for name, value in layer_metrics(
                outcome.passes, outcome.service
            ).items()
        }
        metrics, counts = _select(produced, declaration["per_layer"])
        for traced in outcome.passes:
            print(format_table(
                f"{args.workload} [{traced.label}] self time per operation "
                f"({traced.ops} traced, overhead {traced.overhead():.3f}x, "
                f"accounting error {accounting_error(traced):.2%})",
                layer_table(traced.spans, traced.ops),
            ), file=sys.stderr)
        if args.spans:
            _write_spans(Path(args.spans), args.workload, outcome.passes)
    else:
        # One set-up = a fresh interpreter's imports + one in-process
        # set-up of the workload; the median of SETUP_REPEATS is reported.
        imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
        setups = [a + b for a, b in zip(imports, outcome.setup_samples)]
        windows = outcome.op_windows
        samples = sum(len(window) for window in windows)
        produced = {
            "setup_s": (statistics.median(setups), len(setups)),
            "op_p50_ms": (
                statistics.median(
                    [percentile(window, 50) for window in windows]
                ),
                samples,
            ),
            "work_per_s": (outcome.work_per_s, samples),
            "peak_rss_mb": (peak_rss_mb(), 1),
        }
        metrics, counts = _select(produced, declaration["end_to_end"])
    correct = outcome.incorrect == 0
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "counts": counts, "environment": _environment(),
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ------------------------------------------------------------- run / trace


def _child(
    workload: str, seed: int, seconds: float, trace: int,
    spans: Optional[Path] = None,
) -> Tuple[Optional[dict], Optional[dict]]:
    """Run ``measure`` in a subprocess; returns (result, detail)."""
    command = [
        sys.executable, "-m", "bench", "measure", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=_child_env(), stdout=subprocess.PIPE,
        text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    result = detail = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail


def _workload_names(args: argparse.Namespace, declaration: dict) -> List[str]:
    names = [entry["name"] for entry in declaration["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            raise SystemExit(f"bench: unknown workloads {unknown}")
        names = [name for name in names if name in wanted]
    return names


def _run_children(args: argparse.Namespace, trace: int) -> Tuple[dict, bool]:
    declaration = load_declaration()
    seconds = args.seconds or declaration["run_seconds"]
    report: Dict[str, object] = {
        "schema": "bench-run/1", "seed": args.seed, "seconds": seconds,
        "trace": trace, "environment": None, "workloads": {},
    }
    healthy = True
    for name in _workload_names(args, declaration):
        spans = DEFAULT_OUT / f"spans-{name}.jsonl" if trace else None
        result, detail = _child(name, args.seed, seconds, trace, spans)
        if result is None or detail is None:
            print(f"bench: workload {name} produced no result",
                  file=sys.stderr)
            healthy = False
            continue
        healthy &= bool(result["correct"])
        report["environment"] = report["environment"] or detail["environment"]
        report["workloads"][name] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: dict(entry, n=detail["counts"][metric])
                for metric, entry in result["metrics"].items()
            },
        }
    return report, healthy


def _print_report(report: dict) -> None:
    print(f"{'workload':<15} {'metric':<34} {'value':>14} {'unit':<8} {'n':>6}")
    for name, result in report["workloads"].items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<15} {metric:<34} {entry['value']:>14.4f} "
                  f"{entry['unit']:<8} {entry['n']:>6}")
        print(f"{name:<15} {'checks':<34} "
              f"{'ok' if result['correct'] else 'FAILED':>14} "
              f"{result['failed']} failed of {result['attempted']}")


def run(args: argparse.Namespace) -> int:
    report, healthy = _run_children(args, trace=0)
    _print_report(report)
    out = Path(args.out) if args.out else DEFAULT_OUT / "run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if healthy and report["workloads"] else 1


def trace(args: argparse.Namespace) -> int:
    report, healthy = _run_children(args, trace=1)
    _print_report(report)
    out = Path(args.out) if args.out else DEFAULT_OUT / "trace.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        for name in report["workloads"]:
            spans = DEFAULT_OUT / f"spans-{name}.jsonl"
            if spans.exists():
                handle.write(spans.read_text())
                spans.unlink()
    return 0 if healthy and report["workloads"] else 1


# ----------------------------------------------------------------- compare


def compare(args: argparse.Namespace) -> int:
    from bench.stats import failure_rate, judge

    declaration = load_declaration()
    parents = [json.loads(Path(p).read_text()) for p in args.parent]
    changes = [json.loads(Path(p).read_text()) for p in args.change]
    regressed = False
    row = "{:<15} {:<12} {:>32} {:>32} {:>8} {:>6}  {}"
    print(row.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "change", "wins", "verdict"))

    def cell(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    names = [entry["name"] for entry in declaration["workloads"]]
    for workload in names:
        if not all(workload in run["workloads"] for run in parents + changes):
            continue
        for entry in declaration["end_to_end"]:
            metric = entry["name"]
            old = [r["workloads"][workload]["metrics"][metric]["value"]
                   for r in parents]
            new = [r["workloads"][workload]["metrics"][metric]["value"]
                   for r in changes]
            verdict = judge(old, new, entry["better"], entry["bound"])
            regressed |= verdict.verdict == "worse"
            p, c = verdict.parent, verdict.change
            moved = 100 * (c[1] - p[1]) / p[1] if p[1] else 0.0
            print(row.format(
                workload, metric, cell(p), cell(c), f"{moved:+.1f}%",
                f"{verdict.wins}/{verdict.pairs}",
                verdict.verdict
                + (f" ({verdict.reason})" if verdict.reason else ""),
            ))
        rates = [
            failure_rate(
                [r["workloads"][workload]["attempted"] for r in runs],
                [r["workloads"][workload]["failed"] for r in runs],
            )
            for runs in (parents, changes)
        ]
        rose = rates[1] > rates[0]
        regressed |= rose
        print(row.format(workload, "failed_frac", f"{rates[0]:.4g}",
                         f"{rates[1]:.4g}", "", "",
                         "worse" if rose else "unchanged"))
    return 1 if regressed else 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("measure", help="measure one workload")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--spans", help="write the span timeline (JSONL) here")

    for name, text in (("run", "measure every workload"),
                       ("trace", "trace every workload once")):
        command = commands.add_parser(name, help=text)
        command.add_argument("--seed", type=int, default=7)
        command.add_argument("--seconds", type=float,
                             help="run length (default: BENCHMARK.json)")
        command.add_argument("--workloads",
                             help="comma-separated subset of workloads")
        command.add_argument("--out")

    diff = commands.add_parser("compare", help="compare two sets of runs")
    diff.add_argument("--parent", nargs="+", required=True)
    diff.add_argument("--change", nargs="+", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"measure": measure, "run": run, "trace": trace,
                "compare": compare}
    return commands[args.command](args)
