"""``python -m repro`` — the single front door to every experiment.

Subcommands
-----------
``list``
    The experiment catalogue: every registered experiment, grouped, with
    the paper figures it reproduces and its tunable parameters.
``run``
    Execute one or more experiments by name through the spec/registry
    path, persisting :class:`~repro.experiments.results.ResultSet`
    artifacts (content-addressed by spec hash) under ``--results``.
    Re-running an identical spec is a cache hit; interrupted grids resume
    from finished cells; ``--force`` recomputes.
``report``
    Inspect stored artifacts: a table of everything in the results
    directory, or one artifact (by experiment name or spec-hash prefix)
    in detail.
``train``
    The RL training pipeline: curricula → checkpoints → checkpoint-backed
    ABR grid (see :mod:`repro.training.pipeline`).
``profile``
    Run one experiment with span tracing enabled in a fresh metrics
    registry and print the phase breakdown (planner kernel vs player
    stepping vs dispatch overhead), the counters and the gauges;
    ``--events``/``--prom`` additionally write the JSONL event log and a
    Prometheus textfile export (:mod:`repro.obs.sinks`).
``quarantine``
    List integrity-quarantine records: every file an
    :class:`~repro.experiments.results.ArtifactStore` or
    :class:`~repro.training.checkpoint.CheckpointStore` moved aside after
    a failed verification, with the recorded reason.

``run`` and ``train`` accept a ``--telemetry`` switch.  It is execution
policy, not experiment identity — it turns the tracer on *alongside* the
spec, so it never perturbs spec hashes or cached artifacts.  Every
subcommand runs the batch engine's default lockstep core.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Dict, List, Optional

from repro.experiments.registry import get_experiment, registry, run
from repro.experiments.results import ArtifactStore
from repro.experiments.spec import ExperimentSpec, scale_names
from repro.faults.integrity import QUARANTINE_DIR, quarantine_records

#: Default artifact-store location, relative to the working directory.
DEFAULT_RESULTS_ROOT = "results"


def _parse_override(text: str):
    """``key=value`` with a JSON value (bare words fall back to strings)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _experiment_params(defn) -> Dict[str, object]:
    """An experiment's tunable params and their defaults."""
    signature = inspect.signature(defn.fn)
    return {
        name: (None if p.default is inspect.Parameter.empty else p.default)
        for name, p in signature.parameters.items()
        if name != "context" and p.kind is not inspect.Parameter.VAR_KEYWORD
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, list and inspect the paper-reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="show the experiment catalogue")
    list_cmd.add_argument("--json", action="store_true",
                          help="machine-readable catalogue")

    run_cmd = sub.add_parser("run", help="run experiments through run(spec)")
    run_cmd.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                         help="registered experiment names (see `list`)")
    run_cmd.add_argument("--scale", default="quick",
                         help=f"scale preset ({', '.join(scale_names())})")
    run_cmd.add_argument("--seed", type=int, default=7,
                         help="the single seed every artefact derives from")
    run_cmd.add_argument("--results", default=DEFAULT_RESULTS_ROOT,
                         help="artifact-store root (content-addressed)")
    run_cmd.add_argument("--no-save", action="store_true",
                         help="run purely in memory: no cache, no artifacts")
    run_cmd.add_argument("--force", action="store_true",
                         help="recompute even when a cached artifact exists")
    run_cmd.add_argument("--checkpoints", default=None, metavar="DIR",
                         help="CheckpointStore root for trained policies")
    pensieve = run_cmd.add_mutually_exclusive_group()
    pensieve.add_argument("--include-pensieve", dest="include_pensieve",
                          action="store_true", default=None,
                          help="include the RL policies in grid figures")
    pensieve.add_argument("--exclude-pensieve", dest="include_pensieve",
                          action="store_false",
                          help="exclude the RL policies from grid figures")
    run_cmd.add_argument("--set", dest="overrides", action="append",
                         default=[], type=_parse_override, metavar="KEY=VALUE",
                         help="experiment parameter override (JSON values)")
    run_cmd.add_argument("--json", action="store_true",
                         help="print each result's full data as JSON")
    _add_telemetry_switch(run_cmd)

    report_cmd = sub.add_parser("report", help="inspect stored artifacts")
    report_cmd.add_argument("target", nargs="?", default=None,
                            help="experiment name or spec-hash prefix")
    report_cmd.add_argument("--results", default=DEFAULT_RESULTS_ROOT,
                            help="artifact-store root to read")
    report_cmd.add_argument("--json", action="store_true",
                            help="machine-readable output")

    train_cmd = sub.add_parser(
        "train", help="train the RL policies and checkpoint them"
    )
    train_cmd.add_argument("--scale", default="tiny",
                           help=f"scale preset ({', '.join(scale_names())})")
    train_cmd.add_argument("--seed", type=int, default=7)
    train_cmd.add_argument("--checkpoints", default="checkpoints",
                           metavar="DIR", help="CheckpointStore root")
    train_cmd.add_argument("--rounds", type=int, default=None,
                           help="training rounds (default: pipeline preset)")
    train_cmd.add_argument("--episodes-per-round", type=int, default=None)
    train_cmd.add_argument("--json", action="store_true",
                           help="print the training summary as JSON")
    _add_telemetry_switch(train_cmd)

    profile_cmd = sub.add_parser(
        "profile",
        help="run one experiment with telemetry on and print the phase "
             "breakdown",
    )
    profile_cmd.add_argument("experiment", metavar="EXPERIMENT",
                             help="registered experiment name (see `list`)")
    profile_cmd.add_argument("--scale", default="tiny",
                             help=f"scale preset ({', '.join(scale_names())})")
    profile_cmd.add_argument("--seed", type=int, default=7)
    profile_cmd.add_argument("--checkpoints", default=None, metavar="DIR",
                             help="CheckpointStore root for trained policies")
    profile_cmd.add_argument("--set", dest="overrides", action="append",
                             default=[], type=_parse_override,
                             metavar="KEY=VALUE",
                             help="experiment parameter override")
    profile_cmd.add_argument("--events", default=None, metavar="PATH",
                             help="write the run's JSONL event log here")
    profile_cmd.add_argument("--prom", default=None, metavar="PATH",
                             help="write a Prometheus textfile export here")
    profile_cmd.add_argument("--json", action="store_true",
                             help="print phases + full snapshot as JSON")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the always-on decision service (JSON-lines over TCP)",
    )
    serve_cmd.add_argument("--scale", default="tiny",
                           help=f"scale preset ({', '.join(scale_names())}) "
                                f"for the video/trace inventory")
    serve_cmd.add_argument("--seed", type=int, default=7)
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7788)
    serve_cmd.add_argument("--duration", type=float, default=None,
                           metavar="S",
                           help="shut down after S seconds (default: run "
                                "until interrupted)")
    _add_service_knobs(serve_cmd)

    loadtest_cmd = sub.add_parser(
        "loadtest",
        help="drive the decision service closed-loop and print a "
             "summary (--out also writes the JSON report)",
    )
    loadtest_cmd.add_argument("--scale", default="tiny",
                              help=f"scale preset "
                                   f"({', '.join(scale_names())})")
    loadtest_cmd.add_argument("--seed", type=int, default=7)
    loadtest_cmd.add_argument("--sessions-per-tenant", type=int, default=4,
                              metavar="N",
                              help="sessions each tenant registers")
    loadtest_cmd.add_argument("--weight-ratio", type=float, default=4.0,
                              help="gold:bronze scheduling weight ratio")
    loadtest_cmd.add_argument("--max-decisions", type=int, default=None,
                              metavar="N",
                              help="cap decisions per session (default: "
                                   "run every session to completion)")
    loadtest_cmd.add_argument("--duration", type=float, default=None,
                              metavar="S", help="stop offering load after S "
                                                "seconds")
    loadtest_cmd.add_argument("--out", default=None, metavar="PATH",
                              help="also write the JSON report to PATH "
                                   "(default: write no file)")
    loadtest_cmd.add_argument("--verify", action="store_true",
                              help="re-run finished sessions offline and "
                                   "assert online ≡ offline decisions")
    loadtest_cmd.add_argument("--json", action="store_true",
                              help="print the full report as JSON")
    _add_service_knobs(loadtest_cmd)

    quarantine_cmd = sub.add_parser(
        "quarantine", help="list files quarantined by integrity checks"
    )
    quarantine_cmd.add_argument("--results", default=DEFAULT_RESULTS_ROOT,
                                help="artifact-store root to inspect")
    quarantine_cmd.add_argument("--checkpoints", default="checkpoints",
                                metavar="DIR",
                                help="CheckpointStore root to inspect")
    quarantine_cmd.add_argument("--json", action="store_true",
                                help="machine-readable output")
    return parser


def _add_telemetry_switch(command: argparse.ArgumentParser) -> None:
    """The ``--telemetry`` switch shared by ``run`` and ``train``."""
    command.add_argument("--telemetry", action="store_true",
                         help="enable span tracing + metrics for this "
                              "invocation (adds a phase summary per run)")


def _add_service_knobs(command: argparse.ArgumentParser) -> None:
    """Decision-service tuning knobs shared by ``serve`` and ``loadtest``."""
    command.add_argument("--max-batch", type=int, default=16,
                         help="micro-batch window size trigger")
    command.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="micro-batch window time trigger (upper "
                              "bound; the window adapts below it)")
    command.add_argument("--capacity", type=int, default=None,
                         help="fair-scheduler concurrency slots "
                              "(default: max-batch)")
    command.add_argument("--shed-timeout-ms", type=float, default=50.0,
                         help="admission timeout before a request is shed "
                              "to the degraded fallback")
    command.add_argument("--no-shed", action="store_true",
                         help="never shed: wait for admission indefinitely "
                              "(required for --verify runs under overload)")


def _make_service(args):
    """A DecisionService configured from the shared service knobs."""
    from repro.service import DecisionService

    return DecisionService(
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        capacity=args.capacity,
        shed_timeout_s=None if args.no_shed else args.shed_timeout_ms / 1e3,
    )


# ----------------------------------------------------------------- commands

def _cmd_list(args) -> int:
    defs = registry()
    if args.json:
        payload = [
            {
                "name": defn.name,
                "group": defn.group,
                "figures": list(defn.figures),
                "description": defn.description,
                "supports_pensieve": defn.supports_pensieve,
                "cacheable": defn.cacheable,
                "params": _experiment_params(defn),
            }
            for defn in defs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    group = None
    for defn in defs:
        if defn.group != group:
            group = defn.group
            print(f"\n[{group}]")
        figures = f"  (fig {', '.join(defn.figures)})" if defn.figures else ""
        print(f"  {defn.name:18s} {defn.description}{figures}")
        params = _experiment_params(defn)
        if params:
            rendered = ", ".join(f"{k}={v!r}" for k, v in params.items())
            print(f"  {'':18s}   params: {rendered}")
    print(f"\n{len(defs)} experiments; run with: "
          f"python -m repro run <name> [--scale quick|full|tiny]")
    return 0


def _print_scalars(data: Dict[str, object], indent: str = "  ") -> None:
    for key, value in data.items():
        if isinstance(value, bool):
            print(f"{indent}{key} = {value}")
        elif isinstance(value, float):
            print(f"{indent}{key} = {value:.4f}")
        elif isinstance(value, (int, str)):
            print(f"{indent}{key} = {value}")


def _print_fault_summary(fault_log, indent: str = "  ") -> None:
    """One line naming the recoveries a run needed (silence = healthy)."""
    if not isinstance(fault_log, dict):
        return
    nonzero = {
        key: value
        for key, value in fault_log.items()
        if key != "events" and value
    }
    if nonzero:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(nonzero.items()))
        print(f"{indent}faults recovered: {rendered}")


def _print_phase_summary(phases, indent: str = "  ") -> None:
    """One line splitting a run's dispatch time into kernel/step/other."""
    if not isinstance(phases, dict) or "dispatch_s" not in phases:
        return
    print(f"{indent}phases: dispatch={phases['dispatch_s']:.3f}s "
          f"(kernel={phases.get('planner_kernel_s', 0):.3f}s, "
          f"stepping={phases.get('stepping_s', 0):.3f}s, "
          f"other={phases.get('other_s', 0):.3f}s)")


def _cmd_run(args) -> int:
    from repro.obs.trace import set_enabled

    store = None if args.no_save else ArtifactStore(args.results)
    for name in args.experiments:
        get_experiment(name)  # fail fast on typos before running anything
    previous_telemetry = set_enabled(True) if args.telemetry else None
    try:
        for name in args.experiments:
            spec = ExperimentSpec(
                experiment=name,
                scale=args.scale,
                seed=args.seed,
                include_pensieve=args.include_pensieve,
                checkpoint_root=args.checkpoints,
                params=dict(args.overrides),
            )
            result = run(spec, store=store, force=args.force)
            status = "cached" if result.cache_hit else "computed"
            wall = result.meta.get("wall_time_s")
            wall_text = (
                f" in {wall:.2f}s"
                if isinstance(wall, float) and not result.cache_hit
                else ""
            )
            # result.spec, not the local spec: run() normalises the spec and
            # stamps the checkpoint fingerprint, so only the result's spec
            # names the hash/path the artifact actually lives under.
            print(f"\n== {name} [{result.spec_hash}] "
                  f"scale={args.scale} seed={args.seed} — {status}{wall_text}")
            if args.json:
                print(json.dumps(result.data, indent=2, sort_keys=True))
            else:
                _print_scalars(result.data)
            _print_fault_summary(result.meta.get("fault_log"))
            _print_phase_summary(result.meta.get("phases"))
            if store is not None and get_experiment(name).cacheable:
                print(f"  artifact: {store.path_for(result.spec)}")
    finally:
        if previous_telemetry is not None:
            set_enabled(previous_telemetry)
    return 0


def _cmd_report(args) -> int:
    store = ArtifactStore(args.results)
    if args.target is None:
        entries = store.entries()
        if args.json:
            print(json.dumps(entries, indent=2))
            return 0
        if not entries:
            print(f"no artifacts under {store.root}/")
            return 0
        print(f"{'experiment':14s} {'spec hash':18s} {'scale':7s} "
              f"{'seed':>4s} {'wall s':>8s}  git")
        for entry in entries:
            wall = entry.get("wall_time_s")
            wall_text = f"{wall:8.2f}" if isinstance(wall, float) else f"{'-':>8s}"
            revision = (entry.get("git_revision") or "-")[:10]
            print(f"{str(entry['experiment']):14s} {str(entry['spec_hash']):18s} "
                  f"{str(entry['scale']):7s} {entry['seed']:4d} {wall_text}  "
                  f"{revision}")
        print(f"\n{len(entries)} artifacts under {store.root}/")
        return 0
    result = store.find(args.target)
    if result is None:
        print(f"no artifact matching {args.target!r} under {store.root}/",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
        return 0
    print(f"experiment: {result.experiment}  [{result.spec_hash}]")
    print(f"spec: {json.dumps(result.spec.to_dict(), sort_keys=True)}")
    print("meta:")
    _print_scalars(result.meta)
    phases = result.meta.get("phases")
    if isinstance(phases, dict) and phases:
        print("phases:")
        _print_scalars(phases)
    print("data:")
    _print_scalars(result.data)
    rows = result.summary_rows()
    if rows and "key" not in rows[0]:
        print(f"rows: {len(rows)} (see result.csv)")
    return 0


def _cmd_profile(args) -> int:
    from repro.engine.report import phases_from_snapshot
    from repro.obs import (
        MetricsRegistry,
        phase_table,
        run_events,
        set_enabled,
        use_registry,
        write_events_jsonl,
        write_prometheus,
    )

    defn = get_experiment(args.experiment)
    spec = ExperimentSpec(
        experiment=defn.name,
        scale=args.scale,
        seed=args.seed,
        checkpoint_root=args.checkpoints,
        params=dict(args.overrides),
    )
    # A fresh registry + store=None: the profile measures one real
    # computation, never a cache hit, and never pollutes ambient metrics.
    metrics = MetricsRegistry()
    previous = set_enabled(True)
    try:
        with use_registry(metrics):
            result = run(spec, store=None)
    finally:
        set_enabled(previous)
    snapshot = metrics.snapshot()
    phases = phases_from_snapshot(snapshot)
    meta = {
        "experiment": result.experiment,
        "spec_hash": result.spec_hash,
        "scale": args.scale,
        "seed": args.seed,
        "backend": result.meta.get("backend"),
        "started_at": result.meta.get("started_at"),
        "duration_s": result.meta.get("duration_s"),
    }
    if args.events:
        write_events_jsonl(args.events, run_events(
            snapshot,
            run_id=result.spec_hash,
            started_at=result.meta.get("started_at"),
            duration_s=result.meta.get("duration_s"),
            meta={"experiment": result.experiment},
        ))
    if args.prom:
        write_prometheus(args.prom, snapshot)
    if args.json:
        print(json.dumps(
            {**meta, "phases": phases, "snapshot": snapshot},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"== profile {result.experiment} [{result.spec_hash}] "
          f"scale={args.scale} seed={args.seed} "
          f"backend={meta['backend']} — {meta['duration_s']:.2f}s")
    print(phase_table(snapshot))
    if phases:
        print("phase split (disjoint leaves):")
        _print_scalars(phases)
    scalars = {
        **{f"counter {k}": v for k, v in snapshot["counters"].items()},
        **{f"gauge {k}": v for k, v in snapshot["gauges"].items()},
    }
    if scalars:
        print("metrics:")
        _print_scalars(scalars)
    if args.events:
        print(f"events: {args.events}")
    if args.prom:
        print(f"prometheus: {args.prom}")
    return 0


def _cmd_train(args) -> int:
    from repro.experiments.spec import resolve_scale
    from repro.training.pipeline import DEFAULT_TRAINING, train_policies

    config = DEFAULT_TRAINING
    if args.rounds is not None or args.episodes_per_round is not None:
        from dataclasses import replace

        changes = {}
        if args.rounds is not None:
            changes["rounds"] = args.rounds
        if args.episodes_per_round is not None:
            changes["episodes_per_round"] = args.episodes_per_round
        config = replace(config, **changes)
    from repro.obs import get_registry, phase_table, set_enabled
    from repro.obs.metrics import diff_snapshots

    previous_telemetry = set_enabled(True) if args.telemetry else None
    metrics_before = get_registry().snapshot() if args.telemetry else None
    try:
        summary = train_policies(
            scale=resolve_scale(args.scale),
            seed=args.seed,
            checkpoint_root=args.checkpoints,
            config=config,
            verbose=not args.json,
        )
    finally:
        if previous_telemetry is not None:
            set_enabled(previous_telemetry)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_fault_summary(summary.get("fault_log"), indent="")
        if metrics_before is not None:
            print("phases:")
            print(phase_table(
                diff_snapshots(metrics_before, get_registry().snapshot())
            ))
    return 0


def _cmd_serve(args) -> int:
    """The always-on decision service behind a JSON-lines TCP front-end.

    One JSON object per line in, one per line out.  Ops: ``register``
    (tenant, session, abr, video, trace, optional weight), ``decide``,
    ``evict``, ``health``.  The video/trace inventory is the experiment
    context's at ``--scale``, and ABR kinds are the loadtest zoo
    (:data:`repro.service.loadgen.ABR_FACTORIES`).
    """
    import asyncio
    from dataclasses import asdict

    from repro.experiments.common import ExperimentContext
    from repro.experiments.spec import resolve_scale
    from repro.service import ABR_FACTORIES
    from repro.service.loadgen import synthetic_weights

    context = ExperimentContext(scale=resolve_scale(args.scale),
                                seed=args.seed)
    videos = dict(zip(context.video_ids(), context.videos()))
    traces = {trace.name: trace for trace in context.traces()}
    service = _make_service(args)

    async def handle_op(request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if op == "health":
            return {"ok": True, "health": service.health()}
        tenant = str(request.get("tenant", ""))
        session = str(request.get("session", ""))
        if op == "register":
            kind = str(request.get("abr", "fugu"))
            if kind not in ABR_FACTORIES:
                return {"ok": False,
                        "error": f"unknown abr {kind!r}; "
                                 f"one of {sorted(ABR_FACTORIES)}"}
            video_id = str(request.get("video", next(iter(videos))))
            if video_id not in videos:
                return {"ok": False,
                        "error": f"unknown video {video_id!r}; "
                                 f"one of {sorted(videos)}"}
            trace_name = str(request.get("trace", next(iter(traces))))
            if trace_name not in traces:
                return {"ok": False,
                        "error": f"unknown trace {trace_name!r}; "
                                 f"one of {sorted(traces)}"}
            encoded = videos[video_id]
            weights = (synthetic_weights(encoded.num_chunks)
                       if kind == "sensei" else None)
            weight = request.get("weight")
            service.register(
                tenant=tenant, session_id=session,
                abr=ABR_FACTORIES[kind](), encoded=encoded,
                trace=traces[trace_name], chunk_weights=weights,
                weight=float(weight) if weight is not None else None,
            )
            return {"ok": True, "registered": [tenant, session],
                    "abr": kind, "video": video_id, "trace": trace_name}
        if op == "decide":
            response = await service.decide(tenant, session)
            return {"ok": True, **asdict(response)}
        if op == "evict":
            entry = service.evict(tenant, session)
            return {"ok": True, "evicted": [tenant, session],
                    "decisions": entry.decisions}
        return {"ok": False, "error": f"unknown op {op!r}; one of "
                                      f"register/decide/evict/health"}

    async def handle_client(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    reply = await handle_op(request)
                except Exception as error:  # noqa: BLE001 — reply, don't die
                    reply = {"ok": False,
                             "error": f"{type(error).__name__}: {error}"}
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()

    async def main_async() -> None:
        server = await asyncio.start_server(handle_client, args.host,
                                            args.port)
        print(f"decision service on {args.host}:{args.port} "
              f"(scale={args.scale}, max_batch={args.max_batch}, "
              f"window<={args.max_delay_ms}ms) — JSON-lines ops: "
              f"register/decide/evict/health")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            server.close()
            await server.wait_closed()
            await service.close()

    try:
        asyncio.run(main_async())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadtest(args) -> int:
    """Closed-loop multi-tenant load against an in-process service."""
    import asyncio

    from repro.experiments.common import ExperimentContext
    from repro.experiments.spec import resolve_scale
    from repro.service import (
        bench_payload,
        default_tenants,
        register_load,
        run_load,
        verify_online_offline,
        write_bench,
    )

    context = ExperimentContext(scale=resolve_scale(args.scale),
                                seed=args.seed)
    service = _make_service(args)
    tenants = default_tenants(
        sessions_per_tenant=args.sessions_per_tenant,
        weight_ratio=args.weight_ratio,
    )

    async def main_async():
        entries = register_load(service, context, tenants)
        report = await run_load(
            service, entries,
            max_decisions_per_session=args.max_decisions,
            duration_s=args.duration,
        )
        verdict = (
            verify_online_offline(service, entries) if args.verify else None
        )
        await service.close()
        return report, verdict

    report, verdict = asyncio.run(main_async())
    payload = bench_payload(service, report, tenants, meta={
        "scale": args.scale, "seed": args.seed,
    })
    if verdict is not None:
        payload["verify"] = verdict
    path = write_bench(args.out, payload) if args.out else None
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        latency = payload["latency"]
        batch = payload["batch"]
        throughput = payload["throughput"]
        print(f"== loadtest scale={args.scale} "
              f"tenants={[spec.name for spec in tenants]} "
              f"sessions={report['sessions']}")
        print(f"  decisions: {throughput['decisions']} "
              f"({throughput['decisions_per_sec']:.0f}/s, "
              f"{throughput['degraded']} degraded) "
              f"in {throughput['wall_s']:.2f}s")
        print(f"  latency: p50={latency['p50_ms']:.3f}ms "
              f"p99={latency['p99_ms']:.3f}ms mean={latency['mean_ms']:.3f}ms")
        print(f"  batches: {batch['flushes']} flushes, "
              f"mean size {batch['mean_size']}, "
              f"{batch['size_flushes']} by size / "
              f"{batch['timer_flushes']} by timer")
        if verdict is not None:
            status = "identical" if verdict["identical"] else "MISMATCH"
            print(f"  verify: online ≡ offline over {verdict['checked']} "
                  f"sessions — {status}")
        if path is not None:
            print(f"  report: {path}")
    if verdict is not None and not verdict["identical"]:
        return 1
    return 0


def _cmd_quarantine(args) -> int:
    from pathlib import Path

    roots = {
        "results": Path(args.results) / QUARANTINE_DIR,
        "checkpoints": Path(args.checkpoints) / QUARANTINE_DIR,
    }
    records = []
    for store, root in roots.items():
        for record in quarantine_records(root):
            records.append({"store": store, **record})
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print("no quarantined files under "
              + " or ".join(str(root) for root in roots.values()))
        return 0
    for record in records:
        print(f"[{record['store']}] {record.get('quarantined_as', '?')}")
        print(f"  was: {record.get('original_path', '?')}")
        print(f"  why: {record.get('reason', '?')}")
    print(f"\n{len(records)} quarantined file(s); each was replaced by a "
          f"recompute or a loud failure — never silently served")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "report": _cmd_report,
        "profile": _cmd_profile,
        "train": _cmd_train,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "quarantine": _cmd_quarantine,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
