"""The experiment registry: one discoverable catalogue, one ``run`` path.

Figure functions register themselves with the :func:`experiment` decorator
and keep working as plain module-level calls (the pre-registry entry
points are thin shims over the same functions).  Everything else — the
``python -m repro`` CLI, benchmarks, examples — goes through

::

    run(ExperimentSpec(experiment="fig12a", scale="quick", seed=7))

which builds the :class:`~repro.experiments.common.ExperimentContext` from
the spec (single seed, chosen backend, checkpoint store), consults the
:class:`~repro.experiments.results.ArtifactStore` for a cached
:class:`~repro.experiments.results.ResultSet` first, wires the finished-cell
cache into grid sweeps, and stamps provenance metadata on the way out.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.report import (
    environment_fingerprint,
    git_revision,
    phases_from_snapshot,
    utc_now_iso,
)
from repro.engine.runner import BatchRunner
from repro.experiments.common import ExperimentContext, checkpoint_fingerprint
from repro.experiments.results import ArtifactStore, ResultSet, RESULTSET_FORMAT_VERSION
from repro.experiments.spec import ExperimentSpec
from repro.faults.log import merge_counter_dicts
from repro.obs.metrics import diff_snapshots, get_registry
from repro.obs.trace import TRACE
from repro.utils.validation import require

#: Modules whose import populates the registry (figure functions register
#: at import time via the decorator).
_EXPERIMENT_MODULES = (
    "repro.experiments.sensitivity",
    "repro.experiments.qoe_models",
    "repro.experiments.abr_eval",
    "repro.experiments.showcase",
)


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment.

    Attributes
    ----------
    name: CLI-facing name (``fig12a``, ``quickstart``, …).
    fn: the implementation, called as ``fn(context, **params)``.
    group: catalogue section (``sensitivity``/``qoe``/``abr``/``demo``).
    figures: the paper figures/tables the experiment reproduces.
    description: one-line summary (defaults to the docstring's first line).
    supports_pensieve: whether ``include_pensieve`` applies.
    always_uses_checkpoints: the experiment evaluates trained policies
        unconditionally (no ``include_pensieve`` knob), so its cache
        identity must always cover the checkpoint fingerprint.
    cacheable: uncacheable experiments (interactive demos that narrate to
        stdout) always recompute and never persist artifacts.
    """

    name: str
    fn: Callable[..., Dict[str, object]]
    group: str = "misc"
    figures: Tuple[str, ...] = ()
    description: str = ""
    supports_pensieve: bool = False
    always_uses_checkpoints: bool = False
    cacheable: bool = True


_REGISTRY: Dict[str, ExperimentDef] = {}


def experiment(
    name: str,
    group: str = "misc",
    figures: Tuple[str, ...] = (),
    description: str = "",
    supports_pensieve: bool = False,
    always_uses_checkpoints: bool = False,
    cacheable: bool = True,
) -> Callable:
    """Decorator registering ``fn(context, **params)`` as an experiment.

    The function itself is returned unchanged, so the historical
    module-level call style (``abr_eval.fig12a_qoe_gain_cdf(context)``)
    keeps working as a shim over the registered implementation.
    """

    def decorate(fn: Callable) -> Callable:
        require(name not in _REGISTRY, f"duplicate experiment name {name!r}")
        doc = (inspect.getdoc(fn) or "").strip().splitlines()
        _REGISTRY[name] = ExperimentDef(
            name=name,
            fn=fn,
            group=group,
            figures=tuple(figures),
            description=description or (doc[0] if doc else ""),
            supports_pensieve=supports_pensieve,
            always_uses_checkpoints=always_uses_checkpoints,
            cacheable=cacheable,
        )
        fn.experiment_name = name
        return fn

    return decorate


def _ensure_loaded() -> None:
    import importlib

    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)


def experiment_names() -> List[str]:
    """All registered experiment names, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_experiment(name: str) -> ExperimentDef:
    """Look an experiment up by name (with a helpful error)."""
    _ensure_loaded()
    require(
        name in _REGISTRY,
        f"unknown experiment {name!r}; run `python -m repro list` "
        f"(registered: {', '.join(sorted(_REGISTRY))})",
    )
    return _REGISTRY[name]


def registry() -> List[ExperimentDef]:
    """Every registered experiment, sorted by (group, name)."""
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda d: (d.group, d.name))


# ------------------------------------------------------------------ execution

def _runner_for(spec: ExperimentSpec) -> BatchRunner:
    """The runner a spec's backend names."""
    if spec.backend == "auto":
        return BatchRunner.auto()
    return BatchRunner(backend=spec.backend)


def context_for(spec: ExperimentSpec, runner: Optional[BatchRunner] = None) -> ExperimentContext:
    """The :class:`ExperimentContext` a spec describes — every knob (scale,
    seed, backend, checkpoints) comes from the spec, nowhere else."""
    return ExperimentContext(
        scale=spec.resolve_scale(),
        seed=spec.seed,
        runner=runner if runner is not None else _runner_for(spec),
        checkpoint_root=spec.checkpoint_root,
    )


def _validate_params(defn: ExperimentDef, params: Dict[str, object]) -> None:
    signature = inspect.signature(defn.fn)
    accepts_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )
    if accepts_kwargs:
        return
    accepted = [name for name in signature.parameters if name != "context"]
    unknown = sorted(set(params) - set(accepted))
    require(
        not unknown,
        f"experiment {defn.name!r} does not accept params {unknown}; "
        f"accepted: {accepted}",
    )


def _pensieve_default(defn: ExperimentDef) -> bool:
    """The experiment function's own ``include_pensieve`` default."""
    parameter = inspect.signature(defn.fn).parameters.get("include_pensieve")
    if parameter is None or parameter.default is inspect.Parameter.empty:
        return False
    return bool(parameter.default)


def _uses_checkpoints(defn: ExperimentDef, params: Dict[str, object]) -> bool:
    """Whether this run will resolve trained policies (and therefore must
    carry the checkpoint fingerprint in its cache identity)."""
    if defn.always_uses_checkpoints:
        return True
    if not defn.supports_pensieve:
        return False
    if "include_pensieve" in params:
        return bool(params["include_pensieve"])
    return _pensieve_default(defn)


def run(
    spec: ExperimentSpec,
    store: Optional[ArtifactStore] = None,
    force: bool = False,
    runner: Optional[BatchRunner] = None,
) -> ResultSet:
    """Execute one spec and return its :class:`ResultSet`.

    With a ``store``, a previously persisted result for the same spec hash
    is returned as-is (``cache_hit=True``) unless ``force`` is set, and
    grid sweeps resume from finished cells of any earlier (even
    interrupted) run sharing the spec's context hash.  Without a store the
    run is purely in-memory.
    """
    defn = get_experiment(spec.experiment)
    params = spec.params_dict()
    if defn.supports_pensieve and spec.include_pensieve is not None:
        params["include_pensieve"] = spec.include_pensieve
    _validate_params(defn, params)

    # Normalise the spec's cache identity before any lookup.  Checkpoint-
    # using runs are addressed by what they would *load*, not just the root
    # path — retraining changes the checkpoint digests and therefore the
    # hash, so stale artifacts/cells are recomputed, never served.
    # Conversely, fields an experiment cannot observe are dropped, so e.g.
    # `table1 --checkpoints DIR --exclude-pensieve` still hits the plain
    # `table1` artifact, and `fig12a` with the default and an explicit
    # `--exclude-pensieve` share one.
    wants_checkpoints = _uses_checkpoints(defn, params)
    if defn.supports_pensieve:
        # Canonical slot for the flag is the spec field: a `--set
        # include_pensieve=...` param override and `--include-pensieve`
        # must address the same artifact, and None collapses to the
        # function's own default.
        effective_pensieve = bool(
            params.get("include_pensieve", _pensieve_default(defn))
        )
        spec_params = spec.params_dict()
        spec_params.pop("include_pensieve", None)
        if (
            spec.include_pensieve != effective_pensieve
            or len(spec_params) != len(spec.params)
        ):
            spec = spec.with_(
                include_pensieve=effective_pensieve, params=spec_params
            )
    elif spec.include_pensieve is not None:
        spec = spec.with_(include_pensieve=None)
    if wants_checkpoints:
        if spec.checkpoint_fingerprint is None:
            spec = spec.with_(
                checkpoint_fingerprint=checkpoint_fingerprint(
                    spec.checkpoint_root
                )
            )
    elif spec.checkpoint_root is not None or spec.checkpoint_fingerprint is not None:
        spec = spec.with_(checkpoint_root=None, checkpoint_fingerprint=None)

    if store is not None and defn.cacheable and not force:
        cached = store.load(spec)
        if cached is not None:
            return cached

    context = context_for(spec, runner=runner)
    if store is not None and defn.cacheable:
        # --force recomputes every cell but still repairs the cache.
        context.cell_cache = store.cell_cache(spec, read=not force)

    # Runner and store fault logs may be shared across runs (persistent
    # runner, long-lived store), so stamp this run's *delta*, not the
    # lifetime totals.
    runner_faults_before = context.runner.fault_log.snapshot()
    store_faults_before = (
        store.fault_log.snapshot() if store is not None else None
    )

    metrics_before = get_registry().snapshot() if TRACE.enabled else None

    started_at = utc_now_iso()
    started = time.perf_counter()
    data = defn.fn(context, **params)
    wall_time_s = time.perf_counter() - started
    require(
        isinstance(data, dict),
        f"experiment {defn.name!r} must return a dict, got {type(data).__name__}",
    )

    fault_deltas = [context.runner.fault_log.since(runner_faults_before)]
    if store is not None:
        fault_deltas.append(store.fault_log.since(store_faults_before))
    result = ResultSet(
        experiment=defn.name,
        spec=spec,
        data=data,
        meta={
            "format_version": RESULTSET_FORMAT_VERSION,
            "figures": list(defn.figures),
            "scale": spec.scale,
            "seed": spec.seed,
            "backend": context.runner.backend,
            "started_at": started_at,
            "duration_s": round(wall_time_s, 6),
            "wall_time_s": round(wall_time_s, 6),
            "git_revision": git_revision(),
            "environment": environment_fingerprint(),
            "trained_agent_sources": dict(context.trained_agent_sources),
            "fault_log": merge_counter_dicts(*fault_deltas),
        },
    )
    if metrics_before is not None:
        # Fold this run's fault deltas into the registry, then stamp the
        # phase breakdown of everything the span tracer saw during the run.
        context.runner.fault_log.publish_metrics()
        if store is not None:
            store.fault_log.publish_metrics()
        run_metrics = diff_snapshots(metrics_before, get_registry().snapshot())
        phases = phases_from_snapshot(run_metrics)
        if phases:
            result.meta["phases"] = phases
    if store is not None and defn.cacheable:
        store.save(result)
    return result


def run_named(name: str, **spec_fields) -> ResultSet:
    """Convenience shim: ``run_named("fig12a", scale="quick")``."""
    return run(ExperimentSpec(experiment=name, **spec_fields))
