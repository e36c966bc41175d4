"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single, serialisable description of one
experiment run: which registered experiment, at which scale, with which
seed, checkpoints and parameter overrides.  Every entry point — the
``python -m repro`` CLI, the benchmark harness, the examples — reduces to
building a spec and handing it to :func:`repro.experiments.registry.run`.

Two hashes matter:

* :meth:`ExperimentSpec.spec_hash` — the content address of the run's
  *results*.  It covers everything that can change the output data
  (experiment, scale, seed, pensieve inclusion, checkpoint root, params)
  and deliberately excludes the execution ``backend``: the batch engine
  guarantees serial ≡ lockstep, so the same spec run on either backend
  must hit the same cached :class:`~repro.experiments.results.ResultSet`.
* :meth:`ExperimentSpec.context_hash` — the address of reusable grid
  *cells*.  Individual (algorithm, video, trace) QoE cells depend only on
  how the :class:`~repro.experiments.common.ExperimentContext` was built
  (scale, seed, checkpoint root), not on which figure asked for them, so
  figures that sweep the same grid share finished cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.common import ExperimentScale
from repro.utils.validation import require

#: Execution backends a spec may request; ``auto`` is the lockstep core (see
#: :meth:`repro.engine.runner.BatchRunner.auto`).  Results are identical on
#: every backend (lockstep is bit-identical to serial), which is why
#: ``spec_hash`` excludes the backend.
SPEC_BACKENDS = ("serial", "lockstep", "auto")

# --------------------------------------------------------------- scale presets

_SCALE_PRESETS: Dict[str, Callable[[], ExperimentScale]] = {
    "quick": ExperimentScale.quick,
    "full": ExperimentScale.full,
    "tiny": ExperimentScale.tiny,
}


def register_scale(name: str, factory: Callable[[], ExperimentScale]) -> None:
    """Register a named scale preset usable from any spec or the CLI."""
    require(bool(name), "scale name must be non-empty")
    _SCALE_PRESETS[name] = factory


def scale_names() -> List[str]:
    """All registered scale preset names."""
    return sorted(_SCALE_PRESETS)


def resolve_scale(name: str) -> ExperimentScale:
    """Materialise a scale preset by name."""
    require(
        name in _SCALE_PRESETS,
        f"unknown scale {name!r}; registered scales: {', '.join(scale_names())}",
    )
    return _SCALE_PRESETS[name]()


# ------------------------------------------------------------------- freezing

class _DictTag:
    """Unforgeable marker distinguishing frozen dicts from frozen lists.

    A singleton instance (never JSON-serialisable, so no user value can
    collide with it) tags frozen dicts as ``(_DICT, ((key, value), ...))``
    and lets :func:`_jsonable` thaw them back to dicts, not pair lists.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<frozen-dict>"


_DICT = _DictTag()


def _freeze(value):
    """Recursively convert ``value`` into a hashable, canonical form.

    Idempotent: already-frozen values (which contain the ``_DictTag``
    sentinel) pass through unchanged, so ``dataclasses.replace`` — which
    re-runs ``__post_init__`` on the frozen params — is safe.
    """
    if isinstance(value, _DictTag):
        return value
    if isinstance(value, dict):
        return (
            _DICT,
            tuple(sorted((str(k), _freeze(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"spec params must be JSON-like (str/int/float/bool/None/list/dict); "
        f"got {type(value).__name__}"
    )


def _jsonable(value):
    """Frozen form back to plain JSON types (dicts and lists restored)."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] is _DICT:
            return {key: _jsonable(v) for key, v in value[1]}
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment run.

    Attributes
    ----------
    experiment:
        Name of a registered experiment (see ``python -m repro list``).
    scale:
        Name of a registered scale preset (``quick``/``full``/``tiny``/…).
    seed:
        The *single* seed every artefact of the run derives from — the
        context, trace bank, profiling campaigns and trained agents all key
        off it, so identical specs are bit-identical end to end.
    backend:
        The :class:`~repro.engine.runner.BatchRunner` backend; excluded
        from :meth:`spec_hash` because results do not depend on it.
    include_pensieve:
        Override the experiment's default for including RL policies
        (``None`` keeps the experiment's default).
    checkpoint_root:
        Directory of the :class:`~repro.training.checkpoint.CheckpointStore`
        the context loads trained policies from (``None`` = the default
        ``checkpoints/`` next to the working directory, when present).
    checkpoint_fingerprint:
        Content fingerprint of the checkpoints a run would load (checkpoint
        names + metadata digests).  Callers leave it ``None``;
        :func:`repro.experiments.registry.run` stamps it on checkpoint-using
        specs before cache lookup, so retraining invalidates cached results
        instead of silently serving artifacts of the old policies.
    params:
        Keyword overrides passed to the experiment function; stored frozen
        (dicts/lists become tagged/plain tuples) so specs are hashable.
    """

    experiment: str
    scale: str = "quick"
    seed: int = 7
    backend: str = "serial"
    include_pensieve: Optional[bool] = None
    checkpoint_root: Optional[str] = None
    checkpoint_fingerprint: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.experiment), "spec needs an experiment name")
        require(
            self.backend in SPEC_BACKENDS,
            f"backend must be one of {SPEC_BACKENDS}, got {self.backend!r}",
        )
        params = self.params
        if isinstance(params, dict):
            params = tuple(
                sorted((str(k), _freeze(v)) for k, v in params.items())
            )
        else:
            params = tuple((str(k), _freeze(v)) for k, v in params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "seed", int(self.seed))

    # ------------------------------------------------------------- accessors

    def params_dict(self) -> Dict[str, object]:
        """Params as a plain keyword dict (frozen tuples back to lists)."""
        return {key: _jsonable(value) for key, value in self.params}

    def resolve_scale(self) -> ExperimentScale:
        """The materialised :class:`ExperimentScale` preset."""
        return resolve_scale(self.scale)

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy of this spec with fields replaced."""
        return replace(self, **changes)

    # ----------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (round-trips via
        :meth:`from_dict`)."""
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
            "include_pensieve": self.include_pensieve,
            "checkpoint_root": self.checkpoint_root,
            "checkpoint_fingerprint": self.checkpoint_fingerprint,
            "params": self.params_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Specs stored before the process-pool backend was retired carry a
        ``max_workers`` field and may name ``"process"``; they load as
        lockstep specs under the same :meth:`spec_hash`, because neither
        field ever changed results.
        """
        payload = dict(payload)
        payload.pop("max_workers", None)
        if payload.get("backend") == "process":
            payload["backend"] = "lockstep"
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        require(not unknown, f"unknown spec fields: {sorted(unknown)}")
        return cls(**payload)

    # ----------------------------------------------------------------- hashes

    def _hash_payload(self) -> Dict[str, object]:
        payload = self.to_dict()
        # The backend never changes results (serial ≡ lockstep), so it
        # must not change the content address either.
        payload.pop("backend")
        return payload

    def spec_hash(self) -> str:
        """Content address of this spec's results (16 hex chars)."""
        canonical = json.dumps(self._hash_payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def context_hash(self) -> str:
        """Content address of the context's reusable grid cells: scale and
        seed only — nothing figure-specific, so figures sweeping the same
        grid share cells.  Checkpoint state is deliberately excluded: base
        (BBA/Fugu/SENSEI) cells cannot observe it, and RL cells embed the
        loaded policy's provenance digest in their own keys."""
        canonical = json.dumps(
            {"scale": self.scale, "seed": self.seed}, sort_keys=True
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
