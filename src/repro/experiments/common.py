"""Shared experiment context: videos, traces, oracle, profiles, ABR factories.

Experiments run at two scales:

* ``quick`` — a subset of videos/traces with reduced rating counts, sized so
  the whole benchmark suite finishes in minutes on a laptop;
* ``full``  — the paper's full grid (16 videos × 10 traces, 30+ ratings),
  for overnight runs.

The context caches sensitivity profiles and trained agents so that multiple
figures reuse the same (expensive) artefacts, exactly as the paper's
evaluation reuses one profiling pass per video.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.pensieve import PensieveABR
from repro.core.profiler import SenseiProfiler
from repro.core.qoe_model import SenseiQoEModel
from repro.core.scheduler import SchedulerConfig
from repro.core.sensei_abr import SenseiFuguABR, SenseiPensieveABR
from repro.core.weights import SensitivityProfile
from repro.engine.runner import BatchRunner, WorkOrder
from repro.network.bank import TraceBank
from repro.network.trace import ThroughputTrace
from repro.player.session import StreamResult
from repro.qoe.ground_truth import GroundTruthOracle
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo
from repro.video.library import VideoLibrary


#: Provenance of a policy trained by the no-checkpoint fallback.  Grid cell
#: keys embed it, so change it whenever the fallback's recipe or learner
#: changes.
FALLBACK_PROVENANCE = "pipeline-recipe-v1"

#: One streaming cell: ``(abr, encoded, trace, use_weights)``, where
#: ``use_weights`` is a bool or an explicit per-chunk weight array.
Cell = Tuple[
    ABRAlgorithm, EncodedVideo, ThroughputTrace, Union[bool, np.ndarray]
]


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run is.

    Attributes
    ----------
    num_videos: how many of the 16 catalogue videos to use.
    num_traces: how many evaluation traces to use.
    step1_ratings / step2_ratings: rating multiplicities for profiling.
    trace_duration_s: length of generated traces.
    """

    name: str
    num_videos: int
    num_traces: int
    step1_ratings: int = 10
    step2_ratings: int = 5
    trace_duration_s: float = 900.0

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Laptop/benchmark scale."""
        return cls(
            name="quick",
            num_videos=4,
            num_traces=4,
            step1_ratings=8,
            step2_ratings=4,
            trace_duration_s=900.0,
        )

    @classmethod
    def full(cls) -> "ExperimentScale":
        """The paper's grid (16 videos × 10 traces)."""
        return cls(
            name="full",
            num_videos=16,
            num_traces=10,
            step1_ratings=10,
            step2_ratings=5,
            trace_duration_s=1500.0,
        )

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """Smoke-test scale: seconds, not minutes (CI and quick demos)."""
        return cls(
            name="tiny",
            num_videos=2,
            num_traces=3,
            step1_ratings=4,
            step2_ratings=2,
            trace_duration_s=400.0,
        )


def resolve_checkpoint_store(
    checkpoint_root: Optional[Union[str, Path]] = None,
) -> Optional["CheckpointStore"]:
    """Resolve the checkpoint store experiments load policies from.

    Resolution order: the explicit ``checkpoint_root`` argument, the
    ``REPRO_CHECKPOINTS`` environment variable, then a ``checkpoints/``
    directory under the working directory.  Returns ``None`` when the
    resolved root does not exist (a store is never created implicitly).
    """
    root = checkpoint_root
    if root is None:
        env_root = os.environ.get("REPRO_CHECKPOINTS")
        root = Path(env_root) if env_root else Path("checkpoints")
    if not Path(root).is_dir():
        return None
    from repro.training.checkpoint import CheckpointStore

    return CheckpointStore(root)


def _checkpoint_digest(metadata: dict) -> str:
    """Digest of one checkpoint's metadata (config, trained episodes, save
    index, metrics).  Content-based — unlike a bare save index it cannot
    collide when a store is deleted and rebuilt from scratch — while two
    bit-identical training runs still share it (and their cached cells)."""
    canonical = json.dumps(metadata, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def checkpoint_fingerprint(
    checkpoint_root: Optional[Union[str, Path]] = None,
) -> str:
    """Content fingerprint of the checkpoints a run would load: every
    checkpoint name with its metadata digest.  Part of the cache identity
    of checkpoint-using specs — retraining changes the digests, so stale
    artifacts are recomputed instead of silently served."""
    store = resolve_checkpoint_store(checkpoint_root)
    if store is None:
        return "no-store"
    parts = [
        f"{name}@{_checkpoint_digest(store.metadata(name))}"
        for name in store.names()
    ]
    return ";".join(parts) if parts else "empty-store"


class ExperimentContext:
    """Caches the artefacts every experiment needs."""

    def __init__(
        self,
        scale: Optional[ExperimentScale] = None,
        seed: int = 7,
        oracle: Optional[GroundTruthOracle] = None,
        runner: Optional[BatchRunner] = None,
        checkpoint_root: Optional[Union[str, Path]] = None,
    ) -> None:
        self.scale = scale if scale is not None else ExperimentScale.quick()
        self.seed = int(seed)
        self.runner = runner if runner is not None else BatchRunner()
        self.library = VideoLibrary(seed=seed)
        self.oracle = oracle if oracle is not None else GroundTruthOracle()
        self.trace_bank = TraceBank(
            num_traces=self.scale.num_traces,
            duration_s=self.scale.trace_duration_s,
            seed=seed + 1,
        )
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        #: Optional :class:`~repro.experiments.results.CellCache` the
        #: registry attaches so grid sweeps resume from finished cells.
        self.cell_cache = None
        #: Where each RL policy came from: ``checkpoint:<name>`` /
        #: ``installed`` / :data:`FALLBACK_PROVENANCE` (provenance for
        #: ResultSets).
        self.trained_agent_sources: Dict[str, str] = {}
        self._profiles: Dict[str, SensitivityProfile] = {}
        self._profiler: Optional[SenseiProfiler] = None
        self._trained_pensieve: Optional[PensieveABR] = None
        self._trained_sensei_pensieve: Optional[SenseiPensieveABR] = None

    # ------------------------------------------------------------- inventory

    def video_ids(self) -> List[str]:
        """The video ids used at this scale (a prefix of the catalogue that
        always spans all four genres)."""
        preferred = [
            "soccer1", "fps1", "animal", "lava",          # one per genre
            "basket1", "tank", "space", "girl",
            "soccer2", "fps2", "mountain", "bigbuckbunny",
            "basket2", "discus", "wrestling", "motor",
        ]
        return preferred[: self.scale.num_videos]

    def videos(self) -> List[EncodedVideo]:
        """Encoded videos used at this scale."""
        return [self.library.encoded(video_id) for video_id in self.video_ids()]

    def traces(self) -> List[ThroughputTrace]:
        """Evaluation traces, ordered by increasing mean throughput."""
        return self.trace_bank.traces()

    # --------------------------------------------------------------- profiling

    def profiler(self) -> SenseiProfiler:
        """The (cached) profiler used for every video."""
        if self._profiler is None:
            self._profiler = SenseiProfiler(
                oracle=self.oracle,
                scheduler_config=SchedulerConfig(
                    step1_ratings=self.scale.step1_ratings,
                    step2_ratings=self.scale.step2_ratings,
                ),
                campaign_seed=self.seed + 11,
            )
        return self._profiler

    def profile(self, video_id: str) -> SensitivityProfile:
        """Sensitivity profile for a video, profiled on first use and cached."""
        if video_id not in self._profiles:
            encoded = self.library.encoded(video_id)
            result = self.profiler().profile_video(encoded)
            self._profiles[video_id] = result.profile
        return self._profiles[video_id]

    def weights(self, video_id: str) -> np.ndarray:
        """Per-chunk weights of a video."""
        return self.profile(video_id).weights

    def weights_by_video(self) -> Dict[str, np.ndarray]:
        """Weights for every video at this scale."""
        return {video_id: self.weights(video_id) for video_id in self.video_ids()}

    def sensei_qoe_model(self) -> SenseiQoEModel:
        """A SENSEI QoE model loaded with this context's profiles."""
        model = SenseiQoEModel(base_model=KSQIModel())
        for video_id in self.video_ids():
            model.add_profile(self.profile(video_id))
        return model

    # --------------------------------------------------------------- ABR zoo

    def make_bba(self) -> BufferBasedABR:
        """Fresh BBA instance."""
        return BufferBasedABR()

    def make_fugu(self) -> FuguABR:
        """Fresh Fugu instance."""
        return FuguABR()

    def make_sensei_fugu(self) -> SenseiFuguABR:
        """Fresh SENSEI-Fugu instance."""
        return SenseiFuguABR()

    def training_curriculum(self, config=None) -> "ScenarioCurriculum":
        """A scenario curriculum over this context's videos, traces and
        (profiled) weights — the episode source for the training subsystem.

        ``config`` is an optional
        :class:`~repro.training.curriculum.CurriculumConfig`.
        """
        from repro.training.curriculum import ScenarioCurriculum

        return ScenarioCurriculum(
            videos=self.videos(),
            bank_traces=self.traces(),
            weights_by_video=self.weights_by_video(),
            config=config,
        )

    def install_trained_agents(
        self,
        pensieve: Optional[PensieveABR] = None,
        sensei_pensieve: Optional[SenseiPensieveABR] = None,
    ) -> None:
        """Adopt externally trained policies (e.g. loaded checkpoints).

        Installed agents are what :meth:`trained_pensieve` /
        :meth:`trained_sensei_pensieve` return, so every figure that takes
        ``include_pensieve=True`` evaluates the installed policies instead
        of training fallback ones.
        """
        if pensieve is not None:
            require(
                isinstance(pensieve, PensieveABR)
                and not isinstance(pensieve, SenseiPensieveABR),
                "pensieve must be a (non-SENSEI) PensieveABR",
            )
            self._trained_pensieve = pensieve
            self.trained_agent_sources.setdefault("pensieve", "installed")
        if sensei_pensieve is not None:
            require(
                isinstance(sensei_pensieve, SenseiPensieveABR),
                "sensei_pensieve must be a SenseiPensieveABR",
            )
            self._trained_sensei_pensieve = sensei_pensieve
            self.trained_agent_sources.setdefault(
                "sensei-pensieve", "installed"
            )

    def load_trained_agents(
        self,
        store: "CheckpointStore",
        pensieve: Optional[str] = None,
        sensei_pensieve: Optional[str] = None,
    ) -> None:
        """Load checkpoints by name from a
        :class:`~repro.training.checkpoint.CheckpointStore` and install them
        into this context's ABR grids."""
        self.install_trained_agents(
            pensieve=store.load(pensieve) if pensieve is not None else None,
            sensei_pensieve=(
                store.load(sensei_pensieve)
                if sensei_pensieve is not None
                else None
            ),
        )

    def checkpoint_store(self) -> Optional["CheckpointStore"]:
        """The versioned checkpoint store this context loads policies from
        (see :func:`resolve_checkpoint_store`; ``None`` when the resolved
        root does not exist — a store is never created implicitly)."""
        return resolve_checkpoint_store(self.checkpoint_root)

    def _find_checkpoint(
        self, base_name: str, want_sensei: bool
    ) -> Optional[str]:
        """The checkpoint name :meth:`_checkpoint_policy` would load, or
        ``None`` — resolved from metadata alone, without loading weights.

        Prefers ``<name>-best`` over ``<name>-final`` over ``<name>``,
        matching the names the training subsystem writes.
        """
        store = self.checkpoint_store()
        if store is None:
            return None
        wanted_kind = "sensei-pensieve" if want_sensei else "pensieve"
        names = set(store.names())
        for candidate in (f"{base_name}-best", f"{base_name}-final", base_name):
            if candidate not in names:
                continue
            if str(store.metadata(candidate)["kind"]) == wanted_kind:
                return candidate
        return None

    def trained_policy_provenance(self, base_name: str) -> str:
        """Where :meth:`trained_pensieve` / :meth:`trained_sensei_pensieve`
        would source this policy from — without training or loading it.

        ``installed`` / ``checkpoint:<name>@<metadata digest>`` /
        :data:`FALLBACK_PROVENANCE`.  Grid cell keys embed this, so cells
        computed with one checkpoint generation (or fallback recipe) never
        masquerade as another's.
        """
        if base_name in self.trained_agent_sources:
            return self.trained_agent_sources[base_name]
        want_sensei = base_name == "sensei-pensieve"
        candidate = self._find_checkpoint(base_name, want_sensei)
        if candidate is None:
            return FALLBACK_PROVENANCE
        store = self.checkpoint_store()
        digest = _checkpoint_digest(store.metadata(candidate))
        return f"checkpoint:{candidate}@{digest}"

    def _resolve_policy(self, family: str, want_sensei: bool) -> PensieveABR:
        """The best available checkpoint of one policy family; without one,
        the policy ``python -m repro train`` would save as
        ``<family>-final`` at this context's scale and seed, trained here
        through :func:`~repro.training.pipeline.recipe_trainer` (bit for
        bit, on either backend)."""
        candidate = self._find_checkpoint(family, want_sensei)
        if candidate is None:
            from repro.training.pipeline import recipe_trainer

            trainer = recipe_trainer(self, family)
            trainer.train()
            self.trained_agent_sources[family] = FALLBACK_PROVENANCE
            return trainer.abr
        store = self.checkpoint_store()
        abr = store.load(candidate)
        digest = _checkpoint_digest(store.metadata(candidate))
        self.trained_agent_sources[family] = f"checkpoint:{candidate}@{digest}"
        return abr

    def trained_pensieve(self) -> PensieveABR:
        """Pensieve agent for this context's grids.

        Loads the newest versioned checkpoint (``pensieve-best`` →
        ``pensieve-final``) from :meth:`checkpoint_store` by default; only
        when no checkpoint exists does it train one
        (:meth:`_resolve_policy`).
        """
        if self._trained_pensieve is None:
            self._trained_pensieve = self._resolve_policy(
                "pensieve", want_sensei=False
            )
        return self._trained_pensieve

    def trained_sensei_pensieve(self) -> SenseiPensieveABR:
        """SENSEI-Pensieve agent for this context's grids (checkpoint-first,
        like :meth:`trained_pensieve`; the fallback puts the weights in
        state and reward)."""
        if self._trained_sensei_pensieve is None:
            self._trained_sensei_pensieve = self._resolve_policy(
                "sensei-pensieve", want_sensei=True
            )
        return self._trained_sensei_pensieve

    # ------------------------------------------------------------ simulation

    def stream(self, cells: Sequence[Cell]) -> List[StreamResult]:
        """Stream every ``(abr, encoded, trace, use_weights)`` cell as one
        batch on :attr:`runner`; results align with ``cells``.

        ``use_weights`` is ``False`` (uniform weights), ``True`` (the
        video's profiled weights, :meth:`weights`) or an explicit weight
        array.
        """
        orders = []
        for abr, encoded, trace, use_weights in cells:
            weights = use_weights
            if isinstance(use_weights, bool):
                weights = (
                    self.weights(encoded.source.video_id) if use_weights
                    else None
                )
            orders.append(WorkOrder(
                abr=abr, encoded=encoded, trace=trace, chunk_weights=weights,
            ))
        return self.runner.run_orders(orders)

    def stream_qoe(self, cells: Sequence[Cell]) -> np.ndarray:
        """True QoE of every cell (see :meth:`stream`), scored by the
        ground-truth oracle — the paper's "real user ratings" — in one
        :meth:`~repro.qoe.ground_truth.GroundTruthOracle.true_qoe_grouped`
        call."""
        return self.oracle.true_qoe_grouped(
            [result.rendered for result in self.stream(cells)]
        )

    def gain_over(self, qoe: float, baseline_qoe: float) -> float:
        """Relative QoE gain ``(Q1 - Q2) / Q2`` used throughout §7."""
        require(baseline_qoe != 0, "baseline QoE must be non-zero")
        return (qoe - baseline_qoe) / baseline_qoe
