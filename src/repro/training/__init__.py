"""RL training subsystem: the layer between the batch simulation
engine and the experiment suite.

The paper's learned policies (Pensieve and its SENSEI augmentation, §5.2)
"must be (re)trained like Pensieve"; this package provides that training at
engine scale:

* :mod:`repro.training.curriculum` — :class:`ScenarioCurriculum`, seeded
  episode sampling across the evaluation trace bank and synthetic stress
  regimes (handover, congestion onset, low-bandwidth cellular);
* :mod:`repro.training.collector`  — :class:`RolloutCollector`, per-round
  experience collection on :class:`~repro.engine.runner.BatchRunner` with a
  serial ≡ lockstep equivalence guarantee;
* :mod:`repro.training.trainer`    — :class:`Trainer`, the synchronous
  learning loop with entropy/LR schedules, held-out evaluation and early
  stopping;
* :mod:`repro.training.checkpoint` — :class:`CheckpointStore`, versioned
  on-disk policy snapshots that round-trip into the experiment grids.

See ``docs/TRAINING.md`` for the architecture.
"""

from __future__ import annotations

from repro.training.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointInfo,
    CheckpointStore,
)
from repro.training.collector import (
    EpisodeRollout,
    PolicySnapshot,
    RolloutCollector,
    RolloutShard,
    build_policy,
    collect_shard,
)
from repro.training.curriculum import (
    CurriculumConfig,
    EpisodeSpec,
    REGIMES,
    ScenarioCurriculum,
    congestion_onset_trace,
)
from repro.training.pipeline import DEFAULT_TRAINING, train_policies
from repro.training.trainer import (
    RoundStats,
    Trainer,
    TrainerConfig,
    TrainingResult,
    evaluate_policy,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "DEFAULT_TRAINING",
    "train_policies",
    "CheckpointInfo",
    "CheckpointStore",
    "CurriculumConfig",
    "EpisodeRollout",
    "EpisodeSpec",
    "PolicySnapshot",
    "REGIMES",
    "RolloutCollector",
    "RolloutShard",
    "RoundStats",
    "ScenarioCurriculum",
    "Trainer",
    "TrainerConfig",
    "TrainingResult",
    "build_policy",
    "collect_shard",
    "congestion_onset_trace",
    "evaluate_policy",
]
