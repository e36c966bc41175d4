"""The end-to-end training pipeline behind ``python -m repro train``.

One call — :func:`train_policies` — reproduces what the old
``examples/train_pensieve.py`` script wired by hand: build an
:class:`~repro.experiments.common.ExperimentContext`, profile its videos,
train a base Pensieve and a SENSEI-Pensieve on scenario curricula, write
versioned checkpoints, then reload the best checkpoints and evaluate the
full ABR grid.

Every seed derives from the single pipeline ``seed`` (fixed offsets per
consumer), so two runs with the same seed/scale/backend produce the same
checkpoints — the same discipline
:class:`~repro.experiments.spec.ExperimentSpec` enforces for the figures.

On a single-core host :meth:`BatchRunner.auto` resolves to the lockstep
backend, which now covers rollout collection too: the collector routes
each round through the batched RL driver
(:func:`repro.engine.lockstep.run_rl_rollouts_lockstep`), stacking every
episode's actor forward into one matmul per decision round while per-spec
exploration seeds keep the experience — and therefore the checkpoints —
byte-identical to the serial and process backends (see
``BENCH_training.json``'s ``lockstep_collection`` section for the
measured speedup).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.core.sensei_abr import make_sensei_pensieve
from repro.engine.runner import BatchRunner
from repro.faults.log import merge_counter_dicts
from repro.training.checkpoint import CheckpointStore
from repro.training.curriculum import CurriculumConfig, ScenarioCurriculum
from repro.training.trainer import Trainer, TrainerConfig, evaluate_policy

#: Gentle default rates: at small scales the default rates can collapse the
#: policy before the curriculum has shown it enough regimes.  The trainer's
#: best-checkpoint selection protects against late-run degradation either
#: way.
DEFAULT_TRAINING = TrainerConfig(
    rounds=12,
    episodes_per_round=8,
    eval_every=1,
    eval_episodes=6,
    actor_lr=1e-4,
    critic_lr=5e-4,
    entropy_weight=0.05,
    entropy_decay=0.95,
)


def _train_one(name, abr, curriculum, store, runner, oracle, config, verbose):
    """Train one policy, checkpoint it, and report its trajectory."""
    untrained_qoe = evaluate_policy(
        abr, curriculum.holdout_specs(config.eval_episodes),
        runner=runner, oracle=oracle,
    )
    trainer = Trainer(
        abr, curriculum, runner=runner, store=store, checkpoint_name=name,
        oracle=oracle, config=config,
    )
    result = trainer.train()
    if verbose:
        print(f"\n{name}: untrained held-out QoE {untrained_qoe:.3f}")
        for evaluation in result.evaluations:
            print(f"  round {int(evaluation['round']) + 1:2d}: "
                  f"mean QoE {evaluation['mean_qoe']:.3f}")
        print(f"  best {result.best_eval_qoe:.3f} (round {result.best_round + 1})"
              f"{' — stopped early' if result.stopped_early else ''};"
              f" checkpoints: {', '.join(sorted(set(result.checkpoints)))}")
    return {
        "untrained_holdout_qoe": float(untrained_qoe),
        "best_eval_qoe": float(result.best_eval_qoe),
        "best_round": int(result.best_round),
        "stopped_early": bool(result.stopped_early),
        "checkpoints": sorted(set(result.checkpoints)),
        "evaluations": [
            {key: float(value) for key, value in evaluation.items()}
            for evaluation in result.evaluations
        ],
    }


def train_policies(
    scale=None,
    seed: int = 7,
    checkpoint_root: Union[str, Path] = "checkpoints",
    runner: Optional[BatchRunner] = None,
    config: Optional[TrainerConfig] = None,
    verbose: bool = True,
) -> Dict[str, object]:
    """Train Pensieve + SENSEI-Pensieve, checkpoint both, evaluate the grid.

    Returns a dict with each policy's training trajectory, the checkpoint
    names written, and the mean true QoE of every algorithm on the final
    (checkpoint-backed) ABR grid.
    """
    from repro.experiments.abr_eval import _evaluate_grid
    from repro.experiments.common import ExperimentContext, ExperimentScale

    scale = scale if scale is not None else ExperimentScale.tiny()
    if runner is None:
        runner = BatchRunner.auto()
    config = config if config is not None else DEFAULT_TRAINING
    context = ExperimentContext(
        scale=scale, seed=seed, checkpoint_root=checkpoint_root,
    )
    store = CheckpointStore(checkpoint_root)
    # Runner may be caller-owned and shared, so report this run's
    # fault-log delta, not lifetime totals.
    runner_faults_before = runner.fault_log.snapshot()
    if verbose:
        print(f"Videos: {', '.join(context.video_ids())}; "
              f"traces: {', '.join(t.name for t in context.traces())}; "
              f"backend: {runner.backend}")

    # Base Pensieve trains on unweighted rewards; SENSEI-Pensieve trains on
    # the same curriculum shape with sensitivity weights in state and reward.
    plain_curriculum = ScenarioCurriculum(
        context.videos(), context.traces(),
        config=CurriculumConfig(
            trace_duration_s=scale.trace_duration_s, seed=seed + 101,
        ),
    )
    sensei_curriculum = context.training_curriculum(
        config=CurriculumConfig(
            trace_duration_s=scale.trace_duration_s, seed=seed + 103,
        )
    )

    trajectories = {
        "pensieve": _train_one(
            "pensieve", PensieveABR(config=PensieveConfig(seed=seed + 111)),
            plain_curriculum, store, runner, context.oracle, config, verbose,
        ),
        "sensei-pensieve": _train_one(
            "sensei-pensieve", make_sensei_pensieve(seed=seed + 117),
            sensei_curriculum, store, runner, context.oracle, config, verbose,
        ),
    }

    # Round-trip: load the best checkpoints back and run the full ABR grid.
    context.load_trained_agents(
        store, pensieve="pensieve-best", sensei_pensieve="sensei-pensieve-best"
    )
    scores = _evaluate_grid(context, include_pensieve=True, runner=runner)
    grid = {
        name: float(np.mean(list(cells.values())))
        for name, cells in scores.items()
    }
    if verbose:
        print("\nABR grid with checkpointed policies (mean true QoE):")
        for name, mean_qoe in grid.items():
            print(f"  {name:16s} {mean_qoe:.3f}")
    return {
        "scale": scale.name,
        "seed": int(seed),
        "backend": runner.backend,
        "checkpoint_root": str(checkpoint_root),
        "policies": trajectories,
        "grid_mean_qoe": grid,
        "fault_log": merge_counter_dicts(
            runner.fault_log.since(runner_faults_before),
            store.fault_log.counters(),
        ),
    }
