"""Tests for the RL training subsystem.

Covers the four training layers — scenario curricula, the rollout
collector, the checkpoint store and the trainer loop — plus the two
guarantees the subsystem is built on:

* **serial ≡ lockstep**: a training run produces bit-identical checkpoints
  on the default lockstep runner and the serial reference, because every
  episode is a pure function of (policy parameters, episode seed);
* **checkpoint fidelity**: a reloaded policy makes bit-identical decisions
  on a fixed observation stream and resumes training bit-identically
  (optimiser state included), and the checkpointed best policy beats the
  untrained one on the held-out trace set.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.core.sensei_abr import SenseiPensieveABR, make_sensei_pensieve
from repro.engine.runner import BatchRunner
from repro.ml.nn import MLP, AdamOptimizer
from repro.ml.rl import ActorCriticAgent, ActorCriticConfig, EpisodeBuffer
from repro.network.bank import TraceBank
from repro.qoe.ground_truth import GroundTruthOracle
from repro.training import (
    CheckpointStore,
    CurriculumConfig,
    EpisodeSpec,
    RolloutCollector,
    ScenarioCurriculum,
    Trainer,
    TrainerConfig,
    congestion_onset_trace,
    evaluate_policy,
)
from repro.faults.integrity import attach_checksum
from repro.training.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def tiny_videos():
    """Two short encoded videos (16 chunks each) for fast training."""
    encoder = SyntheticEncoder(seed=5)
    videos = []
    for index, genre in enumerate(("sports", "animation")):
        source = SourceVideo.synthesize(
            f"v{index}", genre, duration_s=64.0, chunk_duration_s=4.0,
            seed=3 + index,
        )
        videos.append(encoder.encode(source, DEFAULT_LADDER))
    return videos


@pytest.fixture(scope="module")
def bank_traces():
    return TraceBank(num_traces=4, duration_s=400.0, seed=11).traces()


@pytest.fixture(scope="module")
def training_oracle():
    return GroundTruthOracle()


@pytest.fixture(scope="module")
def curriculum(tiny_videos, bank_traces, training_oracle):
    weights = {
        video.source.video_id: training_oracle.normalized_sensitivity(
            video.source
        )
        for video in tiny_videos
    }
    return ScenarioCurriculum(
        tiny_videos,
        bank_traces,
        weights_by_video=weights,
        config=CurriculumConfig(trace_duration_s=400.0, seed=29),
    )


def fresh_policy() -> SenseiPensieveABR:
    return make_sensei_pensieve(seed=47)


def collect_serially(abr, specs):
    """Rollouts through the serial reference (seeded capture -> run)."""
    return RolloutCollector(runner=BatchRunner(backend="serial")).collect(
        abr, specs
    )


# ------------------------------------------------------------------ seeding


class TestSeeding:
    def test_reseed_makes_episode_independent_of_history(self, curriculum):
        """A worker's episode must be reproducible from its spec seed alone,
        regardless of what the agent's rng consumed beforehand."""
        specs = curriculum.training_specs(3, round_index=0)
        fresh = fresh_policy()
        warmed = fresh_policy()
        # Burn exploration samples on one agent only.
        state = np.zeros(warmed.config.state_dim)
        for _ in range(50):
            warmed.agent.select_action(state)

        for spec in specs:
            [a] = collect_serially(fresh, [spec])
            [b] = collect_serially(warmed, [spec])
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.rewards, b.rewards)

    def test_collect_same_spec_twice_is_identical(self, curriculum):
        spec = curriculum.training_specs(1, round_index=0)[0]
        collector = RolloutCollector()
        abr = fresh_policy()
        first = collector.collect(abr, [spec])[0]
        second = collector.collect(abr, [spec])[0]
        assert np.array_equal(first.actions, second.actions)
        assert np.array_equal(first.rewards, second.rewards)


# --------------------------------------------------------------- curriculum


class TestScenarioCurriculum:
    def test_specs_are_deterministic(self, tiny_videos, bank_traces, curriculum):
        twin = ScenarioCurriculum(
            tiny_videos,
            bank_traces,
            weights_by_video=curriculum.weights_by_video,
            config=curriculum.config,
        )
        for round_index in (0, 3):
            ours = curriculum.training_specs(9, round_index=round_index)
            theirs = twin.training_specs(9, round_index=round_index)
            assert [s.seed for s in ours] == [s.seed for s in theirs]
            assert [s.trace.name for s in ours] == [s.trace.name for s in theirs]
            assert [s.encoded.source.video_id for s in ours] == [
                s.encoded.source.video_id for s in theirs
            ]

    def test_default_mix_covers_all_regimes(self, curriculum):
        specs = curriculum.training_specs(16, round_index=0)
        regimes = {spec.regime for spec in specs}
        assert regimes == {"bank", "handover", "congestion", "cellular"}
        assert len(specs) == 16

    def test_rounds_draw_distinct_episode_seeds(self, curriculum):
        seeds_a = {s.seed for s in curriculum.training_specs(8, round_index=0)}
        seeds_b = {s.seed for s in curriculum.training_specs(8, round_index=1)}
        assert seeds_a.isdisjoint(seeds_b)

    def test_holdout_disjoint_from_training(self, curriculum):
        train_seeds = {
            spec.seed
            for round_index in range(5)
            for spec in curriculum.training_specs(8, round_index=round_index)
        }
        holdout = curriculum.holdout_specs(8)
        assert train_seeds.isdisjoint({spec.seed for spec in holdout})
        # Holdout is itself deterministic.
        again = curriculum.holdout_specs(8)
        assert [s.seed for s in holdout] == [s.seed for s in again]

    def test_single_regime_mix(self, tiny_videos, bank_traces):
        config = CurriculumConfig(
            regime_mix=(("cellular", 1.0),), trace_duration_s=300.0, seed=7
        )
        specs = ScenarioCurriculum(
            tiny_videos, bank_traces, config=config
        ).training_specs(5)
        assert all(spec.regime == "cellular" for spec in specs)
        assert all(spec.trace.name.startswith("cellular") for spec in specs)

    def test_congestion_onset_trace_collapses_tail(self, bank_traces):
        base = bank_traces[-1]
        collapsed = congestion_onset_trace(base, onset_fraction=0.5, ratio=0.25)
        timestamps = np.array(base.timestamps_s)
        onset_s = float(timestamps[-1]) * 0.5
        before = timestamps < onset_s
        assert np.allclose(
            collapsed.bandwidths_mbps[before], base.bandwidths_mbps[before]
        )
        tail_ratio = (
            collapsed.bandwidths_mbps[~before] / base.bandwidths_mbps[~before]
        )
        assert np.all(tail_ratio < 0.26)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            CurriculumConfig(regime_mix=(("warp", 1.0),))


# ---------------------------------------------------------------- collector


class TestRolloutCollector:
    def test_round_split_does_not_change_results(self, curriculum):
        """An episode is a pure function of (snapshot, spec seed): one
        round, or the same specs collected in two halves, agree exactly."""
        specs = curriculum.training_specs(7, round_index=0)
        abr = fresh_policy()
        whole = RolloutCollector().collect(abr, specs)
        halves = (
            RolloutCollector().collect(abr, specs[:3])
            + RolloutCollector().collect(abr, specs[3:])
        )
        assert len(whole) == len(halves) == 7
        for a, b in zip(whole, halves):
            assert a.seed == b.seed
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)

    def test_merge_preserves_spec_order(self, curriculum):
        specs = curriculum.training_specs(6, round_index=2)
        rollouts = RolloutCollector().collect(fresh_policy(), specs)
        assert [r.seed for r in rollouts] == [s.seed for s in specs]
        assert [r.regime for r in rollouts] == [s.regime for s in specs]

    def test_collection_and_evaluation_default_to_lockstep(self, curriculum):
        """The collector, the trainer and held-out evaluation run the
        lockstep core unless handed the serial reference."""
        from repro.engine import lockstep

        assert RolloutCollector().runner.backend == "lockstep"
        trainer = Trainer(fresh_policy(), curriculum)
        assert trainer.runner.backend == "lockstep"
        assert trainer.collector.runner is trainer.runner
        with mock.patch.object(
            lockstep, "run_orders_lockstep",
            wraps=lockstep.run_orders_lockstep,
        ) as core:
            evaluate_policy(fresh_policy(), curriculum.holdout_specs(1))
        assert core.call_count == 1

    def test_lockstep_backend_matches_serial(self, curriculum):
        """The batched RL driver collects byte-identical experience: the
        whole round steps as one SoA shard, yet every (state, action,
        reward) array must equal the serial reference's exactly."""
        specs = curriculum.training_specs(6, round_index=1)
        abr = fresh_policy()
        serial = RolloutCollector(
            runner=BatchRunner(backend="serial")
        ).collect(abr, specs)
        lockstep = RolloutCollector(
            runner=BatchRunner(backend="lockstep")
        ).collect(abr, specs)
        assert len(serial) == len(lockstep) == 6
        for a, b in zip(serial, lockstep):
            assert a.states.tobytes() == b.states.tobytes()
            assert np.array_equal(a.actions, b.actions)
            assert a.rewards.tobytes() == b.rewards.tobytes()
            assert (a.seed, a.regime) == (b.seed, b.regime)


# --------------------------------------------------------------- checkpoint


class TestCheckpointStore:
    def _trained_policy(self, curriculum) -> SenseiPensieveABR:
        abr = fresh_policy()
        collector = RolloutCollector()
        for rollout in collector.collect(
            abr, curriculum.training_specs(4, round_index=0)
        ):
            abr.agent.train_on_episode(
                EpisodeBuffer.from_arrays(
                    rollout.states, rollout.actions, rollout.rewards
                )
            )
        abr.record_training(4)
        return abr

    def test_round_trip_bit_identical_decisions(self, curriculum, tmp_path):
        """Save/load reproduces greedy decisions and action distributions
        bit-for-bit on a fixed observation stream."""
        abr = self._trained_policy(curriculum)
        store = CheckpointStore(tmp_path)
        store.save(abr, "sensei", metrics={"mean_qoe": 0.5})
        loaded = store.load("sensei")

        assert isinstance(loaded, SenseiPensieveABR)
        assert loaded.config == abr.config
        assert loaded.trained_episodes == abr.trained_episodes
        # A fixed stream of observations: the states visited on a held-out
        # episode by the original policy.
        spec = curriculum.holdout_specs(1)[0]
        [rollout] = collect_serially(abr, [spec])
        for state in rollout.states:
            original_probs = abr.agent.action_probabilities(state)
            loaded_probs = loaded.agent.action_probabilities(state)
            assert np.array_equal(original_probs, loaded_probs)
            assert abr.agent.select_action(state, greedy=True) == (
                loaded.agent.select_action(state, greedy=True)
            )

    def test_round_trip_resumes_training_bit_identically(self, curriculum, tmp_path):
        """Optimiser state survives the round trip: one more update on the
        original and on the reloaded policy lands on identical parameters."""
        abr = self._trained_policy(curriculum)
        store = CheckpointStore(tmp_path)
        store.save(abr, "resume")
        loaded = store.load("resume")

        [rollout] = RolloutCollector().collect(
            abr, curriculum.training_specs(1, round_index=9)
        )
        episode = EpisodeBuffer.from_arrays(
            rollout.states, rollout.actions, rollout.rewards
        )
        twin = EpisodeBuffer.from_arrays(
            rollout.states, rollout.actions, rollout.rewards
        )
        abr.agent.train_on_episode(episode)
        loaded.agent.train_on_episode(twin)
        original = abr.agent.state_dict()
        resumed = loaded.agent.state_dict()
        assert set(original) == set(resumed)
        for key in original:
            assert np.array_equal(original[key], resumed[key]), key

    def test_save_index_and_latest(self, curriculum, tmp_path):
        store = CheckpointStore(tmp_path)
        abr = fresh_policy()
        first = store.save(abr, "a")
        second = store.save(abr, "b")
        assert (first.save_index, second.save_index) == (0, 1)
        assert store.names() == ["a", "b"]
        assert store.latest() == "b"
        assert store.describe("a").kind == "sensei-pensieve"

    def test_plain_pensieve_round_trip(self, tmp_path):
        abr = PensieveABR(config=PensieveConfig(seed=13))
        store = CheckpointStore(tmp_path)
        store.save(abr, "plain")
        loaded = store.load("plain")
        assert isinstance(loaded, PensieveABR)
        assert not isinstance(loaded, SenseiPensieveABR)
        assert loaded.config == abr.config

    def test_rejects_newer_format_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(fresh_policy(), "future")
        metadata_path = tmp_path / "future" / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        metadata["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        # Re-stamp the checksum: the tampered file must pass integrity
        # verification so the version gate itself is what rejects it.
        metadata_path.write_text(json.dumps(attach_checksum(metadata)))
        with pytest.raises(ValueError, match="format version"):
            store.load("future")

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no checkpoint"):
            CheckpointStore(tmp_path).load("ghost")

    def test_rejects_bad_names(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save(fresh_policy(), "nested/name")


# ----------------------------------------------------- state-dict primitives


class TestStateDicts:
    def test_mlp_state_dict_round_trip(self):
        source = MLP(4, (8,), 3, seed=1)
        target = MLP(4, (8,), 3, seed=2)
        target.load_state_dict(source.state_dict())
        x = np.linspace(-1.0, 1.0, 4)
        assert np.array_equal(source.predict(x), target.predict(x))

    def test_mlp_rejects_shape_mismatch(self):
        small = MLP(4, (8,), 3, seed=1)
        big = MLP(4, (16,), 3, seed=1)
        with pytest.raises(ValueError):
            big.load_state_dict(small.state_dict())

    def test_adam_state_dict_round_trip(self):
        def step(optimizer, parameters):
            gradients = {
                name: np.full_like(value, 0.1)
                for name, value in parameters.items()
            }
            optimizer.update(parameters, gradients)

        original = AdamOptimizer(learning_rate=1e-2)
        params_a = {"w": np.ones((2, 2))}
        step(original, params_a)

        clone = AdamOptimizer(learning_rate=999.0)  # overwritten by load
        clone.load_state_dict(original.state_dict())
        params_b = {"w": params_a["w"].copy()}
        step(original, params_a)
        step(clone, params_b)
        assert np.array_equal(params_a["w"], params_b["w"])

    def test_agent_state_dict_covers_optimizers(self):
        config = ActorCriticConfig(state_dim=4, num_actions=3, hidden_dims=(8,))
        agent = ActorCriticAgent(config)
        state = agent.state_dict()
        assert any(key.startswith("actor_opt/") for key in state)
        assert any(key.startswith("critic_opt/") for key in state)
        assert "entropy_weight" in state


# ------------------------------------------------------------------ trainer


@pytest.mark.training
class TestTrainer:
    def _config(self, **overrides) -> TrainerConfig:
        defaults = dict(
            rounds=4, episodes_per_round=6, eval_every=2, eval_episodes=4
        )
        defaults.update(overrides)
        return TrainerConfig(**defaults)

    def test_schedules_applied(self, curriculum, training_oracle):
        abr = fresh_policy()
        trainer = Trainer(
            abr, curriculum, oracle=training_oracle,
            config=self._config(
                actor_lr=1e-3, critic_lr=2e-3, lr_decay=0.5,
                entropy_weight=0.08, entropy_decay=0.5,
            ),
        )
        result = trainer.train()
        assert [stats.actor_lr for stats in result.history] == pytest.approx(
            [1e-3, 5e-4, 2.5e-4, 1.25e-4]
        )
        assert [
            stats.entropy_weight for stats in result.history
        ] == pytest.approx([0.08, 0.04, 0.02, 0.01])
        assert result.episodes_trained == 24
        assert abr.trained_episodes == 24

    def test_entropy_floor(self, curriculum, training_oracle):
        trainer = Trainer(
            fresh_policy(), curriculum, oracle=training_oracle,
            config=self._config(
                rounds=3, entropy_weight=0.02, entropy_decay=0.01,
                min_entropy_weight=0.005,
            ),
        )
        result = trainer.train()
        assert result.history[-1].entropy_weight == pytest.approx(0.005)

    def test_periodic_checkpointing_without_store_is_a_noop(
        self, curriculum, training_oracle
    ):
        trainer = Trainer(
            fresh_policy(), curriculum, oracle=training_oracle,
            config=self._config(rounds=2, checkpoint_every=1),
        )
        result = trainer.train()  # must not touch a (missing) store
        assert result.checkpoints == []

    def test_early_stopping(self, curriculum, training_oracle):
        trainer = Trainer(
            fresh_policy(), curriculum, oracle=training_oracle,
            config=self._config(
                rounds=12, episodes_per_round=8, eval_every=1,
                early_stop_patience=2,
            ),
        )
        result = trainer.train()
        assert result.stopped_early
        assert len(result.history) < 12
        assert result.best_round >= 0

    @pytest.mark.slow
    def test_serial_and_lockstep_backends_produce_identical_checkpoints(
        self, curriculum, training_oracle, tmp_path
    ):
        """The acceptance guarantee: same seed, either backend, same
        checkpoint — compared key by key, array by array."""

        def run(backend_dir, runner):
            abr = fresh_policy()
            store = CheckpointStore(tmp_path / backend_dir)
            Trainer(
                abr, curriculum, runner=runner, store=store,
                checkpoint_name="sensei", oracle=training_oracle,
                config=self._config(rounds=3, episodes_per_round=6),
            ).train()
            return store

        serial_store = run("serial", BatchRunner(backend="serial"))
        lockstep_store = run("lockstep", BatchRunner(backend="lockstep"))
        assert serial_store.names() == lockstep_store.names()
        for name in serial_store.names():
            serial_state = serial_store.load(name).agent.state_dict()
            lockstep_state = lockstep_store.load(name).agent.state_dict()
            assert set(serial_state) == set(lockstep_state)
            for key in serial_state:
                assert np.array_equal(
                    serial_state[key], lockstep_state[key]
                ), (name, key)

    def test_trained_policy_beats_untrained_on_holdout(
        self, curriculum, training_oracle, tmp_path
    ):
        """The checkpointed best SENSEI-Pensieve policy must beat the
        untrained policy's mean QoE on the held-out trace set."""
        holdout = curriculum.holdout_specs(6)
        untrained_qoe = evaluate_policy(
            fresh_policy(), holdout, oracle=training_oracle
        )

        store = CheckpointStore(tmp_path)
        trainer = Trainer(
            fresh_policy(), curriculum, store=store, checkpoint_name="sensei",
            oracle=training_oracle,
            config=TrainerConfig(
                rounds=10, episodes_per_round=8, eval_every=1,
                eval_episodes=6,
            ),
        )
        result = trainer.train()
        assert "sensei-best" in store.names()
        best = store.load("sensei-best")
        best_qoe = evaluate_policy(best, holdout, oracle=training_oracle)
        assert best_qoe > untrained_qoe
        assert result.best_eval_qoe == pytest.approx(best_qoe)


# --------------------------------------------------------- grid integration


class TestGridIntegration:
    def test_checkpoints_round_trip_into_experiment_context(self, tmp_path):
        from repro.experiments.common import ExperimentContext, ExperimentScale

        store = CheckpointStore(tmp_path)
        store.save(PensieveABR(config=PensieveConfig(seed=13)), "pensieve")
        store.save(fresh_policy(), "sensei")

        context = ExperimentContext(scale=ExperimentScale.quick(), seed=7)
        context.load_trained_agents(
            store, pensieve="pensieve", sensei_pensieve="sensei"
        )
        # The installed policies are returned as-is: no ad hoc training run.
        pensieve = context.trained_pensieve()
        sensei = context.trained_sensei_pensieve()
        assert pensieve.config.seed == 13
        assert isinstance(sensei, SenseiPensieveABR)
        assert context.trained_pensieve() is pensieve

    def test_install_validates_kinds(self):
        from repro.experiments.common import ExperimentContext

        context = ExperimentContext()
        with pytest.raises(ValueError):
            context.install_trained_agents(pensieve=fresh_policy())
        with pytest.raises(ValueError):
            context.install_trained_agents(
                sensei_pensieve=PensieveABR(config=PensieveConfig(seed=1))
            )


# ----------------------------------------------------------------- pipeline


class TestTrainingPipeline:
    """End-to-end ``train_policies`` at micro scale — fast enough for
    tier-1, and the backend-identity check that matters most: the whole
    train → checkpoint → reload → grid pipeline must come out identical
    whether rollouts are collected serially or through the lockstep
    batched RL driver."""

    MICRO = dict(rounds=1, episodes_per_round=2, eval_every=1, eval_episodes=1)

    def _run(self, backend, tmp_path):
        from repro.training.pipeline import train_policies

        return train_policies(
            seed=11,
            checkpoint_root=tmp_path / backend,
            runner=BatchRunner(backend=backend),
            config=TrainerConfig(**self.MICRO),
            verbose=False,
        )

    def test_lockstep_collection_matches_serial_end_to_end(self, tmp_path):
        serial = self._run("serial", tmp_path)
        lockstep = self._run("lockstep", tmp_path)
        assert serial["backend"] == "serial"
        assert lockstep["backend"] == "lockstep"
        # Training trajectories, evaluations and the final checkpoint-backed
        # grid are all floats: exact equality, not approx — byte-identical
        # experience must yield byte-identical policies.
        assert serial["policies"] == lockstep["policies"]
        assert serial["grid_mean_qoe"] == lockstep["grid_mean_qoe"]
        for name in ("pensieve-best", "sensei-pensieve-best"):
            left = CheckpointStore(tmp_path / "serial").load(name)
            right = CheckpointStore(tmp_path / "lockstep").load(name)
            left_state = left.agent.state_dict()
            right_state = right.agent.state_dict()
            assert sorted(left_state) == sorted(right_state)
            for key, value in left_state.items():
                assert value.tobytes() == right_state[key].tobytes(), key

    def test_report_schema(self, tmp_path):
        report = self._run("lockstep", tmp_path)
        for key in ("scale", "seed", "backend", "checkpoint_root",
                    "policies", "grid_mean_qoe", "fault_log"):
            assert key in report, key
        for name in ("pensieve", "sensei-pensieve"):
            policy = report["policies"][name]
            assert policy["checkpoints"] == [f"{name}-best", f"{name}-final"]
            assert policy["evaluations"]
        assert set(report["grid_mean_qoe"]) >= {"Pensieve", "SENSEI-Pensieve"}
