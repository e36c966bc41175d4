"""Integration tests for the experiment harness (tiny scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.core.sensei_abr import SenseiPensieveABR, make_sensei_pensieve
from repro.experiments.common import ExperimentContext, ExperimentScale
from repro.experiments import abr_eval, qoe_models, sensitivity
from repro.training.checkpoint import CheckpointStore


@pytest.fixture(scope="module")
def tiny_context():
    """A very small context so integration tests stay fast."""
    scale = ExperimentScale(
        name="tiny",
        num_videos=2,
        num_traces=2,
        step1_ratings=5,
        step2_ratings=2,
        pensieve_episodes=8,
        trace_duration_s=700.0,
    )
    return ExperimentContext(scale=scale, seed=13)


class TestContext:
    def test_video_ids_span_scale(self, tiny_context):
        assert len(tiny_context.video_ids()) == 2

    def test_videos_and_traces_materialise(self, tiny_context):
        assert len(tiny_context.videos()) == 2
        assert len(tiny_context.traces()) == 2

    def test_profiles_are_cached(self, tiny_context):
        first = tiny_context.profile("soccer1")
        second = tiny_context.profile("soccer1")
        assert first is second
        assert np.mean(first.weights) == pytest.approx(1.0)

    def test_sensei_qoe_model_has_all_profiles(self, tiny_context):
        model = tiny_context.sensei_qoe_model()
        for video_id in tiny_context.video_ids():
            assert model.has_profile(video_id)

    def test_stream_qoe_in_unit_range(self, tiny_context):
        encoded = tiny_context.videos()[0]
        trace = tiny_context.traces()[0]
        qoe = tiny_context.stream_qoe(tiny_context.make_bba(), encoded, trace)
        assert 0.0 <= qoe <= 1.0

    def test_gain_over(self, tiny_context):
        assert tiny_context.gain_over(0.6, 0.5) == pytest.approx(0.2)

    def test_profiler_is_cached(self, tiny_context):
        assert tiny_context.profiler() is tiny_context.profiler()

    def test_tiny_scale_preset(self):
        scale = ExperimentScale.tiny()
        assert scale.name == "tiny"
        assert scale.num_videos == 2


class TestContextAgentCaching:
    """Profile/agent caching and the checkpoint-first policy resolution."""

    def _scale(self, **overrides):
        fields = dict(
            name="tiny-rl",
            num_videos=1,
            num_traces=1,
            step1_ratings=4,
            step2_ratings=2,
            pensieve_episodes=2,
            trace_duration_s=400.0,
        )
        fields.update(overrides)
        return ExperimentScale(**fields)

    def test_install_validates_types(self, tmp_path):
        context = ExperimentContext(
            scale=self._scale(), seed=5, checkpoint_root=tmp_path
        )
        with pytest.raises(ValueError, match="non-SENSEI"):
            context.install_trained_agents(pensieve=make_sensei_pensieve(seed=1))
        with pytest.raises(ValueError, match="SenseiPensieveABR"):
            context.install_trained_agents(
                sensei_pensieve=PensieveABR(config=PensieveConfig(seed=1))
            )

    def test_installed_agents_take_priority(self, tmp_path):
        context = ExperimentContext(
            scale=self._scale(), seed=5, checkpoint_root=tmp_path
        )
        agent = PensieveABR(config=PensieveConfig(seed=2))
        context.install_trained_agents(pensieve=agent)
        assert context.trained_pensieve() is agent
        assert context.trained_agent_sources["pensieve"] == "installed"

    def test_checkpoint_store_resolution(self, tmp_path):
        missing = ExperimentContext(
            scale=self._scale(), seed=5,
            checkpoint_root=tmp_path / "never-created",
        )
        assert missing.checkpoint_store() is None
        existing_root = tmp_path / "checkpoints"
        existing_root.mkdir()
        context = ExperimentContext(
            scale=self._scale(), seed=5, checkpoint_root=existing_root
        )
        assert context.checkpoint_store() is not None

    def test_trained_pensieve_loads_checkpoint_by_default(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoints")
        saved = PensieveABR(config=PensieveConfig(seed=31))
        store.save(saved, "pensieve-best")
        context = ExperimentContext(
            scale=self._scale(), seed=5,
            checkpoint_root=tmp_path / "checkpoints",
        )
        loaded = context.trained_pensieve()
        assert context.trained_agent_sources["pensieve"].startswith(
            "checkpoint:pensieve-best@"
        )
        assert loaded.config.seed == 31
        assert not isinstance(loaded, SenseiPensieveABR)
        # Cached: a second call returns the same instance.
        assert context.trained_pensieve() is loaded

    def test_checkpoint_preference_best_over_final(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoints")
        store.save(PensieveABR(config=PensieveConfig(seed=41)), "pensieve-final")
        store.save(PensieveABR(config=PensieveConfig(seed=42)), "pensieve-best")
        context = ExperimentContext(
            scale=self._scale(), seed=5,
            checkpoint_root=tmp_path / "checkpoints",
        )
        assert context.trained_pensieve().config.seed == 42

    def test_sensei_checkpoint_resolution(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoints")
        store.save(make_sensei_pensieve(seed=51), "sensei-pensieve-best")
        context = ExperimentContext(
            scale=self._scale(), seed=5,
            checkpoint_root=tmp_path / "checkpoints",
        )
        agent = context.trained_sensei_pensieve()
        assert isinstance(agent, SenseiPensieveABR)
        assert context.trained_agent_sources["sensei-pensieve"].startswith(
            "checkpoint:sensei-pensieve-best@"
        )

    def test_ad_hoc_fallback_without_checkpoints(self, tmp_path):
        empty_root = tmp_path / "checkpoints"
        empty_root.mkdir()
        context = ExperimentContext(
            scale=self._scale(), seed=5, checkpoint_root=empty_root
        )
        agent = context.trained_pensieve()
        assert agent.trained_episodes > 0
        assert context.trained_agent_sources["pensieve"] == "ad-hoc-training"


class TestSensitivityExperiments:
    def test_table1(self, tiny_context):
        result = sensitivity.table1_video_set(tiny_context)
        assert result["num_videos"] == 16

    def test_fig01(self, tiny_context):
        result = sensitivity.fig01_video_series_mos(tiny_context, clip_chunks=5)
        assert len(result["mos"]) == 5
        assert result["max_min_gap"] > 0.0

    def test_fig03(self, tiny_context):
        result = sensitivity.fig03_qoe_gap_cdf(tiny_context)
        assert result["num_series"] == 2 * 3
        assert 0.0 <= result["fraction_above_40pct"] <= 1.0

    def test_fig04(self, tiny_context):
        result = sensitivity.fig04_incident_positions(tiny_context, clip_chunks=5)
        assert set(result["curves"]) == {
            "rebuffer_1s", "rebuffer_4s", "bitrate_drop_4s"
        }
        assert result["rank_correlation_1s_vs_4s"] > 0.5

    def test_fig05(self, tiny_context):
        result = sensitivity.fig05_incident_rank_correlation(tiny_context)
        assert result["mean_1s_vs_4s"] > 0.5
        assert result["mean_1s_vs_drop"] > 0.2

    def test_fig20(self, tiny_context):
        result = sensitivity.fig20_cv_models(tiny_context, video_ids=("lava", "tank"))
        assert set(result["per_video"]) == {"lava", "tank"}
        for name, value in result["mean_rank_correlation"].items():
            assert -1.0 <= value <= 1.0


class TestQoEModelExperiments:
    def test_fig02_fig15(self, tiny_context):
        result = qoe_models.fig02_fig15_model_accuracy(tiny_context, lstm_epochs=2)
        evaluations = result["evaluations"]
        assert {"SENSEI", "KSQI", "LSTM-QoE", "P.1203"} <= set(evaluations)
        sensei = evaluations["SENSEI"]
        assert sensei["plcc"] > 0.5
        # At this tiny scale the comparison is noisy; SENSEI must stay in the
        # same accuracy band as the best baseline (the full comparison runs
        # in the Figure 2/15 benchmark at larger scale).
        baseline_plcc = max(
            evaluations[name]["plcc"] for name in ("KSQI", "LSTM-QoE", "P.1203")
        )
        assert sensei["plcc"] >= baseline_plcc - 0.15

    def test_fig12c(self, tiny_context):
        result = qoe_models.fig12c_cost_vs_qoe(tiny_context)
        assert result["arms"]["pruned"]["cost_usd_per_min"] < (
            result["arms"]["exhaustive"]["cost_usd_per_min"]
        )
        assert result["pruning_cost_saving"] > 0.3

    def test_appendix_b(self, tiny_context):
        result = qoe_models.appendix_b_rating_sanitization(tiny_context, clip_chunks=5)
        assert result["masters_only"]["rejection_rate"] <= (
            result["all_workers"]["rejection_rate"] + 0.05
        )


class TestABREvalExperiments:
    def test_fig12a(self, tiny_context):
        result = abr_eval.fig12a_qoe_gain_cdf(tiny_context)
        assert "SENSEI" in result["per_algorithm"]
        assert result["num_pairs"] == 4

    def test_fig13_and_fig14(self, tiny_context):
        per_video = abr_eval.fig13_gain_per_video(tiny_context)
        per_trace = abr_eval.fig14_gain_per_trace(tiny_context)
        assert len(per_video["rows"]) == 2
        assert len(per_trace["rows"]) == 2

    def test_headline(self, tiny_context):
        result = abr_eval.headline_numbers(tiny_context)
        assert 0.0 <= result["mean_qoe"]["SENSEI"] <= 1.0
        assert result["mean_qoe"]["SENSEI"] >= result["mean_qoe"]["BBA"] - 0.05

    def test_fig06(self, tiny_context):
        result = abr_eval.fig06_potential_gains(
            tiny_context, video_ids=["soccer1"],
            scaling_ratios=(0.5, 1.0), beam_width=8,
        )
        assert len(result["aware_qoe"]) == 2
        assert result["aware_qoe"][-1] >= result["unaware_qoe"][-1] - 0.05

    def test_fig12b(self, tiny_context):
        result = abr_eval.fig12b_bandwidth_usage(
            tiny_context, scaling_ratios=(0.5, 1.0)
        )
        for curve in result["curves"].values():
            assert len(curve) == 2

    def test_bandwidth_saving_interpolates_between_grid_points(self):
        # Fugu's full-bandwidth QoE is 0.4; SENSEI crosses it a quarter of
        # the way from 0.6 (0.3) to 0.8 (0.7): ratio 0.65.
        saving = abr_eval.bandwidth_saving_at_equal_qoe(
            (0.4, 0.6, 0.8, 1.0), (0.1, 0.3, 0.7, 0.8), (0.0, 0.1, 0.2, 0.4)
        )
        assert saving == pytest.approx(0.35)

    def test_bandwidth_saving_edges(self):
        ratios = (0.4, 0.6, 0.8, 1.0)
        base = (0.1, 0.2, 0.3, 0.5)
        saving = abr_eval.bandwidth_saving_at_equal_qoe
        # Never reached: no saving, whatever the shortfall.
        assert saving(ratios, (0.1, 0.2, 0.3, 0.45), base) == 0.0
        # Reached exactly at full bandwidth only.
        assert saving(ratios, (0.1, 0.2, 0.3, 0.5), base) == 0.0
        # Reached at the first point: nothing is extrapolated below it.
        assert saving(ratios, (0.9, 0.9, 0.9, 0.9), base) == pytest.approx(0.6)
        with pytest.raises(ValueError, match="ascending"):
            saving((1.0, 0.8, 0.6, 0.4), (0.9,) * 4, base)

    def test_fig17(self, tiny_context):
        result = abr_eval.fig17_bandwidth_variance(
            tiny_context, noise_levels_mbps=(0.0, 0.5)
        )
        assert len(result["throughput_std_kbps"]) == 2
        assert set(result["curves"]) == {"Fugu", "SENSEI-Fugu"}

    def test_fig18b(self, tiny_context):
        result = abr_eval.fig18b_gain_breakdown(tiny_context)
        assert set(result) == {
            "base_abr_with_ksqi", "only_bitrate_adaptation", "full_sensei"
        }
