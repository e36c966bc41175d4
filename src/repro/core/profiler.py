"""End-to-end per-video QoE profiling pipeline (Figure 8).

``source video → rendered-video scheduling → MTurk campaign → MOS →
weight inference → SensitivityProfile``.

The profiler glues together the scheduler (§4.3), the crowdsourcing
substrate (§4.1 / Appendix B) and the weight inference (§4.2), and accounts
for campaign cost so that the cost/accuracy trade-off experiments
(Figures 12c and 16) can sweep its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.qoe_model import SenseiQoEModel
from repro.core.scheduler import RenderingSchedule, SchedulerConfig, TwoStepScheduler
from repro.core.weights import SensitivityProfile, infer_weights
from repro.crowd.campaign import CampaignConfig, CampaignResult, MTurkCampaign
from repro.crowd.cost import CostModel
from repro.crowd.worker import WorkerPool
from repro.qoe.base import AdditiveQoEModel
from repro.qoe.ground_truth import GroundTruthOracle
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require
from repro.video.encoder import EncodedVideo
from repro.video.rendering import RenderedVideo, render_pristine


@dataclass
class ProfilingResult:
    """Everything a profiling run produced for one video.

    Attributes
    ----------
    profile: the inferred sensitivity profile.
    step1_result / step2_result: raw campaign outcomes of the two steps.
    total_cost_usd: total payments across both steps.
    cost_per_source_minute_usd: the paper's headline cost figure.
    num_renderings: rendered videos published across both steps.
    """

    profile: SensitivityProfile
    step1_result: CampaignResult
    step2_result: Optional[CampaignResult]
    total_cost_usd: float
    cost_per_source_minute_usd: float
    num_renderings: int

    @property
    def weights(self) -> np.ndarray:
        """Convenience accessor for the inferred weights."""
        return self.profile.weights


class SenseiProfiler:
    """Runs the per-video profiling pipeline against the simulated crowd.

    Parameters
    ----------
    oracle:
        The ground-truth oracle the simulated raters draw their opinions
        from (plays the role of "real users").
    scheduler_config:
        Two-step scheduler knobs (B, F, M1, M2, α).
    base_model:
        Additive base QoE model reweighted by the profile (KSQI); it is
        re-fitted on each video's campaign ratings before weight inference.
    worker_pool / cost_model / campaign_seed:
        Crowdsourcing configuration shared by both steps.
    use_two_step:
        When False, profile with the exhaustive (un-pruned) schedule instead
        — the "w/o cost pruning" arm of Figure 12c.
    refit_base_model:
        When True, re-fit the base model's coefficients on each campaign's
        ratings before weight inference.  Off by default: the step-1
        renderings keep visual quality constant, which makes that fit
        degenerate; the campaign-independent coefficients are both stable
        and shared with the ABR algorithms' objectives.
    """

    def __init__(
        self,
        oracle: Optional[GroundTruthOracle] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        base_model: Optional[AdditiveQoEModel] = None,
        worker_pool: Optional[WorkerPool] = None,
        cost_model: Optional[CostModel] = None,
        campaign_seed: int = 37,
        use_two_step: bool = True,
        refit_base_model: bool = False,
    ) -> None:
        self.oracle = oracle if oracle is not None else GroundTruthOracle()
        self.scheduler = TwoStepScheduler(scheduler_config)
        self.base_model = base_model if base_model is not None else KSQIModel()
        self.worker_pool = (
            worker_pool if worker_pool is not None else WorkerPool(seed=campaign_seed)
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.campaign_seed = int(campaign_seed)
        self.use_two_step = bool(use_two_step)
        self.refit_base_model = bool(refit_base_model)

    # ------------------------------------------------------------------ API

    def profile_video(self, encoded: EncodedVideo) -> ProfilingResult:
        """Profile one encoded video end to end."""
        if self.use_two_step:
            return self._profile_two_step(encoded)
        return self._profile_exhaustive(encoded)

    def profile_videos(
        self, videos: Sequence[EncodedVideo]
    ) -> Dict[str, ProfilingResult]:
        """Profile several videos; returns results keyed by video id."""
        return {
            encoded.source.video_id: self.profile_video(encoded)
            for encoded in videos
        }

    def build_qoe_model(
        self, results: Dict[str, ProfilingResult]
    ) -> SenseiQoEModel:
        """Assemble a :class:`SenseiQoEModel` from profiling results."""
        model = SenseiQoEModel(base_model=self.base_model)
        model.add_profiles(result.profile for result in results.values())
        return model

    # ------------------------------------------------------------- internals

    def _run_campaign(
        self, schedule: RenderingSchedule, encoded: EncodedVideo, seed_offset: int
    ) -> CampaignResult:
        campaign = MTurkCampaign(
            oracle=self.oracle,
            worker_pool=self.worker_pool,
            cost_model=self.cost_model,
            config=CampaignConfig(
                ratings_per_rendering=schedule.ratings_per_rendering,
                seed=self.campaign_seed + seed_offset,
            ),
        )
        reference = render_pristine(encoded)
        return campaign.run(schedule.renderings, reference=reference)

    def _fit_base_model(
        self, renderings: Sequence[RenderedVideo], result: CampaignResult
    ) -> None:
        """Optionally fit the base model's coefficients on campaign ratings."""
        if not self.refit_base_model:
            return
        rated = [r for r in renderings if r.render_id in result.mos]
        mos = [result.mos[r.render_id] for r in rated]
        if len(rated) >= 4:
            self.base_model.fit(rated, mos)

    def _profile_two_step(self, encoded: EncodedVideo) -> ProfilingResult:
        # --- Step 1: coarse probing of every chunk.
        step1 = self.scheduler.step1_schedule(encoded)
        step1_result = self._run_campaign(step1, encoded, seed_offset=1)
        self._fit_base_model(step1.renderings, step1_result)
        campaigns = [(step1.renderings, step1_result)]
        step1_profile = self._infer_from_results(encoded, campaigns)

        # --- Step 2: refined probing of the clearly high/low chunks.
        step2 = self.scheduler.step2_schedule(encoded, step1_profile.weights)
        if step2.renderings and step2.ratings_per_rendering > 0:
            campaigns.append(
                (step2.renderings, self._run_campaign(step2, encoded, seed_offset=2))
            )
        return self._profiling_result(
            encoded, campaigns, len(step1.renderings) + len(step2.renderings)
        )

    def _profile_exhaustive(self, encoded: EncodedVideo) -> ProfilingResult:
        schedule = self.scheduler.exhaustive_schedule(encoded)
        result = self._run_campaign(schedule, encoded, seed_offset=3)
        self._fit_base_model(schedule.renderings, result)
        return self._profiling_result(
            encoded, [(schedule.renderings, result)], len(schedule.renderings)
        )

    def _profiling_result(
        self, encoded: EncodedVideo, campaigns: Sequence, num_renderings: int
    ) -> ProfilingResult:
        """Weights inferred from every campaign, with cost accounting."""
        results = [result for _, result in campaigns]
        total_cost = sum(result.total_paid_usd for result in results)
        profile = SensitivityProfile(
            video_id=encoded.source.video_id,
            weights=self._infer_from_results(encoded, campaigns).weights,
            num_ratings=sum(
                1 for result in results for record in result.records
                if record.accepted
            ),
            cost_usd=total_cost,
        )
        return ProfilingResult(
            profile=profile,
            step1_result=results[0],
            step2_result=results[1] if len(results) > 1 else None,
            total_cost_usd=total_cost,
            cost_per_source_minute_usd=self.cost_model.cost_per_source_minute(
                total_cost, encoded.source.duration_s
            ),
            num_renderings=num_renderings,
        )

    def _infer_from_results(
        self,
        encoded: EncodedVideo,
        schedules: Sequence,
    ) -> SensitivityProfile:
        renderings: List[RenderedVideo] = []
        mos: List[float] = []
        for schedule_renderings, result in schedules:
            for rendering in schedule_renderings:
                if rendering.render_id in result.mos:
                    renderings.append(rendering)
                    mos.append(result.mos[rendering.render_id])
        require(len(renderings) >= 2, "not enough rated renderings to infer weights")
        return infer_weights(
            renderings,
            mos,
            base_model=self.base_model,
            video_id=encoded.source.video_id,
        )
