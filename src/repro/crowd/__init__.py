"""Crowdsourcing substrate: a simulated Amazon MTurk campaign.

The paper elicits MOS ratings from MTurk workers per rendered video (§4.1,
Appendix B/C).  The reproduction simulates the same pipeline: a pool of
workers with individual bias, noise and reliability; surveys of K rendered
videos plus a reference video; rejection rules (rating above the reference,
not watching in full, inconsistent incident confirmation); MOS aggregation;
and cost accounting at an hourly rate proportional to watched video time.
"""

from repro.crowd.worker import WorkerProfile, WorkerPool, WorkerRating
from repro.crowd.survey import SurveyPlan, build_survey_plan
from repro.crowd.campaign import (
    CampaignConfig,
    CampaignResult,
    MTurkCampaign,
    RatingColumns,
    RatingRecord,
)
from repro.crowd.cost import CostModel

__all__ = [
    "WorkerProfile",
    "WorkerPool",
    "WorkerRating",
    "SurveyPlan",
    "build_survey_plan",
    "CampaignConfig",
    "CampaignResult",
    "MTurkCampaign",
    "RatingColumns",
    "RatingRecord",
    "CostModel",
]
