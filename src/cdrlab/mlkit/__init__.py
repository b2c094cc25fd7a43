"""Supervised-learning scaffolding: tables, three small model families,
held-out evaluation, covariate selection, and campaign reporting."""

from .campaign import CampaignOutcome, run_campaign, two_proportion_z
from .data import LabeledTable, split_train_test, upsample_minority
from .metrics import EvalReport, auc_score, evaluate
from .models import (
    BaggedStumpsModel,
    LogisticModel,
    MlpModel,
    load_model,
    save_model,
    train,
)
from .selection import LinearModel, SelectionResult, fit_ols, select_covariates

__all__ = [
    "BaggedStumpsModel",
    "CampaignOutcome",
    "EvalReport",
    "LabeledTable",
    "LinearModel",
    "LogisticModel",
    "MlpModel",
    "SelectionResult",
    "auc_score",
    "evaluate",
    "fit_ols",
    "load_model",
    "run_campaign",
    "save_model",
    "select_covariates",
    "split_train_test",
    "train",
    "two_proportion_z",
    "upsample_minority",
]
