"""ML substrate: boosted trees, linear models, losses, metrics, tuning.

Public API::

    from repro.ml import (
        GradientBoostedTrees, GbmParams, RegressionTree, TreeParams,
        LinearRegression, ElasticNet,
        make_loss, LOSS_NAMES,
        mae, mse, rmse, r2, mae_at_percentile, metric_suite,
        TpeTuner, UniformParam, IntParam, ChoiceParam, default_gbm_space,
    )
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.ml.gbm": ("GbmParams", "GradientBoostedTrees"),
        "repro.ml.linear": ("ElasticNet", "LinearRegression"),
        "repro.ml.losses": (
            "LOSS_NAMES",
            "AbsoluteLoss",
            "HuberLoss",
            "Loss",
            "PinballLoss",
            "PseudoHuberLoss",
            "SquaredLoss",
            "make_loss",
        ),
        "repro.ml.metrics": (
            "mae",
            "mae_at_percentile",
            "metric_suite",
            "mse",
            "r2",
            "rmse",
        ),
        "repro.ml.tree": ("RegressionTree", "TreeParams"),
        "repro.ml.validation": (
            "PairedComparison",
            "paired_comparison",
            "repeated_split_scores",
        ),
        "repro.ml.tuning": (
            "ChoiceParam",
            "IntParam",
            "Param",
            "TpeTuner",
            "Trial",
            "TuningResult",
            "UniformParam",
            "default_gbm_space",
        ),
    },
)

__all__ = [
    "GradientBoostedTrees",
    "GbmParams",
    "RegressionTree",
    "TreeParams",
    "LinearRegression",
    "ElasticNet",
    "Loss",
    "SquaredLoss",
    "AbsoluteLoss",
    "HuberLoss",
    "PseudoHuberLoss",
    "PinballLoss",
    "make_loss",
    "LOSS_NAMES",
    "mae",
    "mse",
    "rmse",
    "r2",
    "mae_at_percentile",
    "metric_suite",
    "PairedComparison",
    "paired_comparison",
    "repeated_split_scores",
    "TpeTuner",
    "Trial",
    "TuningResult",
    "Param",
    "UniformParam",
    "IntParam",
    "ChoiceParam",
    "default_gbm_space",
]
