"""The DoMD estimation framework (paper Sections 2, 3.2, 5.2).

Public API::

    from repro.core import (
        PipelineConfig, paper_final_config,
        PipelineOptimizer, OptimizationReport, StageResult,
        TimelineModelSet, LogicalTimeline,
        DomdEstimator, DomdEstimate, FeatureContribution,
        DomdService, ServicePool, PoolFuture,
        fuse, fuse_progressive, FUSION_METHODS,
        make_model, MODEL_FAMILIES, ARCHITECTURES,
    )
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.core.config": ("ARCHITECTURES", "PipelineConfig", "paper_final_config"),
        "repro.core.estimator": (
            "DomdEstimate",
            "DomdEstimator",
            "FeatureContribution",
        ),
        "repro.core.fusion": ("FUSION_METHODS", "fuse", "fuse_progressive"),
        "repro.core.models": (
            "MODEL_FAMILIES",
            "BaseModelAdapter",
            "GbmAdapter",
            "LinearAdapter",
            "make_model",
        ),
        "repro.core.conformal": ("ConformalDomdEstimator", "DomdInterval"),
        "repro.core.interpret": (
            "GlobalFeatureReport",
            "format_sme_report",
            "global_feature_report",
            "window_importances",
        ),
        "repro.core.retrain": ("RetrainDecision", "RetrainManager"),
        "repro.core.server": ("PoolFuture", "ServicePool"),
        "repro.core.service": (
            "ERROR_CODES",
            "RETRYABLE_CODES",
            "DomdService",
            "error_envelope",
        ),
        "repro.core.pipeline": (
            "DEFAULT_K_GRID",
            "DEFAULT_TRIAL_COUNTS",
            "STAGES",
            "OptimizationReport",
            "PipelineOptimizer",
            "StageResult",
        ),
        "repro.core.timeline": ("LogicalTimeline",),
        "repro.core.whatif": ("WhatIfResult", "inject_rccs", "surge_analysis"),
        "repro.core.timeline_models": (
            "STATIC_BASE_PRED",
            "TimelineModelSet",
            "WindowModel",
        ),
    },
)

__all__ = [
    "PipelineConfig",
    "paper_final_config",
    "ARCHITECTURES",
    "PipelineOptimizer",
    "OptimizationReport",
    "StageResult",
    "STAGES",
    "DEFAULT_K_GRID",
    "DEFAULT_TRIAL_COUNTS",
    "TimelineModelSet",
    "WindowModel",
    "STATIC_BASE_PRED",
    "LogicalTimeline",
    "DomdEstimator",
    "DomdService",
    "ServicePool",
    "PoolFuture",
    "error_envelope",
    "ERROR_CODES",
    "RETRYABLE_CODES",
    "RetrainManager",
    "ConformalDomdEstimator",
    "DomdInterval",
    "GlobalFeatureReport",
    "global_feature_report",
    "window_importances",
    "format_sme_report",
    "WhatIfResult",
    "inject_rccs",
    "surge_analysis",
    "RetrainDecision",
    "DomdEstimate",
    "FeatureContribution",
    "fuse",
    "fuse_progressive",
    "FUSION_METHODS",
    "make_model",
    "MODEL_FAMILIES",
    "BaseModelAdapter",
    "GbmAdapter",
    "LinearAdapter",
]
