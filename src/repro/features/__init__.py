"""Feature engineering & selection (paper Section 3.1 / Task 2).

Public API::

    from repro.features import (
        StatusFeatureExtractor, FeatureTensor, default_timeline,
        static_feature_matrix, STATIC_FEATURES,
        select_features, FEATURE_SELECTION_METHODS,
        build_registry, feature_names, N_GENERATED_FEATURES,
    )
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.data.schema": ("STATIC_FEATURES",),
        "repro.features.registry": (
            "N_GENERATED_FEATURES",
            "N_GRID_FEATURES",
            "SPECIAL_FEATURES",
            "STAT_AXIS",
            "SWLIN_AXIS",
            "TYPE_AXIS",
            "FeatureGridSpec",
            "FeatureSpec",
            "STAT_LOOKUP",
            "build_registry",
            "feature_names",
            "grid_feature_name",
        ),
        "repro.features.selection": (
            "FEATURE_SELECTION_METHODS",
            "mutual_info_scores",
            "pearson_scores",
            "random_scores",
            "rfe_ranking",
            "rfe_select",
            "score_ranking",
            "select_features",
            "spearman_scores",
        ),
        "repro.features.static": (
            "encode_categorical",
            "static_feature_matrix",
            "static_features_for",
            "static_vocab",
        ),
        "repro.features.tensor": ("FeatureTensor",),
        "repro.features.transform": ("StatusFeatureExtractor", "default_timeline"),
    },
)

__all__ = [
    "StatusFeatureExtractor",
    "FeatureTensor",
    "default_timeline",
    "static_feature_matrix",
    "static_features_for",
    "static_vocab",
    "encode_categorical",
    "STATIC_FEATURES",
    "select_features",
    "FEATURE_SELECTION_METHODS",
    "pearson_scores",
    "spearman_scores",
    "mutual_info_scores",
    "random_scores",
    "rfe_select",
    "rfe_ranking",
    "score_ranking",
    "build_registry",
    "feature_names",
    "grid_feature_name",
    "FeatureSpec",
    "FeatureGridSpec",
    "STAT_LOOKUP",
    "N_GENERATED_FEATURES",
    "N_GRID_FEATURES",
    "SPECIAL_FEATURES",
    "TYPE_AXIS",
    "SWLIN_AXIS",
    "STAT_AXIS",
]
