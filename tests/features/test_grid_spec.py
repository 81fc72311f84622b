"""Tests for the configurable feature grid (FeatureGridSpec)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.features import (
    FeatureGridSpec,
    N_GENERATED_FEATURES,
    StatusFeatureExtractor,
    feature_names,
)


class TestSpecConstruction:
    def test_default_matches_paper_grid(self):
        spec = FeatureGridSpec.default()
        assert spec.n_features == N_GENERATED_FEATURES
        assert spec.feature_names() == feature_names()

    def test_compact_is_smaller(self):
        assert FeatureGridSpec.compact().n_features < N_GENERATED_FEATURES

    def test_deep_covers_two_digit_prefixes(self):
        spec = FeatureGridSpec.deep()
        assert spec.swlin_depth == 2
        assert spec.digit_code_range == (10, 99)
        assert spec.n_features > 9000

    def test_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            FeatureGridSpec(swlin_depth=3)

    def test_unknown_stat(self):
        with pytest.raises(ConfigurationError, match="unknown statistics"):
            FeatureGridSpec(stats=("CNT_CREATED", "MAX_FOO"))

    def test_empty_axes(self):
        with pytest.raises(ConfigurationError):
            FeatureGridSpec(stats=())
        with pytest.raises(ConfigurationError):
            FeatureGridSpec(type_axis=())

    def test_scope_codes_out_of_range(self):
        with pytest.raises(ConfigurationError, match="outside depth"):
            FeatureGridSpec(swlin_axis=(("X", (42,)),), swlin_depth=1)

    def test_registry_indices_sequential(self):
        specs = FeatureGridSpec.compact().build_registry()
        assert [s.index for s in specs] == list(range(len(specs)))


class TestExtractionWithSpecs:
    def test_compact_values_match_default_subset(self, toy_dataset):
        t_stars = np.array([0.0, 50.0, 100.0])
        full = StatusFeatureExtractor(toy_dataset, t_stars).extract()
        compact = StatusFeatureExtractor(
            toy_dataset, t_stars, grid=FeatureGridSpec.compact()
        ).extract()
        for name in compact.feature_names:
            np.testing.assert_allclose(
                compact.values[:, :, compact.feature_index(name)],
                full.values[:, :, full.feature_index(name)],
            )

    def test_deep_level2_counts(self, toy_dataset):
        """Toy avail 0 has SWLINs 111..., 222..., 133... -> prefixes 11, 22, 13."""
        spec = FeatureGridSpec.deep()
        tensor = StatusFeatureExtractor(
            toy_dataset, np.array([100.0]), grid=spec
        ).extract()
        assert tensor.values[0, 0, tensor.feature_index("ALL11-CNT_CREATED")] == 1.0
        assert tensor.values[0, 0, tensor.feature_index("ALL13-CNT_CREATED")] == 1.0
        assert tensor.values[0, 0, tensor.feature_index("ALL22-CNT_CREATED")] == 1.0
        assert tensor.values[0, 0, tensor.feature_index("ALL12-CNT_CREATED")] == 0.0

    def test_deep_all_scope_equals_depth1_all(self, toy_dataset):
        t_stars = np.array([100.0])
        full = StatusFeatureExtractor(toy_dataset, t_stars).extract()
        deep = StatusFeatureExtractor(
            toy_dataset, t_stars, grid=FeatureGridSpec.deep()
        ).extract()
        np.testing.assert_allclose(
            deep.values[:, :, deep.feature_index("ALLALL-SUM_CREATED_AMT")],
            full.values[:, :, full.feature_index("ALLALL-SUM_CREATED_AMT")],
        )

    def test_custom_stat_order_respected(self, toy_dataset):
        spec = FeatureGridSpec(stats=("SUM_CREATED_AMT", "CNT_CREATED"))
        tensor = StatusFeatureExtractor(
            toy_dataset, np.array([100.0]), grid=spec
        ).extract()
        names = tensor.feature_names
        assert names.index("G1-SUM_CREATED_AMT") < names.index("G1-CNT_CREATED")

    def test_no_specials(self, toy_dataset):
        spec = FeatureGridSpec(include_specials=False)
        tensor = StatusFeatureExtractor(
            toy_dataset, np.array([50.0]), grid=spec
        ).extract()
        assert "T_STAR" not in tensor.feature_names


class TestRegistryMemo:
    """Registry enumeration runs once per distinct (frozen) grid spec."""

    SPECS = (
        FeatureGridSpec.default(),
        FeatureGridSpec.compact(),
        FeatureGridSpec.deep(),
        FeatureGridSpec(stats=("SUM_CREATED_AMT", "CNT_CREATED")),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: str(s.n_features))
    def test_memoised_results_equal_a_fresh_build(self, spec):
        from repro.features.registry import _registry_of

        fresh = list(_registry_of.__wrapped__(spec))
        assert spec.build_registry() == fresh
        assert spec.feature_names() == [feature.name for feature in fresh]
        # an equal spec built separately shares the memoised result
        twin = FeatureGridSpec(
            type_axis=spec.type_axis,
            swlin_axis=spec.swlin_axis,
            swlin_depth=spec.swlin_depth,
            stats=spec.stats,
            include_specials=spec.include_specials,
        )
        assert twin.build_registry() == fresh

    def test_callers_get_private_copies(self):
        spec = FeatureGridSpec.compact()
        names = spec.feature_names()
        names.clear()
        registry = spec.build_registry()
        registry.pop()
        assert len(spec.feature_names()) == spec.n_features
        assert len(spec.build_registry()) == spec.n_features

    def test_repeated_constructions_do_not_rebuild(
        self, toy_dataset, feature_estimator
    ):
        from repro.features.registry import _names_of, _registry_of

        _registry_of.cache_clear()
        _names_of.cache_clear()
        for _ in range(3):
            StatusFeatureExtractor(toy_dataset)
            feature_estimator.serve(toy_dataset).provenance()
        assert _registry_of.cache_info().misses == 1
        assert _names_of.cache_info().misses == 1
