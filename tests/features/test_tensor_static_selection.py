"""Tests for the feature tensor container, static features and selection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.features import (
    FEATURE_SELECTION_METHODS,
    FeatureTensor,
    STATIC_FEATURES,
    encode_categorical,
    mutual_info_scores,
    pearson_scores,
    random_scores,
    rfe_ranking,
    rfe_select,
    score_ranking,
    select_features,
    spearman_scores,
    static_features_for,
)


@pytest.fixture()
def tensor():
    rng = np.random.default_rng(0)
    return FeatureTensor(
        values=rng.normal(size=(4, 3, 5)),
        avail_ids=np.array([10, 20, 30, 40]),
        t_stars=np.array([0.0, 50.0, 100.0]),
        feature_names=["f0", "f1", "f2", "f3", "f4"],
    )


class TestFeatureTensor:
    def test_axis_properties(self, tensor):
        assert tensor.n_avails == 4
        assert tensor.n_timestamps == 3
        assert tensor.n_features == 5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureTensor(
                values=np.zeros((2, 2, 2)),
                avail_ids=np.array([1]),
                t_stars=np.array([0.0, 1.0]),
                feature_names=["a", "b"],
            )

    def test_at_slice(self, tensor):
        np.testing.assert_array_equal(tensor.at(50.0), tensor.values[:, 1, :])

    def test_at_unknown_t(self, tensor):
        with pytest.raises(ConfigurationError):
            tensor.at(33.0)

    def test_matrix_with_avail_order(self, tensor):
        out = tensor.matrix(0.0, np.array([30, 10]))
        np.testing.assert_array_equal(out[0], tensor.values[2, 0, :])
        np.testing.assert_array_equal(out[1], tensor.values[0, 0, :])

    def test_rows_for_unknown_avail(self, tensor):
        with pytest.raises(ConfigurationError):
            tensor.rows_for(np.array([999]))

    def test_feature_index(self, tensor):
        assert tensor.feature_index("f3") == 3
        with pytest.raises(ConfigurationError):
            tensor.feature_index("ghost")

    def test_select_features_subsets(self, tensor):
        sub = tensor.select_features(np.array([4, 0]))
        assert sub.feature_names == ["f4", "f0"]
        np.testing.assert_array_equal(sub.values[:, :, 0], tensor.values[:, :, 4])

    def test_for_avails(self, tensor):
        sub = tensor.for_avails(np.array([40, 20]))
        assert sub.n_avails == 2
        np.testing.assert_array_equal(sub.values[0], tensor.values[3])

    def test_nbytes(self, tensor):
        assert tensor.nbytes() == tensor.values.nbytes

    def test_gather_stacks_rows_in_order(self, tensor):
        np.testing.assert_array_equal(
            tensor.gather(np.array([3, 0])), tensor.values[[3, 0]]
        )
        assert tensor.gather(np.array([], dtype=np.int64)).shape == (0, 3, 5)

    def test_with_rows_shares_untouched_blocks(self, tensor):
        before = tensor.values.copy()
        part = FeatureTensor(
            values=np.full((1, 3, 5), 7.0),
            avail_ids=np.array([20]),
            t_stars=tensor.t_stars,
            feature_names=list(tensor.feature_names),
        )
        derived = tensor.with_rows(part)
        touched = int(derived.rows_for([20])[0])
        assert (derived.gather([touched]) == 7.0).all()
        assert not np.shares_memory(derived._rows[touched], tensor.values)
        for row in (0, 2, 3):
            assert np.shares_memory(derived._rows[row], tensor._rows[row])
        # neither tensor's arrays were written
        np.testing.assert_array_equal(tensor.values, before)
        np.testing.assert_array_equal(derived.values[[0, 2, 3]], before[[0, 2, 3]])
        assert derived.feature_index("f3") == 3

    def test_with_rows_rejects_other_axes(self, tensor):
        part = FeatureTensor(
            values=np.zeros((1, 2, 5)),
            avail_ids=np.array([20]),
            t_stars=np.array([0.0, 50.0]),
            feature_names=list(tensor.feature_names),
        )
        with pytest.raises(ConfigurationError, match="different axes"):
            tensor.with_rows(part)


class TestStaticFeatures:
    def test_shape_and_names(self, small_dataset):
        X, names, ids = static_features_for(small_dataset)
        assert X.shape == (30, 8)
        assert names == list(STATIC_FEATURES)
        assert len(ids) == 30

    def test_all_finite_numeric(self, small_dataset):
        X, _, _ = static_features_for(small_dataset)
        assert np.isfinite(X).all()

    def test_encode_categorical_stable(self):
        codes, mapping = encode_categorical(np.array(["b", "a", "b"], dtype=object))
        assert mapping == {"a": 0, "b": 1}
        assert codes.tolist() == [1.0, 0.0, 1.0]


@pytest.fixture()
def planted(rng):
    """X with one strongly predictive column (index 7) among noise."""
    X = rng.normal(size=(120, 20))
    y = 5.0 * X[:, 7] + rng.normal(0, 0.5, 120)
    return X, y


class TestScorers:
    def test_pearson_finds_planted(self, planted):
        X, y = planted
        assert pearson_scores(X, y).argmax() == 7

    def test_spearman_finds_planted_monotone(self, rng):
        X = rng.normal(size=(150, 10))
        y = np.exp(X[:, 3])  # monotone but nonlinear
        assert spearman_scores(X, y).argmax() == 3

    def test_mutual_info_finds_planted(self, planted):
        X, y = planted
        assert mutual_info_scores(X, y).argmax() == 7

    def test_mutual_info_finds_nonmonotone(self, rng):
        X = rng.normal(size=(400, 8))
        y = X[:, 2] ** 2  # invisible to Pearson
        assert mutual_info_scores(X, y).argmax() == 2
        assert pearson_scores(X, y).argmax() != 2 or pearson_scores(X, y)[2] < 0.3

    def test_constant_columns_score_zero(self, rng):
        X = np.column_stack([np.full(50, 3.0), rng.normal(size=50)])
        y = X[:, 1]
        assert pearson_scores(X, y)[0] == 0.0
        assert spearman_scores(X, y)[0] == 0.0
        assert mutual_info_scores(X, y)[0] == 0.0

    def test_pearson_sign_invariant(self, planted):
        X, y = planted
        scores_pos = pearson_scores(X, y)
        scores_neg = pearson_scores(X, -y)
        np.testing.assert_allclose(scores_pos, scores_neg, atol=1e-12)

    def test_random_scores_deterministic(self, planted):
        X, y = planted
        np.testing.assert_array_equal(
            random_scores(X, y, seed=4), random_scores(X, y, seed=4)
        )

    def test_spearman_handles_ties(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0], [3.0], [3.0]])
        y = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        assert spearman_scores(X, y)[0] == pytest.approx(1.0)


class TestSelection:
    def test_select_top_k(self, planted):
        X, y = planted
        for method in ("pearson", "spearman", "mutual_info"):
            selected = select_features(method, X, y, 5)
            assert len(selected) == 5
            assert 7 in selected

    def test_rfe_keeps_planted(self, planted):
        X, y = planted
        selected = rfe_select(X, y, 4)
        assert len(selected) == 4
        assert 7 in selected

    def test_rfe_ranking_is_permutation(self, planted):
        X, y = planted
        ranking = rfe_ranking(X, y)
        assert sorted(ranking.tolist()) == list(range(20))
        assert ranking[0] == 7  # best feature survives to the end

    def test_score_ranking_prefix_equals_select(self, planted):
        X, y = planted
        ranking = score_ranking("pearson", X, y)
        np.testing.assert_array_equal(ranking[:6], select_features("pearson", X, y, 6))

    def test_random_selection_differs_from_pearson(self, planted):
        X, y = planted
        random_sel = set(select_features("random", X, y, 5, seed=0).tolist())
        pearson_sel = set(select_features("pearson", X, y, 5).tolist())
        assert random_sel != pearson_sel

    def test_invalid_method(self, planted):
        X, y = planted
        with pytest.raises(ConfigurationError, match="unknown selection"):
            select_features("chi2", X, y, 5)

    def test_invalid_k(self, planted):
        X, y = planted
        with pytest.raises(ConfigurationError):
            select_features("pearson", X, y, 0)
        with pytest.raises(ConfigurationError):
            select_features("pearson", X, y, 21)

    def test_methods_registry(self):
        assert FEATURE_SELECTION_METHODS == (
            "pearson",
            "spearman",
            "mutual_info",
            "rfe",
            "random",
        )
