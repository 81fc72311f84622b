"""Tests for linear models (OLS + Elastic-Net coordinate descent)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.ml import ElasticNet, LinearRegression


@pytest.fixture()
def linear_problem(rng):
    X = rng.normal(size=(100, 5))
    true_coef = np.array([3.0, -2.0, 0.0, 0.0, 1.0])
    y = X @ true_coef + 4.0
    return X, y, true_coef


class TestOls:
    def test_exact_recovery(self, linear_problem):
        X, y, coef = linear_problem
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, coef, atol=1e-8)
        assert model.intercept_ == pytest.approx(4.0)

    def test_predict(self, linear_problem):
        X, y, _ = linear_problem
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_no_intercept(self, rng):
        X = rng.normal(size=(50, 2))
        y = X @ np.array([1.0, 2.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coef_, [1.0, 2.0], atol=1e-8)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((1, 1)))

    def test_misaligned(self):
        with pytest.raises(ConfigurationError):
            LinearRegression().fit(np.zeros((3, 1)), np.zeros(2))


class TestElasticNet:
    def test_tiny_alpha_approximates_ols(self, linear_problem):
        X, y, coef = linear_problem
        model = ElasticNet(alpha=1e-6, l1_ratio=0.5).fit(X, y)
        np.testing.assert_allclose(model.coef_, coef, atol=1e-2)

    def test_lasso_produces_sparsity(self, linear_problem):
        X, y, _ = linear_problem
        dense = ElasticNet(alpha=0.01, l1_ratio=1.0).fit(X, y)
        sparse = ElasticNet(alpha=2.0, l1_ratio=1.0).fit(X, y)
        assert sparse.n_nonzero() < dense.n_nonzero()

    def test_huge_alpha_kills_all_coefficients(self, linear_problem):
        X, y, _ = linear_problem
        model = ElasticNet(alpha=1e6, l1_ratio=1.0).fit(X, y)
        assert model.n_nonzero() == 0
        # Prediction degenerates to the target mean.
        np.testing.assert_allclose(model.predict(X), y.mean(), atol=1e-6)

    def test_ridge_shrinks_but_keeps_all(self, linear_problem):
        X, y, coef = linear_problem
        model = ElasticNet(alpha=5.0, l1_ratio=0.0).fit(X, y)
        nonzero_true = np.abs(coef) > 0
        assert (np.abs(model.coef_[nonzero_true]) < np.abs(coef[nonzero_true])).all()

    def test_standardize_handles_scale_differences(self, rng):
        X = np.column_stack([rng.normal(0, 1, 80), rng.normal(0, 1000, 80)])
        y = X[:, 0] + 0.001 * X[:, 1]
        model = ElasticNet(alpha=0.01, l1_ratio=0.5).fit(X, y)
        pred_error = np.abs(model.predict(X) - y).mean()
        assert pred_error < 0.2 * np.abs(y - y.mean()).mean()

    def test_constant_column_gets_zero_coef(self, rng):
        X = np.column_stack([rng.normal(size=50), np.full(50, 7.0)])
        y = 2 * X[:, 0]
        model = ElasticNet(alpha=0.01).fit(X, y)
        assert model.coef_[1] == 0.0

    def test_converges_and_reports_iterations(self, linear_problem):
        X, y, _ = linear_problem
        model = ElasticNet(alpha=0.1).fit(X, y)
        assert 1 <= model.n_iter_ <= model.max_iter

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            ElasticNet().predict(np.zeros((1, 1)))
        with pytest.raises(NotFittedError):
            ElasticNet().n_nonzero()

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            ElasticNet(alpha=-1.0)
        with pytest.raises(ConfigurationError):
            ElasticNet(l1_ratio=1.5)

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            ElasticNet().fit(np.zeros(5), np.zeros(5))


@pytest.mark.parametrize("model", [LinearRegression(), ElasticNet(alpha=0.01)])
def test_rows_predicted_alone_match_the_batch_bitwise(model, rng):
    """A row's prediction must not depend on the rows predicted with it
    (a batched DoMD query mixes whichever avails it was asked for)."""
    X = rng.normal(size=(60, 40)) * 50.0
    model.fit(X, X @ rng.normal(size=40) + rng.normal(size=60))
    batch = model.predict(X)
    alone = np.array([model.predict(X[i : i + 1])[0] for i in range(len(X))])
    np.testing.assert_array_equal(batch.view(np.int64), alone.view(np.int64))
