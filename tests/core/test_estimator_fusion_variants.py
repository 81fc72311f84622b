"""Estimator behaviour under the extended fusion methods and odd windows."""

import numpy as np
import pytest

from repro.core import DomdEstimator, PipelineConfig
from repro.core import estimator as estimator_module
from repro.ml import GbmParams


def fast_config(**overrides):
    defaults = dict(window_pct=25.0, k=8, gbm=GbmParams(n_estimators=15))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.mark.parametrize("fusion", ["median", "ewma"])
def test_extended_fusion_through_estimator(small_dataset, small_splits, fusion):
    estimator = DomdEstimator(fast_config(fusion=fusion)).fit(
        small_dataset, small_splits.train_ids
    )
    result = estimator.query([0], t_star=100.0)[0]
    assert np.isfinite(result.fused_estimates).all()
    # Fused estimates aggregate raw windows: stay within their hull.
    assert result.fused_estimates.min() >= result.window_estimates.min() - 1e-9
    assert result.fused_estimates.max() <= result.window_estimates.max() + 1e-9


def test_non_divisor_window_width(small_dataset, small_splits):
    """x = 30% -> ceil(100/30) = 4 windows plus t*=0 boundary."""
    estimator = DomdEstimator(fast_config(window_pct=30.0)).fit(
        small_dataset, small_splits.train_ids
    )
    assert estimator.timeline.n_models == 5
    result = estimator.query([0], t_star=100.0)[0]
    assert len(result.window_estimates) == 5


def test_query_at_exact_zero(small_dataset, small_splits):
    estimator = DomdEstimator(fast_config()).fit(small_dataset, small_splits.train_ids)
    result = estimator.query([0], t_star=0.0)[0]
    assert len(result.window_estimates) == 1
    assert result.window_t_stars.tolist() == [0.0]


@pytest.mark.parametrize("fusion", ["average", "ewma"])
def test_evaluate_matches_single_avail_queries_bitwise(
    small_dataset, small_splits, fusion, monkeypatch
):
    """evaluate() fuses every avail in one batch; each fused value must
    equal the avail's own one-avail query at that window's boundary."""
    estimator = DomdEstimator(fast_config(fusion=fusion)).fit(
        small_dataset, small_splits.train_ids
    )
    scored = []
    monkeypatch.setattr(
        estimator_module,
        "metric_suite",
        lambda y, fused: scored.append(np.array(fused)) or {"mae": 0.0},
    )
    estimator.evaluate(small_splits.test_ids)
    assert len(scored) == estimator.timeline.n_models
    for ti, boundary in enumerate(estimator.timeline.t_stars):
        alone = np.array(
            [
                estimator.query([int(a)], t_star=float(boundary))[0].current_estimate
                for a in small_splits.test_ids
            ]
        )
        np.testing.assert_array_equal(scored[ti].view(np.int64), alone.view(np.int64))
