"""Batched DoMD queries: answering avails together changes no bit.

``DomdEstimator.query`` answers all of a request's avails at once: each
window model predicts once over every avail whose current window
reaches it, and avails with the same window count are fused together.
``fleet_status`` sends its whole executing fleet as one such query.
Under every regime and every fusion method, each avail's batched answer
— raw window estimates, fused estimates and current estimate — must be
bitwise equal to that avail queried alone.  A mismatch is shrunk to a
minimal avail list with the ddmin shrinker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FUSION_METHODS, DomdEstimator, PipelineConfig
from repro.core.service import DomdService
from repro.data.dates import day_to_iso
from repro.ml import GbmParams
from tests.index.test_differential_fuzz import shrink
from tests.regimes.conftest import fail_with_reproducer, regime_params

#: Every field of a :class:`~repro.core.estimator.DomdEstimate`.
FIELDS = (
    "avail_id",
    "t_star",
    "window_t_stars",
    "window_estimates",
    "fused_estimates",
    "current_estimate",
)


@pytest.fixture(scope="module")
def estimator_for(regime_cache):
    """Memoizing factory: (regime, fusion) -> small fitted estimator."""
    cache: dict[tuple[str, str], DomdEstimator] = {}

    def get(regime: str, fusion: str) -> DomdEstimator:
        if (regime, fusion) not in cache:
            _, dataset, _, _ = regime_cache(regime)
            config = PipelineConfig(
                window_pct=12.5, k=8, fusion=fusion, gbm=GbmParams(n_estimators=8)
            )
            cache[regime, fusion] = DomdEstimator(config).fit(dataset)
        return cache[regime, fusion]

    return get


def batch_mismatch(estimator, avail_ids: list[int], **when) -> str | None:
    """None when one query over ``avail_ids`` equals a one-avail query
    per avail, bit for bit; else a label naming the first difference."""
    batch = estimator.query(avail_ids, **when)
    if len(batch) != len(avail_ids):
        return f"{len(batch)} answers for {len(avail_ids)} avails"
    for avail_id, got in zip(avail_ids, batch):
        alone = estimator.query([avail_id], **when)[0]
        for name in FIELDS:
            if (
                np.asarray(getattr(got, name)).tobytes()
                != np.asarray(getattr(alone, name)).tobytes()
            ):
                return f"avail {avail_id}: batched {name} differs from its lone query"
    return None


def assert_batch_parity(regime, fusion, estimator, avail_ids, **when) -> None:
    label = batch_mismatch(estimator, avail_ids, **when)
    if label is None:
        return
    minimal = shrink(
        list(avail_ids),
        predicate=lambda ids: batch_mismatch(estimator, ids, **when),
    )
    fail_with_reproducer(
        regime,
        f"batched-query-{fusion}",
        f"{label} ({when})",
        minimal,
        len(avail_ids),
        unit="avail ids",
    )


def executing_counts(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Every day of the fleet's span and its executing-avail count."""
    start = np.asarray(dataset.avails["act_start"], dtype=np.float64)
    planned = np.asarray(dataset.avails["planned_duration"], dtype=np.float64)
    days = np.arange(int(start.min()), int((start + planned).max()) + 1)
    progress = (days[:, None] - start[None, :]) / planned[None, :] * 100.0
    return days, ((progress >= 0.0) & (progress <= 100.0)).sum(axis=1)


@pytest.mark.parametrize("fusion", FUSION_METHODS)
@pytest.mark.parametrize("regime", regime_params())
class TestBatchedQueryParity:
    def test_shared_t_star(self, regime, fusion, regime_cache, estimator_for):
        _, dataset, _, _ = regime_cache(regime)
        estimator = estimator_for(regime, fusion)
        ids = [int(a) for a in dataset.avails["avail_id"]]
        shuffled = [int(a) for a in np.random.default_rng(3).permutation(ids)]
        for t_star in (0.0, 12.5, 30.0, 61.7, 100.0, 150.0):
            assert_batch_parity(regime, fusion, estimator, shuffled, t_star=t_star)

    def test_per_avail_date(self, regime, fusion, regime_cache, estimator_for):
        _, dataset, _, _ = regime_cache(regime)
        estimator = estimator_for(regime, fusion)
        starts = np.asarray(dataset.avails["act_start"], dtype=np.int64)
        # Started, executing and finished avails: t* from 0 to past 100.
        day = int(np.percentile(starts, 60))
        ids = [
            int(a)
            for a, start in zip(dataset.avails["avail_id"], starts)
            if start <= day
        ]
        assert len(ids) > 1
        assert_batch_parity(
            regime, fusion, estimator, ids[::-1], physical_day=float(day)
        )

    def test_duplicate_ids_and_empty_list(
        self, regime, fusion, regime_cache, estimator_for
    ):
        _, dataset, _, _ = regime_cache(regime)
        estimator = estimator_for(regime, fusion)
        first, second, third = (int(a) for a in dataset.avails["avail_id"][:3])
        ids = [first, second, first, third, first, second]
        assert_batch_parity(regime, fusion, estimator, ids, t_star=44.0)
        assert estimator.query([], t_star=44.0) == []

    @pytest.mark.parametrize("busy", [True, False], ids=["busy", "sparse"])
    def test_fleet_status(self, regime, fusion, busy, regime_cache, estimator_for):
        _, dataset, _, _ = regime_cache(regime)
        estimator = estimator_for(regime, fusion)
        days, counts = executing_counts(dataset)
        if busy:
            day = int(days[np.argmax(counts)])
        else:
            day = int(days[np.flatnonzero(counts == counts[counts > 0].min())[0]])
        response = DomdService(estimator).handle(
            {"type": "fleet_status", "date": day_to_iso(day)}
        )
        assert response["ok"], response
        rows = response["result"]
        assert len(rows) == counts[days == day][0]
        ids = [row["avail_id"] for row in rows]
        assert_batch_parity(
            regime, fusion, estimator, ids, physical_day=float(day)
        )
        for row in rows:
            alone = estimator.query([row["avail_id"]], physical_day=float(day))[0]
            assert (
                np.float64(row["estimated_delay_days"]).tobytes()
                == np.float64(alone.current_estimate).tobytes()
            ), (regime, fusion, day, row)
