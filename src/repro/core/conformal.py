"""Split-conformal prediction intervals for DoMD estimates.

A point estimate ("~75 days late") is less actionable for a planner than
a calibrated range ("between 40 and 120 days with 90% coverage") — at
$250k per delay-day the difference prices real options.  This module
wraps a fitted :class:`~repro.core.estimator.DomdEstimator` with
per-window split-conformal calibration:

1. hold out a calibration population (never used for fitting),
2. per timeline window, compute the fused-estimate absolute residuals on
   the calibration avails,
3. the interval half-width at miscoverage ``alpha`` is the
   ``ceil((n+1)(1-alpha))/n`` empirical quantile of those residuals —
   the standard finite-sample-valid split-conformal quantile.

Coverage holds marginally under exchangeability; with chronological
drift it is approximate (exactly the caveat a real deployment would
document).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimator import DomdEstimator
from repro.errors import ConfigurationError, NotFittedError


@dataclass(frozen=True)
class DomdInterval:
    """A calibrated delay interval for one avail at one logical time."""

    avail_id: int
    t_star: float
    estimate: float
    lower: float
    upper: float
    alpha: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


class ConformalDomdEstimator:
    """Conformal wrapper over a fitted DoMD estimator."""

    def __init__(self, estimator: DomdEstimator):
        if estimator._model_set is None:
            raise NotFittedError("ConformalDomdEstimator requires a fitted estimator")
        self._estimator = estimator
        self._residuals_by_window: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    def calibrate(self, calibration_ids: np.ndarray) -> "ConformalDomdEstimator":
        """Record per-window absolute residuals on held-out closed avails."""
        estimator = self._estimator
        calibration_ids = np.asarray(calibration_ids, dtype=np.int64)
        if len(calibration_ids) < 5:
            raise ConfigurationError("need at least 5 calibration avails")
        assert estimator._dataset is not None and estimator._tensor is not None
        assert estimator._X_static is not None and estimator._model_set is not None
        delay_by_id = {
            int(a): float(d)
            for a, d in zip(
                estimator._dataset.avails["avail_id"],
                estimator._dataset.avails["delay"],
            )
        }
        y = np.array([delay_by_id[int(a)] for a in calibration_ids])
        if np.any(np.isnan(y)):
            raise ConfigurationError("calibration avails must be closed")
        rows = estimator._tensor.rows_for(calibration_ids)
        fused = estimator._model_set.predict_fused(
            estimator._X_static[rows], estimator._tensor.gather(rows)
        )
        self._residuals_by_window = [
            np.abs(y - fused[:, ti]) for ti in range(fused.shape[1])
        ]
        return self

    def _check_calibrated(self) -> list[np.ndarray]:
        if self._residuals_by_window is None:
            raise NotFittedError("call calibrate() before querying intervals")
        return self._residuals_by_window

    def half_width(self, window_index: int, alpha: float) -> float:
        """Conformal quantile of one window's calibration residuals."""
        residuals = self._check_calibrated()[window_index]
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        n = len(residuals)
        rank = int(np.ceil((n + 1) * (1.0 - alpha)))
        if rank > n:
            # Not enough calibration data for this coverage level.
            return float(np.inf)
        return float(np.sort(residuals)[rank - 1])

    def query_interval(
        self, avail_id: int, t_star: float, alpha: float = 0.1
    ) -> DomdInterval:
        """Point estimate + calibrated interval at ``t_star``."""
        self._check_calibrated()
        estimate = self._estimator.query([int(avail_id)], t_star=t_star)[0]
        window_index = self._estimator.timeline.window_index(t_star)
        width = self.half_width(window_index, alpha)
        return DomdInterval(
            avail_id=int(avail_id),
            t_star=float(t_star),
            estimate=estimate.current_estimate,
            lower=estimate.current_estimate - width,
            upper=estimate.current_estimate + width,
            alpha=alpha,
        )

    def empirical_coverage(
        self, test_ids: np.ndarray, t_star: float, alpha: float = 0.1
    ) -> float:
        """Fraction of held-out avails whose true delay lands inside."""
        estimator = self._estimator
        assert estimator._dataset is not None
        delay_by_id = {
            int(a): float(d)
            for a, d in zip(
                estimator._dataset.avails["avail_id"],
                estimator._dataset.avails["delay"],
            )
        }
        hits = 0
        test_ids = np.asarray(test_ids, dtype=np.int64)
        for avail_id in test_ids:
            interval = self.query_interval(int(avail_id), t_star, alpha)
            truth = delay_by_id[int(avail_id)]
            if interval.lower <= truth <= interval.upper:
                hits += 1
        return hits / len(test_ids)
