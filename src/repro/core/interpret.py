"""Global interpretability reports (the paper's SME-review workflow).

Beyond per-avail top-5 explanations, Navy subject-matter experts review
which factors drive the model *overall* — "a review of the top
contributing features for each availability, enabling SMEs to validate
whether the most influential factors align with their domain expertise".
This module aggregates:

* per-window gain importances of the fitted models,
* timeline-wide importances (mean over windows),
* feature-stability (in how many windows a feature was selected),
* a population-level contribution summary (mean |contribution| per
  feature across a set of avails).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.estimator import DomdEstimator
from repro.errors import ConfigurationError, NotFittedError


@dataclass(frozen=True)
class GlobalFeatureReport:
    """Aggregated importance of one feature across the timeline."""

    name: str
    mean_importance: float
    n_windows_selected: int
    mean_abs_contribution: float


def _fitted(estimator: DomdEstimator):
    if estimator._model_set is None:
        raise NotFittedError("estimator is not fitted")
    return estimator._model_set


def window_importances(estimator: DomdEstimator, window_index: int) -> dict[str, float]:
    """Gain importances of one window model, by design-column name."""
    model_set = _fitted(estimator)
    window = model_set.windows[window_index]
    importances = window.model.feature_importances()
    return dict(zip(window.design_names, importances.tolist()))


def global_feature_report(
    estimator: DomdEstimator,
    avail_ids: np.ndarray | None = None,
    top: int = 20,
) -> list[GlobalFeatureReport]:
    """Timeline-wide feature ranking for SME review.

    Parameters
    ----------
    estimator:
        A fitted estimator.
    avail_ids:
        Population for the contribution summary (default: every avail in
        the fitted dataset).
    top:
        Number of features returned (ranked by mean importance).
    """
    if top < 1:
        raise ConfigurationError(f"top must be >= 1, got {top}")
    model_set = _fitted(estimator)
    assert estimator._tensor is not None and estimator._X_static is not None
    if avail_ids is None:
        avail_ids = estimator._tensor.avail_ids
    rows = estimator._tensor.rows_for(np.asarray(avail_ids, dtype=np.int64))
    X_static = estimator._X_static[rows]
    dyn = estimator._tensor.gather(rows)

    importance_sums: dict[str, float] = defaultdict(float)
    windows_selected: dict[str, int] = defaultdict(int)
    contribution_sums: dict[str, float] = defaultdict(float)
    contribution_counts: dict[str, int] = defaultdict(int)

    n_windows = len(model_set.windows)
    for ti in range(n_windows):
        window = model_set.windows[ti]
        for name, value in zip(
            window.design_names, window.model.feature_importances()
        ):
            importance_sums[name] += float(value)
            windows_selected[name] += 1
        contribs, names = model_set.contributions_at(
            X_static, dyn[:, ti, :], ti
        )
        mean_abs = np.abs(contribs[:, :-1]).mean(axis=0)
        for name, value in zip(names, mean_abs):
            contribution_sums[name] += float(value)
            contribution_counts[name] += 1

    reports = [
        GlobalFeatureReport(
            name=name,
            mean_importance=importance_sums[name] / n_windows,
            n_windows_selected=windows_selected[name],
            mean_abs_contribution=(
                contribution_sums[name] / contribution_counts[name]
                if contribution_counts[name]
                else 0.0
            ),
        )
        for name in importance_sums
    ]
    reports.sort(key=lambda r: r.mean_importance, reverse=True)
    return reports[:top]


def format_sme_report(reports: list[GlobalFeatureReport]) -> str:
    """Plain-text rendering of a global feature report."""
    lines = [
        f"{'feature':36s} {'importance':>11} {'windows':>8} {'mean |contrib|':>15}",
        "-" * 74,
    ]
    for report in reports:
        lines.append(
            f"{report.name:36s} {report.mean_importance:>11.4f} "
            f"{report.n_windows_selected:>8d} {report.mean_abs_contribution:>13.2f} d"
        )
    return "\n".join(lines)
