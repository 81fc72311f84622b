"""The per-window model set: ``1 + ceil(100/x)`` supervised models.

Each window boundary ``t*`` on the logical timeline owns one model.
Every window model gets its own feature selection (applied to generated
features only — static features are always included, per Section 3.2.1)
and its own fit.  Two architectures are supported (Task 3):

* **flat** ("non-stacked"): one model per window over
  ``[static | selected dynamic]`` features.
* **stacked**: a shared *base* model is trained on static features only;
  each window model is trained on ``[selected dynamic | base prediction]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import fusion
from repro.core.config import PipelineConfig
from repro.core.models import BaseModelAdapter, make_model
from repro.core.timeline import LogicalTimeline
from repro.errors import ConfigurationError, NotFittedError
from repro.features.selection import score_ranking
from repro.runtime import ExecutionContext, check_deadline, ensure_context

#: Name of the synthetic feature carrying the base model's prediction in
#: the stacked architecture.
STATIC_BASE_PRED = "STATIC_BASE_PRED"


@dataclass
class WindowModel:
    """One fitted model at a timeline boundary."""

    t_star: float
    selected: np.ndarray  # indices into the dynamic feature axis
    model: BaseModelAdapter
    design_names: list[str]


@dataclass
class TimelineModelSet:
    """All window models for one pipeline configuration.

    Parameters
    ----------
    config:
        Pipeline configuration (selection, family, architecture, loss...).
    dyn_feature_names:
        Names along the dynamic-feature axis of the tensor.
    static_feature_names:
        Names of the static design columns.
    selection_rankings:
        Optional precomputed full rankings (best first) per window index;
        when provided the expensive scoring step is skipped — the
        pipeline optimizer uses this to sweep ``k`` cheaply.
    context:
        Optional :class:`~repro.runtime.ExecutionContext` receiving
        ``select`` / ``fuse`` spans and fit counters.
    """

    config: PipelineConfig
    dyn_feature_names: list[str]
    static_feature_names: list[str]
    selection_rankings: list[np.ndarray] | None = None
    context: ExecutionContext | None = None
    timeline: LogicalTimeline = field(init=False)

    def __post_init__(self) -> None:
        self.timeline = LogicalTimeline(self.config.window_pct)
        self.context = ensure_context(self.context, seed=self.config.seed)
        self._windows: list[WindowModel] = []
        self._base_model: BaseModelAdapter | None = None

    # ------------------------------------------------------------------
    def _new_model(self) -> BaseModelAdapter:
        return make_model(
            self.config.model_family,
            loss=self.config.loss,
            huber_delta=self.config.huber_delta,
            gbm_params=self.config.gbm,
            alpha=self.config.linear_alpha,
            l1_ratio=self.config.linear_l1_ratio,
        )

    def fit(
        self,
        X_static: np.ndarray,
        dyn_tensor: np.ndarray,
        y: np.ndarray,
    ) -> "TimelineModelSet":
        """Fit every window model.

        Parameters
        ----------
        X_static:
            (n, n_static) static design matrix of the training avails.
        dyn_tensor:
            (n, n_windows, n_dyn) dynamic feature tensor slice for the
            training avails, aligned with ``self.timeline.t_stars``.
        y:
            Delay targets.
        """
        X_static = np.asarray(X_static, dtype=np.float64)
        dyn_tensor = np.asarray(dyn_tensor, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n_windows = self.timeline.n_models
        if dyn_tensor.ndim != 3 or dyn_tensor.shape[1] != n_windows:
            raise ConfigurationError(
                f"dyn_tensor must be (n, {n_windows}, p), got {dyn_tensor.shape}"
            )
        if self.selection_rankings is not None and len(self.selection_rankings) != n_windows:
            raise ConfigurationError("selection_rankings must have one entry per window")
        k = min(self.config.k, dyn_tensor.shape[2])
        self._windows = []
        self._base_model = None
        base_pred: np.ndarray | None = None
        if self.config.architecture == "stacked":
            self._base_model = self._new_model().fit(X_static, y)
            base_pred = self._base_model.predict(X_static)
        assert self.context is not None
        for ti, t_star in enumerate(self.timeline.t_stars):
            X_dyn = dyn_tensor[:, ti, :]
            if self.selection_rankings is not None:
                selected = np.asarray(self.selection_rankings[ti][:k], dtype=np.int64)
            else:
                with self.context.span("select"):
                    ranking = score_ranking(
                        self.config.selection_method, X_dyn, y, seed=self.config.seed
                    )
                selected = ranking[:k]
            design = self._design(X_static, X_dyn, selected, base_pred)
            with self.context.span("fit_window"):
                model = self._new_model().fit(design, y)
            self.context.counter("models.windows_fitted")
            self._windows.append(
                WindowModel(
                    t_star=float(t_star),
                    selected=selected,
                    model=model,
                    design_names=self._design_names(selected),
                )
            )
        return self

    def _design(
        self,
        X_static: np.ndarray,
        X_dyn: np.ndarray,
        selected: np.ndarray,
        base_pred: np.ndarray | None,
    ) -> np.ndarray:
        dyn_selected = X_dyn[:, selected]
        if self.config.architecture == "stacked":
            assert base_pred is not None
            return np.column_stack([dyn_selected, base_pred])
        return np.column_stack([X_static, dyn_selected])

    def _design_names(self, selected: np.ndarray) -> list[str]:
        """Column names of :meth:`_design`'s matrix (kept off the
        predict path, which never reads them)."""
        dyn_names = [self.dyn_feature_names[i] for i in selected]
        if self.config.architecture == "stacked":
            return dyn_names + [STATIC_BASE_PRED]
        return list(self.static_feature_names) + dyn_names

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._windows:
            raise NotFittedError("TimelineModelSet is not fitted")

    @property
    def windows(self) -> list[WindowModel]:
        self._check_fitted()
        return self._windows

    def base_predict(self, X_static: np.ndarray) -> np.ndarray | None:
        """The stacked architecture's base prediction (None when flat)."""
        if self._base_model is None:
            return None
        return self._base_model.predict(X_static)

    def predict_window(
        self,
        X_static: np.ndarray,
        X_dyn: np.ndarray,
        window_index: int,
        base_pred: np.ndarray | None = None,
    ) -> np.ndarray:
        """Raw prediction of one window's model (no fusion).

        ``base_pred`` is :meth:`base_predict` of ``X_static`` when the
        caller already has it; otherwise it is computed here.
        """
        self._check_fitted()
        window = self._windows[window_index]
        if base_pred is None:
            base_pred = self.base_predict(X_static)
        design = self._design(X_static, X_dyn, window.selected, base_pred)
        return window.model.predict(design)

    def predict_upto(
        self,
        X_static: np.ndarray,
        dyn_tensor: np.ndarray,
        last_window: np.ndarray,
        checkpoint: str = "timeline_models.predict",
    ) -> np.ndarray:
        """Raw predictions of the windows each row reaches, shape (n, n_windows).

        Row ``i`` reaches windows ``0..last_window[i]``; its columns
        beyond stay NaN.  Each window model predicts once, over every
        row that reaches it.  A row's prediction does not depend on the
        other rows of the call, so the result equals predicting the rows
        one at a time, bit for bit.  The ambient deadline is checked
        (as ``checkpoint``) before each window.  A stacked set predicts
        its base model once, over every row.
        """
        self._check_fitted()
        X_static = np.asarray(X_static, dtype=np.float64)
        dyn_tensor = np.asarray(dyn_tensor, dtype=np.float64)
        last_window = np.asarray(last_window, dtype=np.int64)
        out = np.full((len(X_static), len(self._windows)), np.nan)
        stacked = self._base_model is not None
        base_pred = None
        for ti in range(int(last_window.max(initial=-1)) + 1):
            check_deadline(checkpoint)
            rows = last_window >= ti
            if stacked and base_pred is None:
                base_pred = self.base_predict(X_static)
            shared = {"base_pred": base_pred[rows]} if stacked else {}
            out[rows, ti] = self.predict_window(
                X_static[rows], dyn_tensor[rows, ti, :], ti, **shared
            )
        return out

    def predict_matrix(self, X_static: np.ndarray, dyn_tensor: np.ndarray) -> np.ndarray:
        """Raw per-window predictions, shape (n, n_windows): every row
        reaches every window."""
        reach = np.full(len(X_static), len(self.windows) - 1)
        return self.predict_upto(X_static, dyn_tensor, reach)

    def predict_fused(self, X_static: np.ndarray, dyn_tensor: np.ndarray) -> np.ndarray:
        """Fused estimate at every window, shape (n, n_windows).

        Column ``j`` fuses the predictions of windows ``0..j`` with the
        configured fusion method — this is what a DoMD query at window
        ``j`` returns.
        """
        raw = self.predict_matrix(X_static, dyn_tensor)
        assert self.context is not None
        with self.context.span("fuse"):
            return fusion.fuse_progressive(raw, self.config.fusion)

    def contributions_at(
        self,
        X_static: np.ndarray,
        X_dyn: np.ndarray,
        window_index: int,
        base_pred: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[str]]:
        """Per-sample feature contributions of one window's model.

        Returns ``(contributions (n, p_design + 1), design names)``; the
        last contribution column is the bias.  ``base_pred`` is as in
        :meth:`predict_window`.
        """
        self._check_fitted()
        window = self._windows[window_index]
        if base_pred is None:
            base_pred = self.base_predict(X_static)
        design = self._design(X_static, X_dyn, window.selected, base_pred)
        return (
            window.model.contributions(design),
            self._design_names(window.selected),
        )
