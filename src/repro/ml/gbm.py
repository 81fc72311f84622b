"""Gradient-boosted regression trees (the paper's XGBoost stand-in).

Second-order boosting: each round fits a :class:`RegressionTree` to the
gradient/hessian of the chosen loss at the current ensemble prediction,
with shrinkage, row subsampling and column subsampling.  Supports every
loss from :mod:`repro.ml.losses`, gain importances, staged prediction and
Saabas per-sample contribution attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.losses import Loss, make_loss
from repro.ml.tree import RegressionTree, TreeParams, sort_columns


@dataclass(frozen=True)
class GbmParams:
    """Hyperparameters of the boosted ensemble.

    These are the knobs the paper's AutoHPT module (Section 3.2.4)
    searches over.
    """

    n_estimators: int = 150
    learning_rate: float = 0.08
    max_depth: int = 3
    min_samples_leaf: int = 2
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    loss: str = "l2"
    huber_delta: float = 18.0
    #: Target quantile when ``loss == "pinball"``.
    quantile: float = 0.5
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ConfigurationError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigurationError(f"subsample must be in (0, 1], got {self.subsample}")
        if not 0.0 < self.colsample <= 1.0:
            raise ConfigurationError(f"colsample must be in (0, 1], got {self.colsample}")

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )


@dataclass
class GradientBoostedTrees:
    """Boosted tree regressor with pluggable robust losses.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.random.default_rng(0).normal(size=(64, 4))
    >>> y = X[:, 0] * 3 + np.sin(X[:, 1])
    >>> model = GradientBoostedTrees(GbmParams(n_estimators=50)).fit(X, y)
    >>> float(np.mean(np.abs(model.predict(X) - y))) < 0.5
    True
    """

    params: GbmParams = field(default_factory=GbmParams)

    def __post_init__(self) -> None:
        self._trees: list[RegressionTree] = []
        self._base_score = 0.0
        self._loss: Loss = make_loss(
            self.params.loss, self.params.huber_delta, self.params.quantile
        )
        self._n_features = 0
        self.train_losses_: list[float] = []

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
        early_stopping_rounds: int | None = None,
    ) -> "GradientBoostedTrees":
        """Fit the ensemble to targets ``y``.

        Parameters
        ----------
        X, y:
            Training data.
        eval_set:
            Optional ``(X_val, y_val)`` monitored every round; losses are
            recorded in ``eval_losses_``.
        early_stopping_rounds:
            Stop after this many rounds without improvement of the eval
            loss, then truncate the ensemble to the best round
            (requires ``eval_set``).  ``best_iteration_`` records the
            kept length.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ConfigurationError("X and y must have equal length")
        if len(X) == 0:
            raise ConfigurationError("cannot fit on an empty dataset")
        if early_stopping_rounds is not None:
            if eval_set is None:
                raise ConfigurationError("early stopping requires an eval_set")
            if early_stopping_rounds < 1:
                raise ConfigurationError("early_stopping_rounds must be >= 1")
        n, p = X.shape
        self._n_features = p
        rng = np.random.default_rng(self.params.random_state)
        # Robust base score: the median is the l1-optimal constant and a
        # good initialisation for every loss in the family.
        self._base_score = float(np.median(y))
        predictions = np.full(n, self._base_score)
        self._trees = []
        self.train_losses_ = []
        self.eval_losses_: list[float] = []
        self.best_iteration_: int | None = None
        if eval_set is not None:
            X_eval = np.asarray(eval_set[0], dtype=np.float64)
            y_eval = np.asarray(eval_set[1], dtype=np.float64)
            eval_predictions = np.full(len(X_eval), self._base_score)
            best_eval = float("inf")
            best_round = 0
        tree_params = self.params.tree_params()
        n_sub = max(int(round(self.params.subsample * n)), 2)
        n_cols = max(int(round(self.params.colsample * p)), 1)
        # Every round splits the same rows of X: sort its columns once.
        columns = sort_columns(X)
        for _ in range(self.params.n_estimators):
            g = self._loss.gradient(y, predictions)
            h = self._loss.hessian(y, predictions)
            if self.params.subsample < 1.0:
                rows = rng.choice(n, size=n_sub, replace=False)
                mask = np.zeros(n, dtype=bool)
                mask[rows] = True
                g_fit = np.where(mask, g, 0.0)
                h_fit = np.where(mask, h, 0.0)
            else:
                g_fit, h_fit = g, h
            features = (
                np.sort(rng.choice(p, size=n_cols, replace=False))
                if self.params.colsample < 1.0
                else None
            )
            tree = RegressionTree(tree_params).fit(X, g_fit, h_fit, features, columns)
            self._trees.append(tree)
            predictions = predictions + self.params.learning_rate * tree.predict(X)
            self.train_losses_.append(self._loss.mean(y, predictions))
            if eval_set is not None:
                eval_predictions = (
                    eval_predictions + self.params.learning_rate * tree.predict(X_eval)
                )
                eval_loss = self._loss.mean(y_eval, eval_predictions)
                self.eval_losses_.append(eval_loss)
                if eval_loss < best_eval - 1e-12:
                    best_eval = eval_loss
                    best_round = len(self._trees)
                elif (
                    early_stopping_rounds is not None
                    and len(self._trees) - best_round >= early_stopping_rounds
                ):
                    break
        if early_stopping_rounds is not None:
            self.best_iteration_ = best_round
            self._trees = self._trees[:best_round]
            self.train_losses_ = self.train_losses_[:best_round]
            self.eval_losses_ = self.eval_losses_[:best_round]
        return self

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._trees:
            raise NotFittedError("GradientBoostedTrees is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Ensemble prediction."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self._base_score)
        for tree in self._trees:
            out += self.params.learning_rate * tree.predict(X)
        return out

    def staged_predict(self, X: np.ndarray, every: int = 10) -> list[np.ndarray]:
        """Predictions after every ``every`` boosting rounds."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self._base_score)
        stages = []
        for i, tree in enumerate(self._trees, start=1):
            out = out + self.params.learning_rate * tree.predict(X)
            if i % every == 0 or i == len(self._trees):
                stages.append(out.copy())
        return stages

    def feature_importances(self) -> np.ndarray:
        """Normalised gain importances (sums to 1 when any split exists)."""
        self._check_fitted()
        gains = np.zeros(self._n_features)
        for tree in self._trees:
            gains += tree.feature_gains()
        total = gains.sum()
        return gains / total if total > 0 else gains

    def contributions(self, X: np.ndarray) -> np.ndarray:
        """Per-sample feature contributions, shape (n, p + 1).

        ``contributions(X).sum(axis=1) == predict(X)``; the last column
        is the bias.  Used for the paper's top-5 per-avail explanation.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros((len(X), self._n_features + 1))
        out[:, -1] = self._base_score
        lr = self.params.learning_rate
        for tree in self._trees:
            out += lr * tree.contributions(X)
        return out

    def clone(self, **overrides) -> "GradientBoostedTrees":
        """Fresh unfitted copy, optionally overriding hyperparameters."""
        return GradientBoostedTrees(replace(self.params, **overrides))
