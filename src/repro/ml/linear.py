"""Linear models: ordinary least squares and Elastic-Net.

The paper's "simpler model family" baseline is linear regression tuned
with Elastic-Net regularisation (both l1 and l2 penalties).  The
Elastic-Net is solved by cyclic coordinate descent with soft
thresholding on standardised features — the same algorithm as
scikit-learn's — minimising::

    1/(2n) ||y - Xw - b||^2 + alpha * (l1_ratio ||w||_1
                                       + (1 - l1_ratio)/2 ||w||_2^2)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, NotFittedError


def _linear_predict(X: np.ndarray, coef: np.ndarray, intercept: float) -> np.ndarray:
    """``X @ coef + intercept``, accumulated one column at a time.

    A BLAS product rounds a one-row matrix differently from a many-row
    one; elementwise accumulation keeps each row's prediction
    independent of the rows predicted with it.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(len(X))
    for j, weight in enumerate(coef):
        out += X[:, j] * weight
    return out + intercept


@dataclass
class LinearRegression:
    """Unregularised least squares via ``numpy.linalg.lstsq``."""

    fit_intercept: bool = True

    def __post_init__(self) -> None:
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ConfigurationError("X and y must have equal length")
        if self.fit_intercept:
            design = np.hstack([X, np.ones((len(X), 1))])
        else:
            design = X
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            self.coef_ = solution[:-1]
            self.intercept_ = float(solution[-1])
        else:
            self.coef_ = solution
            self.intercept_ = 0.0
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise NotFittedError("LinearRegression is not fitted")
        return _linear_predict(X, self.coef_, self.intercept_)


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


@dataclass
class ElasticNet:
    """Elastic-Net regression by cyclic coordinate descent.

    Parameters
    ----------
    alpha:
        Overall regularisation strength.
    l1_ratio:
        Mix between l1 (1.0 = lasso) and l2 (0.0 = ridge).
    max_iter, tol:
        Coordinate-descent stopping rule (max sweeps / max coefficient
        change).
    standardize:
        Internally z-score features (coefficients are reported on the
        original scale).
    """

    alpha: float = 1.0
    l1_ratio: float = 0.5
    max_iter: int = 500
    tol: float = 1e-6
    standardize: bool = True
    _fitted: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ConfigurationError(f"l1_ratio must be in [0, 1], got {self.l1_ratio}")
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ElasticNet":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ConfigurationError("X and y must have equal length")
        n, p = X.shape
        if self.standardize:
            mu = X.mean(axis=0)
            sigma = X.std(axis=0)
            sigma[sigma == 0] = 1.0
        else:
            mu = np.zeros(p)
            sigma = np.ones(p)
        Z = (X - mu) / sigma
        y_mean = float(y.mean())
        r = y - y_mean  # residual with all coefficients at zero
        w = np.zeros(p)
        l1_penalty = self.alpha * self.l1_ratio
        l2_penalty = self.alpha * (1.0 - self.l1_ratio)
        # Column squared norms / n (denominator of the update).
        col_sq = (Z**2).sum(axis=0) / n
        denom = col_sq + l2_penalty
        denom[denom == 0] = 1.0
        for sweep in range(self.max_iter):
            max_change = 0.0
            for j in range(p):
                if col_sq[j] == 0.0:
                    continue
                w_old = w[j]
                rho = (Z[:, j] @ r) / n + col_sq[j] * w_old
                w_new = _soft_threshold(rho, l1_penalty) / denom[j]
                if w_new != w_old:
                    r -= Z[:, j] * (w_new - w_old)
                    w[j] = w_new
                    max_change = max(max_change, abs(w_new - w_old))
            self.n_iter_ = sweep + 1
            if max_change <= self.tol:
                break
        # Map back to the original feature scale.
        self.coef_ = w / sigma
        self.intercept_ = y_mean - float(mu @ self.coef_)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted or self.coef_ is None:
            raise NotFittedError("ElasticNet is not fitted")
        return _linear_predict(X, self.coef_, self.intercept_)

    def n_nonzero(self) -> int:
        """Number of non-zero coefficients (sparsity diagnostic)."""
        if self.coef_ is None:
            raise NotFittedError("ElasticNet is not fitted")
        return int(np.count_nonzero(self.coef_))
